package obs

import "math"

// Ring is a fixed-capacity ring buffer: appending beyond capacity
// evicts the oldest item. Items are numbered by append order from 1,
// so the retained window is always the consecutive sequence range
// [Total-Len+1, Total]. Ring is the one buffer under the span store
// and the flight recorder (the coalition decision log). It is
// not synchronised: its owner holds its own lock around every call.
type Ring[T any] struct {
	buf   []T
	size  int // capacity; buf is allocated by the first Append
	next  int // slot of the oldest item once full; 0 until then
	total uint64
}

// NewRing creates a ring retaining the last capacity items. capacity
// must be positive. The buffer is allocated on first use, so a ring
// replaced before it is used costs nothing.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring[T]{size: capacity}
}

// Append stores v, evicting the oldest item when full, and returns
// v's sequence number.
func (r *Ring[T]) Append(v T) uint64 {
	r.total++
	if r.buf == nil {
		r.buf = make([]T, 0, r.size)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % len(r.buf)
	}
	return r.total
}

// Since returns the retained items with sequence numbers above cursor
// in append order, how many items between cursor and the first one
// returned were evicted (the gap), and the total appended. A cursor
// of 0 reads from the oldest retained item; a cursor at or past total
// returns nothing. At most limit items are copied (limit <= 0 means
// all), so a reader with a deep backlog holds its owner's lock for a
// bounded copy per call and resumes from cursor+missed+len(items).
func (r *Ring[T]) Since(cursor uint64, limit int) (items []T, missed, total uint64) {
	total = r.total
	n := len(r.buf)
	if cursor >= total || n == 0 {
		return nil, 0, total
	}
	oldest := total - uint64(n) + 1
	if cursor+1 < oldest {
		missed = oldest - cursor - 1
		cursor = oldest - 1
	}
	from := int(cursor + 1 - oldest)
	to := n
	if limit > 0 && to-from > limit {
		to = from + limit
	}
	return r.appendRange(make([]T, 0, to-from), from, to), missed, total
}

// Snapshot returns the retained items in append order.
func (r *Ring[T]) Snapshot() []T {
	return r.appendRange(make([]T, 0, len(r.buf)), 0, len(r.buf))
}

// Each calls fn on the retained items in append order, without
// copying the window, until fn returns false.
func (r *Ring[T]) Each(fn func(T) bool) {
	n := len(r.buf)
	for i := 0; i < n; i++ {
		if !fn(r.buf[(r.next+i)%n]) {
			return
		}
	}
}

// First returns the oldest retained item, if any.
func (r *Ring[T]) First() (T, bool) {
	if len(r.buf) == 0 {
		var zero T
		return zero, false
	}
	return r.buf[r.next], true
}

// Last returns the most recently appended item, if any.
func (r *Ring[T]) Last() (T, bool) {
	n := len(r.buf)
	if n == 0 {
		var zero T
		return zero, false
	}
	return r.buf[(r.next+n-1)%n], true
}

// Len returns the number of retained items.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the number of items ever appended.
func (r *Ring[T]) Total() uint64 { return r.total }

// Cap returns the retained-window size.
func (r *Ring[T]) Cap() int { return r.size }

// appendRange appends the items at append-order positions [from, to)
// of the retained window to dst.
func (r *Ring[T]) appendRange(dst []T, from, to int) []T {
	n := len(r.buf)
	a, b := r.next+from, r.next+to
	switch {
	case b <= n:
		return append(dst, r.buf[a:b]...)
	case a >= n:
		return append(dst, r.buf[a-n:b-n]...)
	}
	dst = append(dst, r.buf[a:]...)
	return append(dst, r.buf[:b-n]...)
}

// Window is a map bounded to the keys of its last capacity Adds: an Add
// beyond that evicts the key added capacity Adds before it, unless the
// key was deleted or added again since. Each entry is held once, as a
// (key, value) slot of a ring kept in Add order; the map holds only
// each key's slot index. The ring grows as entries arrive, never past
// the capacity, so a window that never fills never pays for it. Like
// Ring it is not synchronised.
type Window[K comparable, V any] struct {
	m     map[K]uint32       // held key -> its slot
	slots []windowSlot[K, V] // one per Add of the last capacity, in Add order
	size  int                // capacity
	next  int                // the oldest slot, which the next Add overwrites, once full
}

// windowSlot is one Add's entry. A slot whose key was deleted or added
// again since is zeroed, so it pins nothing and no key's index names it.
type windowSlot[K comparable, V any] struct {
	k K
	v V
}

// NewWindow creates a window of the given capacity, which must be
// positive and fit a slot index.
func NewWindow[K comparable, V any](capacity int) *Window[K, V] {
	if capacity <= 0 || uint64(capacity) > math.MaxUint32 {
		panic("obs: window capacity out of range")
	}
	return &Window[K, V]{m: make(map[K]uint32), size: capacity}
}

// Get returns k's value.
func (w *Window[K, V]) Get(k K) (V, bool) {
	i, ok := w.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	return w.slots[i].v, true
}

// Add stores v under k as the newest key, replacing any value k had,
// and returns the value it evicted to keep the bound, if any.
func (w *Window[K, V]) Add(k K, v V) (evicted V, ok bool) {
	i := len(w.slots)
	if i < w.size {
		if i == cap(w.slots) {
			grown := make([]windowSlot[K, V], i, min(max(2*i, 8), w.size))
			copy(grown, w.slots)
			w.slots = grown
		}
		w.slots = w.slots[:i+1]
	} else {
		i, w.next = w.next, (w.next+1)%w.size
		// The oldest slot leaves; its key goes with it unless the key
		// was deleted or added again since.
		old := w.slots[i]
		if j, in := w.m[old.k]; in && int(j) == i {
			delete(w.m, old.k)
			evicted, ok = old.v, true
		}
	}
	if j, in := w.m[k]; in {
		w.slots[j] = windowSlot[K, V]{}
	}
	w.slots[i] = windowSlot[K, V]{k: k, v: v}
	w.m[k] = uint32(i)
	return evicted, ok
}

// Delete removes k and returns the value it had.
func (w *Window[K, V]) Delete(k K) (V, bool) {
	i, ok := w.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	v := w.slots[i].v
	w.slots[i] = windowSlot[K, V]{}
	delete(w.m, k)
	return v, true
}

// Len returns the number of keys held.
func (w *Window[K, V]) Len() int { return len(w.m) }
