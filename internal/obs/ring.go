package obs

// Ring is a fixed-capacity ring buffer: appending beyond capacity
// evicts the oldest item. Items are numbered by append order from 1,
// so the retained window is always the consecutive sequence range
// [Total-Len+1, Total]. Ring is the one buffer under the span store,
// the flight recorder (the coalition decision log) and Window. It is
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
// key was deleted or added again since. Like Ring it is not
// synchronised.
type Window[K comparable, V any] struct {
	m    map[K]windowEntry[V]
	keys *Ring[K] // the keys of the last capacity Adds, in Add order
}

// windowEntry is a value and the sequence number keys gave the Add
// that stored it, so an older position of its key evicts nothing.
type windowEntry[V any] struct {
	v   V
	seq uint64
}

// NewWindow creates a window of the given capacity, which must be
// positive.
func NewWindow[K comparable, V any](capacity int) *Window[K, V] {
	return &Window[K, V]{m: make(map[K]windowEntry[V]), keys: NewRing[K](capacity)}
}

// Get returns k's value.
func (w *Window[K, V]) Get(k K) (V, bool) {
	e, ok := w.m[k]
	return e.v, ok
}

// Add stores v under k as the newest key, replacing any value k had,
// and returns the value it evicted to keep the bound, if any.
func (w *Window[K, V]) Add(k K, v V) (evicted V, ok bool) {
	if w.keys.Len() == w.keys.Cap() {
		old, _ := w.keys.First()
		if e, in := w.m[old]; in && e.seq == w.keys.Total()-uint64(w.keys.Cap())+1 {
			delete(w.m, old)
			evicted, ok = e.v, true
		}
	}
	w.m[k] = windowEntry[V]{v: v, seq: w.keys.Append(k)}
	return evicted, ok
}

// Delete removes k and returns the value it had.
func (w *Window[K, V]) Delete(k K) (V, bool) {
	e, ok := w.m[k]
	delete(w.m, k)
	return e.v, ok
}

// Len returns the number of keys held.
func (w *Window[K, V]) Len() int { return len(w.m) }
