package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refSince is the plain-slice reference for Ring.Since: all holds
// every value ever appended (value == sequence number), of which the
// last capacity are retained.
func refSince(all []uint64, capacity int, cursor uint64, limit int) (items []uint64, missed, total uint64) {
	total = uint64(len(all))
	if cursor >= total {
		return nil, 0, total
	}
	oldest := uint64(1)
	if total > uint64(capacity) {
		oldest = total - uint64(capacity) + 1
	}
	start := cursor + 1
	if start < oldest {
		missed = oldest - start
		start = oldest
	}
	end := total
	if limit > 0 && end-start+1 > uint64(limit) {
		end = start + uint64(limit) - 1
	}
	return append([]uint64(nil), all[start-1:end]...), missed, total
}

// TestRingMatchesReference drives seeded random Append/Since sequences
// against the plain-slice reference, with cursors at 0, at the total,
// past it, inside the window and evicted, and checks the gap, the
// total and that the returned sequence numbers are contiguous.
func TestRingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7} {
		r := rand.New(rand.NewSource(int64(capacity)))
		ring := NewRing[uint64](capacity)
		var all []uint64
		for step := 0; step < 2000; step++ {
			if r.Intn(3) > 0 {
				seq := ring.Append(uint64(len(all) + 1))
				all = append(all, uint64(len(all)+1))
				if seq != uint64(len(all)) {
					t.Fatalf("cap %d: Append returned seq %d, want %d", capacity, seq, len(all))
				}
				continue
			}
			total := uint64(len(all))
			var cursor uint64
			switch r.Intn(5) {
			case 0:
				cursor = 0
			case 1:
				cursor = total
			case 2:
				cursor = total + 1 + uint64(r.Intn(3))
			case 3: // inside the retained window
				cursor = total - uint64(r.Intn(ring.Len()+1))
			default: // evicted, when anything has been
				cursor = uint64(r.Intn(int(total) + 1))
			}
			limit := r.Intn(capacity+2) - 1
			got, missed, gotTotal := ring.Since(cursor, limit)
			want, wantMissed, wantTotal := refSince(all, capacity, cursor, limit)
			if !reflect.DeepEqual(got, want) || missed != wantMissed || gotTotal != wantTotal {
				t.Fatalf("cap %d step %d: Since(%d, %d) = %v missed %d total %d, want %v missed %d total %d",
					capacity, step, cursor, limit, got, missed, gotTotal, want, wantMissed, wantTotal)
			}
			// The reader resumes exactly past the gap and the batch.
			for i, v := range got {
				if v != cursor+missed+uint64(i)+1 {
					t.Fatalf("cap %d: Since(%d) not contiguous: %v (missed %d)", capacity, cursor, got, missed)
				}
			}
			snap := ring.Snapshot()
			wantSnap, _, _ := refSince(all, capacity, 0, 0)
			if len(snap) != len(wantSnap) || (len(snap) > 0 && !reflect.DeepEqual(snap, wantSnap)) {
				t.Fatalf("cap %d: Snapshot = %v, want %v", capacity, snap, wantSnap)
			}
			var each []uint64
			ring.Each(func(v uint64) bool { each = append(each, v); return true })
			if !reflect.DeepEqual(each, wantSnap) {
				t.Fatalf("cap %d: Each = %v, want %v", capacity, each, wantSnap)
			}
			if last, ok := ring.Last(); ok != (total > 0) || (ok && last != total) {
				t.Fatalf("cap %d: Last = %d %v, total %d", capacity, last, ok, total)
			}
			if first, ok := ring.First(); ok != (total > 0) || (ok && first != wantSnap[0]) {
				t.Fatalf("cap %d: First = %d %v, want the oldest of %v", capacity, first, ok, wantSnap)
			}
			if ring.Len() != len(wantSnap) || ring.Total() != total || ring.Cap() != capacity {
				t.Fatalf("cap %d: Len %d Total %d Cap %d", capacity, ring.Len(), ring.Total(), ring.Cap())
			}
		}
	}
}

// TestWindowEvictsOldestFirst fills a window past its capacity: each
// Add beyond it evicts the oldest key and returns its value, and Get,
// Delete and Len answer for exactly the last capacity keys.
func TestWindowEvictsOldestFirst(t *testing.T) {
	const capacity = 3
	w := NewWindow[string, int](capacity)
	keys := []string{"a", "b", "c", "d", "e"}
	for i, k := range keys {
		v, ok := w.Add(k, i)
		if wantOK := i >= capacity; ok != wantOK || (ok && v != i-capacity) {
			t.Fatalf("Add(%s) evicted %d %v, want %d %v", k, v, ok, i-capacity, wantOK)
		}
		if n := w.Len(); n != min(i+1, capacity) {
			t.Fatalf("after Add(%s) Len = %d, want %d", k, n, min(i+1, capacity))
		}
	}
	for i, k := range keys {
		v, ok := w.Get(k)
		if wantOK := i >= len(keys)-capacity; ok != wantOK || (ok && v != i) {
			t.Fatalf("Get(%s) = %d %v, want %d %v", k, v, ok, i, wantOK)
		}
	}
	if v, ok := w.Delete("d"); !ok || v != 3 {
		t.Fatalf("Delete(d) = %d %v, want 3 true", v, ok)
	}
	if _, ok := w.Delete("a"); ok {
		t.Fatal("Delete of an evicted key found it")
	}
	if _, ok := w.Get("d"); ok || w.Len() != capacity-1 {
		t.Fatalf("after Delete(d): Get found it or Len = %d, want %d", w.Len(), capacity-1)
	}
	// c is the oldest; d's position, next in line, evicts nothing.
	if v, ok := w.Add("f", 5); !ok || v != 2 {
		t.Fatalf("Add(f) evicted %d %v, want c's 2", v, ok)
	}
	if _, ok := w.Add("g", 6); ok {
		t.Fatal("Add(g) evicted through the deleted key's position")
	}
	if w.Len() != capacity {
		t.Fatalf("Len = %d, want %d", w.Len(), capacity)
	}
}

// TestWindowReAddedKeySurvivesItsOldPosition deletes a key and adds it
// again, as the handoff takes an object's log and parks it anew, and as
// an Add replaces a held key: the key lives on while the position it
// held first is overwritten, and leaves when its new position does.
func TestWindowReAddedKeySurvivesItsOldPosition(t *testing.T) {
	const capacity = 3
	for _, deleteFirst := range []bool{true, false} {
		w := NewWindow[string, int](capacity)
		w.Add("k", 1)
		if deleteFirst {
			w.Delete("k")
		}
		w.Add("k", 2)
		w.Add("x", 3)
		if _, ok := w.Add("y", 4); ok { // overwrites k's first position
			t.Fatalf("deleteFirst %v: Add(y) evicted through k's old position", deleteFirst)
		}
		if v, ok := w.Get("k"); !ok || v != 2 {
			t.Fatalf("deleteFirst %v: Get(k) = %d %v, want 2 true", deleteFirst, v, ok)
		}
		if v, ok := w.Add("z", 5); !ok || v != 2 {
			t.Fatalf("deleteFirst %v: Add(z) evicted %d %v, want k's 2", deleteFirst, v, ok)
		}
		if _, ok := w.Get("k"); ok {
			t.Fatalf("deleteFirst %v: k survived its own position", deleteFirst)
		}
	}
}

// TestWindowMatchesReference drives seeded random Add, Delete and Get
// sequences over a few keys against a plain reference: the Add that
// falls out of the last capacity evicts its key only if that Add still
// holds it.
func TestWindowMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 5} {
		r := rand.New(rand.NewSource(int64(capacity)))
		w := NewWindow[int, int](capacity)
		var adds []int        // the key of each Add, in order
		pos := map[int]int{}  // held key -> index in adds of its Add
		vals := map[int]int{} // held key -> value
		for step := 0; step < 3000; step++ {
			k := r.Intn(2 * capacity)
			var v, wantV int
			var ok, wantOK bool
			switch r.Intn(3) {
			case 0:
				if out := len(adds) - capacity; out >= 0 {
					old := adds[out]
					if p, in := pos[old]; in && p == out {
						wantV, wantOK = vals[old], true
						delete(pos, old)
						delete(vals, old)
					}
				}
				v, ok = w.Add(k, step)
				pos[k], vals[k] = len(adds), step
				adds = append(adds, k)
			case 1:
				v, ok = w.Delete(k)
				_, wantOK = pos[k]
				wantV = vals[k]
				delete(pos, k)
				delete(vals, k)
			default:
				v, ok = w.Get(k)
				_, wantOK = pos[k]
				wantV = vals[k]
			}
			if v != wantV || ok != wantOK || w.Len() != len(pos) {
				t.Fatalf("cap %d step %d key %d: got %d %v Len %d, want %d %v Len %d",
					capacity, step, k, v, ok, w.Len(), wantV, wantOK, len(pos))
			}
		}
	}
}

// TestWindowMemoryFollowsItsEntries checks that a window's ring grows
// with its entries and never past its capacity, and that a slot left
// behind by a Delete or a re-Add pins neither key nor value.
func TestWindowMemoryFollowsItsEntries(t *testing.T) {
	w := NewWindow[string, *int](1024)
	for i := 0; i < 4; i++ {
		w.Add(fmt.Sprint(i), new(int))
	}
	if c := cap(w.slots); c > 16 {
		t.Fatalf("a 1024-entry window holding 4 keeps %d slots, want at most 16", c)
	}
	w.Delete("1")
	w.Add("2", new(int))
	for i, s := range w.slots[:4] {
		if held := i == 0 || i == 3; !held && (s.k != "" || s.v != nil) {
			t.Fatalf("slot %d of a deleted or re-added key still holds %q %v", i, s.k, s.v)
		}
	}
	const capacity = 1000
	full := NewWindow[int, int](capacity)
	for i := 0; i < 3*capacity; i++ {
		full.Add(i, i)
		if c := cap(full.slots); c > capacity {
			t.Fatalf("after %d Adds the ring has %d slots, past the capacity %d", i+1, c, capacity)
		}
	}
	if full.Len() != capacity || cap(full.slots) != capacity {
		t.Fatalf("full window: Len %d, %d slots; want %d of each", full.Len(), cap(full.slots), capacity)
	}
	for i := 0; i < 3*capacity; i++ {
		if v, ok := full.Get(i); ok != (i >= 2*capacity) || (ok && v != i) {
			t.Fatalf("full window: Get(%d) = %d %v", i, v, ok)
		}
	}
}
