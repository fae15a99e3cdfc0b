package obs

import (
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
			if ring.Len() != len(wantSnap) || ring.Total() != total || ring.Cap() != capacity {
				t.Fatalf("cap %d: Len %d Total %d Cap %d", capacity, ring.Len(), ring.Total(), ring.Cap())
			}
		}
	}
}
