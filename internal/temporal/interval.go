// Package temporal implements the continuous-time temporal constraint
// machinery of Section 4.
//
// The paper assumes a time model isomorphic to the reals: permission
// states are boolean-valued functions over time, the accumulated time
// a permission spends in the valid state is the duration-calculus
// integral ∫ valid(perm, t) dt, and Expression 4.1 requires that
// integral never to exceed the permission's validity duration. Because
// coalition servers share no global clock, constraints are expressed
// with durations rather than absolute interval endpoints; the base
// time t_b is either the mobile object's arrival at the current server
// (per-server scheme) or its very first arrival (global scheme).
//
// The package provides right-open interval sets in canonical form,
// piecewise-constant boolean state functions with exact integrals, a
// small decidable duration-calculus formula language (Theorem 4.1),
// pluggable clocks (real, simulated, skewed) and the per-object session
// activations the extended RBAC engine keeps temporal state with.
package temporal

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is the right-open time interval [Begin, End). Times are
// seconds on the continuous time line (float64 ≅ ℝ).
type Interval struct {
	Begin, End float64
}

// Length returns End - Begin, or 0 for an empty/inverted interval.
func (iv Interval) Length() float64 {
	if iv.End <= iv.Begin {
		return 0
	}
	return iv.End - iv.Begin
}

// Empty reports whether the interval contains no time points.
func (iv Interval) Empty() bool { return iv.End <= iv.Begin }

// Contains reports whether t ∈ [Begin, End).
func (iv Interval) Contains(t float64) bool { return t >= iv.Begin && t < iv.End }

// Intersect returns the intersection of two intervals (possibly
// empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Begin: math.Max(iv.Begin, o.Begin), End: math.Min(iv.End, o.End)}
}

// Overlaps reports whether the two intervals share any time points.
func (iv Interval) Overlaps(o Interval) bool { return !iv.Intersect(o).Empty() }

// String implements fmt.Stringer.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.6g, %.6g)", iv.Begin, iv.End)
}

// IntervalSet is a set of time points represented as sorted, disjoint,
// non-empty right-open intervals (the canonical form). The zero value
// is the empty set, ready to use.
//
// The set keeps a lazily built prefix-sum index over interval lengths
// so DurationWithin runs in O(log k) — the duration-calculus chop
// decision evaluates integrals over hundreds of thousands of candidate
// windows and would otherwise be quadratic. Because queries may
// rebuild the index, an IntervalSet is not safe for unsynchronised
// concurrent use even when all callers only read: share a set only
// under a lock.
type IntervalSet struct {
	ivs []Interval
	// prefix[i] is the total length of ivs[:i]; nil or stale when
	// dirty is set. Rebuilt on demand by ensureIndex.
	prefix []float64
	dirty  bool
}

// NewIntervalSet builds a canonical set from arbitrary intervals
// (overlapping, adjacent, empty and unsorted inputs are normalised).
func NewIntervalSet(ivs ...Interval) *IntervalSet {
	s := &IntervalSet{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Add inserts an interval, merging with any intervals it overlaps or
// touches. Empty intervals are ignored. Amortised O(log k + merged).
func (s *IntervalSet) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find the first existing interval whose End >= iv.Begin: all
	// earlier intervals are strictly before iv and untouched.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= iv.Begin })
	j := i
	for j < len(s.ivs) && s.ivs[j].Begin <= iv.End {
		iv.Begin = math.Min(iv.Begin, s.ivs[j].Begin)
		iv.End = math.Max(iv.End, s.ivs[j].End)
		j++
	}
	s.ivs = append(s.ivs[:i], append([]Interval{iv}, s.ivs[j:]...)...)
	s.dirty = true
}

// Remove deletes the time points of iv from the set.
func (s *IntervalSet) Remove(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	var out []Interval
	for _, x := range s.ivs {
		inter := x.Intersect(iv)
		if inter.Empty() {
			out = append(out, x)
			continue
		}
		if left := (Interval{Begin: x.Begin, End: inter.Begin}); !left.Empty() {
			out = append(out, left)
		}
		if right := (Interval{Begin: inter.End, End: x.End}); !right.Empty() {
			out = append(out, right)
		}
	}
	s.ivs = out
	s.dirty = true
}

// Contains reports whether time t belongs to the set.
func (s *IntervalSet) Contains(t float64) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Duration returns the total length of the set.
func (s *IntervalSet) Duration() float64 {
	total := 0.0
	for _, iv := range s.ivs {
		total += iv.Length()
	}
	return total
}

// ensureIndex rebuilds the prefix-sum index when stale.
func (s *IntervalSet) ensureIndex() {
	if !s.dirty && len(s.prefix) == len(s.ivs)+1 {
		return
	}
	if cap(s.prefix) < len(s.ivs)+1 {
		s.prefix = make([]float64, len(s.ivs)+1)
	} else {
		s.prefix = s.prefix[:len(s.ivs)+1]
	}
	s.prefix[0] = 0
	for i, iv := range s.ivs {
		s.prefix[i+1] = s.prefix[i] + iv.Length()
	}
	s.dirty = false
}

// DurationWithin returns the length of the set restricted to window in
// O(log k) using the prefix-sum index.
func (s *IntervalSet) DurationWithin(window Interval) float64 {
	if window.Empty() || len(s.ivs) == 0 {
		return 0
	}
	s.ensureIndex()
	// lo: first interval that ends after the window begins.
	lo := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > window.Begin })
	// hi: first interval that begins at or after the window ends.
	hi := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Begin >= window.End })
	if lo >= hi {
		return 0
	}
	total := s.prefix[hi] - s.prefix[lo]
	// Clip the boundary intervals.
	if over := window.Begin - s.ivs[lo].Begin; over > 0 {
		total -= over
	}
	if over := s.ivs[hi-1].End - window.End; over > 0 {
		total -= over
	}
	return total
}

// Intervals returns a copy of the canonical intervals in order.
func (s *IntervalSet) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Len returns the number of canonical intervals.
func (s *IntervalSet) Len() int { return len(s.ivs) }

// IsEmpty reports whether the set contains no time points.
func (s *IntervalSet) IsEmpty() bool { return len(s.ivs) == 0 }

// Clone returns an independent copy of the set.
func (s *IntervalSet) Clone() *IntervalSet {
	return &IntervalSet{ivs: s.Intervals()}
}

// Union returns s ∪ o as a new set.
func (s *IntervalSet) Union(o *IntervalSet) *IntervalSet {
	out := s.Clone()
	for _, iv := range o.ivs {
		out.Add(iv)
	}
	return out
}

// Intersect returns s ∩ o as a new set (linear merge).
func (s *IntervalSet) Intersect(o *IntervalSet) *IntervalSet {
	out := &IntervalSet{}
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		inter := s.ivs[i].Intersect(o.ivs[j])
		if !inter.Empty() {
			out.ivs = append(out.ivs, inter)
		}
		if s.ivs[i].End < o.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// ComplementWithin returns window \ s.
func (s *IntervalSet) ComplementWithin(window Interval) *IntervalSet {
	out := &IntervalSet{}
	cursor := window.Begin
	for _, iv := range s.ivs {
		clipped := iv.Intersect(window)
		if clipped.Empty() {
			continue
		}
		if clipped.Begin > cursor {
			out.ivs = append(out.ivs, Interval{Begin: cursor, End: clipped.Begin})
		}
		cursor = math.Max(cursor, clipped.End)
	}
	if cursor < window.End {
		out.ivs = append(out.ivs, Interval{Begin: cursor, End: window.End})
	}
	return out
}

// Canonical reports whether the representation invariant holds:
// sorted, disjoint, non-touching, non-empty intervals. It always
// returns true for sets built through the public API and exists for
// property tests.
func (s *IntervalSet) Canonical() bool {
	for i, iv := range s.ivs {
		if iv.Empty() {
			return false
		}
		if i > 0 && s.ivs[i-1].End >= iv.Begin {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (s *IntervalSet) String() string {
	if len(s.ivs) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
