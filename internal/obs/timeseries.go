package obs

import (
	"sync"
	"time"
)

// This file adds the third primitive of the observability layer: a
// fixed-capacity time series. Counters answer "how many", histograms
// answer "how slow"; a time series answers "how is this quantity
// moving" — the question behind temporal-budget burn rates, where the
// interesting signal is the trajectory of ∫ valid(perm,t) dt toward
// dur(perm), not its current value.

// Sample is one recorded point of a TimeSeries. Every sample carries
// three stamps:
//
//   - Wall: the wall-clock reading, for humans correlating a series
//     with logs from other machines.
//   - Mono: the offset from the series' creation on Go's monotonic
//     clock. Appends hold the series lock while stamping, so Mono is
//     strictly ordering even when the wall clock steps backwards.
//   - At: the caller's own clock reading (the policy engine's
//     temporal.Clock, in seconds). Rates are computed over At, so a
//     simulated clock yields exact, deterministic derivatives.
type Sample struct {
	Wall  time.Time     `json:"wall"`
	Mono  time.Duration `json:"mono"`
	At    float64       `json:"at"`
	Value float64       `json:"value"`
}

// TimeSeries is a fixed-capacity ring of samples. Appending beyond
// capacity evicts the oldest sample; readers always see the retained
// window in chronological order. A TimeSeries is safe for concurrent
// use.
type TimeSeries struct {
	mu    sync.Mutex
	ring  *Ring[Sample]
	start time.Time
}

// DefaultSeriesCapacity is the retained window of a TimeSeries created
// with capacity 0.
const DefaultSeriesCapacity = 256

// NewTimeSeries creates a series retaining the last capacity samples
// (0 means DefaultSeriesCapacity).
func NewTimeSeries(capacity int) *TimeSeries {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &TimeSeries{ring: NewRing[Sample](capacity), start: time.Now()}
}

// Append records one (at, value) point, stamping it with the wall
// clock and the series' monotonic offset, and returns the stored
// sample.
func (ts *TimeSeries) Append(at, value float64) Sample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := Sample{Wall: time.Now(), Mono: time.Since(ts.start), At: at, Value: value}
	ts.ring.Append(s)
	return s
}

// Samples returns the retained window in chronological order.
func (ts *TimeSeries) Samples() []Sample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ring.Snapshot()
}

// Tail returns the most recent n samples (all of them when n exceeds
// the window) in chronological order.
func (ts *TimeSeries) Tail(n int) []Sample {
	all := ts.Samples()
	if n >= 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Last returns the most recent sample, if any.
func (ts *TimeSeries) Last() (Sample, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ring.Last()
}

// Len returns the number of retained samples.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ring.Len()
}

// Total returns the number of samples ever appended (which may exceed
// the retained window).
func (ts *TimeSeries) Total() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return int(ts.ring.Total())
}

// Capacity returns the retained-window size.
func (ts *TimeSeries) Capacity() int { return ts.ring.Cap() }

// Rate estimates dValue/dAt over the retained window as the
// endpoint slope — exact for a quantity consumed at constant speed,
// which is precisely the shape of a temporal budget while its
// permission stays active. It reports false when the window holds
// fewer than two samples or spans zero At-time.
func Rate(samples []Sample) (perSecond float64, ok bool) {
	if len(samples) < 2 {
		return 0, false
	}
	first, last := samples[0], samples[len(samples)-1]
	dt := last.At - first.At
	if dt <= 0 {
		return 0, false
	}
	return (last.Value - first.Value) / dt, true
}
