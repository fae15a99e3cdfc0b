package obs

// Tail-latency exemplars: a histogram can optionally retain, per
// bucket, the identity of a recent bucket-maximum observation — the
// decision ID and trace ID of the request that actually paid that
// latency. A p99 cell on /metrics then links directly to a replayable
// trace instead of being an anonymous aggregate: `stacctl slow` lists
// the exemplars and resolves each through /debug/explain and
// /debug/trace.
//
// The hot path stays cheap: qualification is one atomic load and a
// compare (almost always false once a bucket has seen its typical
// maximum), and only qualifying observations — rare, slow ones — pay
// the allocation for the exemplar record and, on the engine path, the
// lazy decision-ID mint.

import (
	"sort"
	"sync/atomic"
	"time"
)

// Exemplar identifies one retained observation.
type Exemplar struct {
	// Value is the observed latency in seconds.
	Value float64 `json:"value_s"`
	// Bucket is the index of the histogram bucket the observation
	// landed in (len(bounds) = the +Inf bucket); Le is that bucket's
	// upper bound in seconds (+Inf rendered as -1).
	Bucket int     `json:"bucket"`
	Le     float64 `json:"le"`
	// DecisionID and TraceID correlate the observation with the audit
	// trail and the span ring. TraceID may be empty (untraced request).
	DecisionID string `json:"decision_id"`
	TraceID    string `json:"trace_id,omitempty"`
	// Time is the wall-clock capture time.
	Time time.Time `json:"time"`
	// Stages is the request's stage vector when the observation was
	// made (see StageLedger), so an untraced exemplar still names
	// where its time went.
	Stages []StageTime `json:"stages,omitempty"`
}

// exemplarStore holds one slot per bucket (including +Inf).
type exemplarStore struct {
	slots []atomic.Pointer[Exemplar]
	// maxNs is the per-slot qualification threshold: the value of the
	// retained exemplar. A new observation qualifies when it meets the
	// threshold, or when the retained exemplar has aged out of the
	// recency window (so the slots describe recent traffic, not one
	// cold-start outlier from hours ago).
	maxNs    []atomic.Int64
	windowNs int64
}

// DefaultExemplarWindow bounds how long a bucket-max exemplar blocks
// smaller observations from the slot.
const DefaultExemplarWindow = 5 * time.Minute

// EnableExemplars attaches exemplar slots to the histogram (idempotent
// and safe under concurrent use; the winning call fixes the window,
// 0 = DefaultExemplarWindow).
func (h *Histogram) EnableExemplars(window time.Duration) {
	if h.ex.Load() != nil {
		return
	}
	if window <= 0 {
		window = DefaultExemplarWindow
	}
	h.ex.CompareAndSwap(nil, &exemplarStore{
		slots:    make([]atomic.Pointer[Exemplar], len(h.bounds)+1),
		maxNs:    make([]atomic.Int64, len(h.bounds)+1),
		windowNs: window.Nanoseconds(),
	})
}

// ExemplarsEnabled reports whether the histogram retains exemplars.
func (h *Histogram) ExemplarsEnabled() bool { return h.ex.Load() != nil }

// bucketIdx places a value (seconds) into its bucket index;
// len(h.bounds) is the +Inf bucket.
func (h *Histogram) bucketIdx(s float64) int {
	for i, b := range h.bounds {
		if s <= b {
			return i
		}
	}
	return len(h.bounds)
}

// ExemplarQualifies reports whether an observation of duration d would
// claim its bucket's exemplar slot — callers use it to decide whether
// minting correlation IDs is worth the cost. Nil-safe on histograms
// without exemplars (false).
func (h *Histogram) ExemplarQualifies(d time.Duration) bool {
	ex := h.ex.Load()
	if ex == nil {
		return false
	}
	i := h.bucketIdx(d.Seconds())
	if int64(d) >= ex.maxNs[i].Load() {
		return true
	}
	cur := ex.slots[i].Load()
	return cur != nil && time.Since(cur.Time).Nanoseconds() > ex.windowNs
}

// RecordExemplar stores the observation, with the request's stage
// vector when given, in its bucket slot. Callers gate on
// ExemplarQualifies first; RecordExemplar re-checks nothing beyond the
// store being enabled, so a racing smaller observation may transiently
// occupy a slot — exemplars are diagnostics, not accounting.
func (h *Histogram) RecordExemplar(d time.Duration, decisionID, traceID string, stages ...StageTime) {
	ex := h.ex.Load()
	if ex == nil {
		return
	}
	i := h.bucketIdx(d.Seconds())
	le := -1.0
	if i < len(h.bounds) {
		le = h.bounds[i]
	}
	e := &Exemplar{
		Value:      d.Seconds(),
		Bucket:     i,
		Le:         le,
		DecisionID: decisionID,
		TraceID:    traceID,
		Time:       time.Now(),
		Stages:     stages,
	}
	ex.maxNs[i].Store(int64(d))
	ex.slots[i].Store(e)
}

// Exemplars returns the currently retained exemplars, ordered by
// bucket. Nil-safe (nil when disabled or empty).
func (h *Histogram) Exemplars() []Exemplar {
	ex := h.ex.Load()
	if ex == nil {
		return nil
	}
	var out []Exemplar
	for i := range ex.slots {
		if e := ex.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// SlowestExemplars returns up to n retained exemplars sorted by value,
// slowest first — the `stacctl slow` view.
func (h *Histogram) SlowestExemplars(n int) []Exemplar {
	out := h.Exemplars()
	sort.Slice(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// HistogramExemplars returns the exemplars of histogram name{labels},
// or nil.
func (r *Registry) HistogramExemplars(name, labels string) []Exemplar {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok && f.kind == kindHistogram {
		if h, ok := f.children[labels].(*Histogram); ok {
			return h.Exemplars()
		}
	}
	return nil
}
