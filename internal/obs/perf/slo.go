// Package perf holds the latency SLO tracker (burn rate against an
// objective) and the host fingerprint that benchmark and load results
// carry. Raw CPU, mutex and block profiles are the runtime's own,
// served at /debug/pprof; per-request stage time is the stage ledger's
// (obs.StageLedger).
package perf

import (
	"sync/atomic"
	"time"
)

// SLO is a latency service-level objective: at least Objective of
// decisions must complete within Target.
type SLO struct {
	Target    time.Duration `json:"target"`
	Objective float64       `json:"objective"`
}

// SLOTracker counts observations against an SLO and derives the
// burn rate: the ratio of the observed over-target fraction to the
// error budget (1 − objective). Burn rate 1.0 means the budget is
// being consumed exactly as fast as it accrues; above 1.0 the SLO
// will eventually be violated.
type SLOTracker struct {
	slo   SLO
	total atomic.Int64
	over  atomic.Int64
}

// NewSLOTracker creates a tracker for slo (an objective outside (0, 1)
// reads as 0.99).
func NewSLOTracker(slo SLO) *SLOTracker {
	if slo.Objective <= 0 || slo.Objective >= 1 {
		slo.Objective = 0.99
	}
	return &SLOTracker{slo: slo}
}

// SLO returns the tracked objective.
func (t *SLOTracker) SLO() SLO { return t.slo }

// Observe classifies one decision latency. Nil-safe.
func (t *SLOTracker) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.total.Add(1)
	if d > t.slo.Target {
		t.over.Add(1)
	}
}

// SLOSnapshot is a point-in-time view of SLO health.
type SLOSnapshot struct {
	TargetMs     float64 `json:"target_ms"`
	Objective    float64 `json:"objective"`
	Total        int64   `json:"total"`
	Over         int64   `json:"over"`
	OverFraction float64 `json:"over_fraction"`
	BurnRate     float64 `json:"burn_rate"`
}

// Snapshot returns current totals and burn rate. Nil-safe (zero
// snapshot).
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	total, over := t.total.Load(), t.over.Load()
	s := SLOSnapshot{
		TargetMs:  float64(t.slo.Target) / 1e6,
		Objective: t.slo.Objective,
		Total:     total,
		Over:      over,
	}
	if total > 0 {
		s.OverFraction = float64(over) / float64(total)
		s.BurnRate = s.OverFraction / (1 - t.slo.Objective)
	}
	return s
}
