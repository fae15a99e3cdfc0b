package perf

import (
	"testing"
	"time"
)

func TestSLOTrackerBurnRate(t *testing.T) {
	tr := NewSLOTracker(SLO{Target: 10 * time.Millisecond, Objective: 0.9})
	for i := 0; i < 80; i++ {
		tr.Observe(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		tr.Observe(time.Second)
	}
	s := tr.Snapshot()
	if s.Total != 100 || s.Over != 20 {
		t.Fatalf("counts: %+v", s)
	}
	// 20% over target against a 10% error budget → burn rate 2.
	if s.BurnRate < 1.99 || s.BurnRate > 2.01 {
		t.Fatalf("burn rate = %g, want 2", s.BurnRate)
	}
	var nilTr *SLOTracker
	nilTr.Observe(time.Second)
	if nilTr.Snapshot().Total != 0 {
		t.Fatal("nil tracker must be inert")
	}
}

func TestHostInfo(t *testing.T) {
	h := Host()
	if h.GoVersion == "" || h.NumCPU < 1 || h.GOMAXPROCS < 1 {
		t.Fatalf("implausible host info: %+v", h)
	}
	if diff := h.Diff(h); len(diff) != 0 {
		t.Fatalf("self-diff: %v", diff)
	}
	other := h
	other.GoVersion = "go0.0"
	other.GOMAXPROCS = h.GOMAXPROCS + 1
	diff := h.Diff(other)
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want go_version + gomaxprocs", diff)
	}
	// Unknown fields on either side do not flag.
	var zero HostInfo
	if diff := h.Diff(zero); len(diff) != 0 {
		t.Fatalf("diff vs zero = %v, want none", diff)
	}
}
