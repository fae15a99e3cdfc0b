package perf

import (
	"strings"
	"sync"
	"testing"
	"time"

	"stac/internal/obs"
)

func TestInstrumentedMutexCountsContention(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewLockStats(reg, "test")
	var m Mutex
	m.Instrument(st)

	m.Lock()
	m.Unlock()
	snap := st.Snapshot()
	if snap.Acquire != 1 || snap.Contended != 0 {
		t.Fatalf("uncontended: %+v", snap)
	}

	// Force contention: hold the lock while another goroutine acquires.
	m.Lock()
	done := make(chan struct{})
	go func() {
		m.Lock()
		m.Unlock()
		close(done)
	}()
	// Wait until the competitor is blocked, then release.
	deadline := time.Now().Add(time.Second)
	for st.contended.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Unlock()
	<-done
	snap = st.Snapshot()
	if snap.Contended == 0 {
		t.Fatalf("expected contended acquisition: %+v", snap)
	}
}

func TestInstrumentedRWMutexConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewLockStats(reg, "rw")
	var m RWMutex
	m.Instrument(st)
	var shared int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if i%10 == 0 {
					m.Lock()
					shared++
					m.Unlock()
				} else {
					m.RLock()
					_ = shared
					m.RUnlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if shared != 8*50 {
		t.Fatalf("shared = %d, lock exclusion broken", shared)
	}
	snap := st.Snapshot()
	if snap.Acquire != 8*50 || snap.RAcquire != 8*450 {
		t.Fatalf("counters: %+v", snap)
	}
	// 1-in-64 sampling over 4000 acquisitions must have recorded waits.
	if snap.WaitCount == 0 {
		t.Fatalf("no sampled waits: %+v", snap)
	}
}

func TestUninstrumentedLocksAreUsable(t *testing.T) {
	var m Mutex
	var rw RWMutex
	m.Lock()
	m.Unlock()
	rw.Lock()
	rw.Unlock()
	rw.RLock()
	rw.RUnlock()
	if (*LockStats)(nil).Snapshot().Acquire != 0 {
		t.Fatal("nil LockStats snapshot")
	}
	if (*LockStats)(nil).ContentionRatio() != 0 {
		t.Fatal("nil ContentionRatio")
	}
}

func TestImbalanceRatio(t *testing.T) {
	if r := ImbalanceRatio(nil); r != 0 {
		t.Errorf("empty = %g", r)
	}
	if r := ImbalanceRatio([]int64{5, 5, 5, 5}); r != 1 {
		t.Errorf("balanced = %g, want 1", r)
	}
	if r := ImbalanceRatio([]int64{20, 0, 0, 0}); r != 4 {
		t.Errorf("fully skewed = %g, want 4", r)
	}
}

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
	if br := tr.Sample(1.0); br != s.BurnRate {
		t.Fatalf("Sample returned %g", br)
	}
	if tr.Series().Len() != 1 {
		t.Fatal("burn-rate series not appended")
	}
	var nilTr *SLOTracker
	nilTr.Observe(time.Second)
	if nilTr.Snapshot().Total != 0 || nilTr.Sample(0) != 0 {
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

func TestLockMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewLockStats(reg, "shard_03")
	var m RWMutex
	m.Instrument(st)
	for i := 0; i <= sampleMask; i++ {
		m.Lock()
		m.Unlock()
	}
	var sb strings.Builder
	obs.WritePrometheus(&sb, reg)
	if !strings.Contains(sb.String(), `stac_lock_wait_seconds_bucket{stripe="shard_03",le="1e-07"}`) {
		t.Fatalf("per-stripe wait histogram missing:\n%s", sb.String())
	}
}
