package core

import (
	"runtime"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/srac"
	"stac/internal/temporal"
)

// TestPrefixEvalFlatInHistory pins the decision path's prefix
// evaluation flat in the resident history's length: with the history
// owned by the request's proof store, a decision steps the proofs added
// since the object's previous decision plus the requested access, so
// its allocations, its allocated bytes and the profiler's ScanEntries
// per decision are the same at 16 entries as at 1024 (the allocation
// count only without -race; see race_on_test.go). AllocsPerRun adds
// one warm-up run to the count it averages over, hence the +1.
//
// Bytes come from the process-wide TotalAlloc over rounds that
// alternate the two histories, so background allocations fall on both
// alike. Under -race, sync.Pool drops a quarter of the buffers put
// back and the decision reallocates them: about 880 B per decision
// whatever the history, in a few large allocations, whose mean over
// 2000 decisions spreads by about 25 B. Over rounds × batch decisions
// a side the difference of the two means spreads by about 9 B, well
// inside the 64 B bound.
func TestPrefixEvalFlatInHistory(t *testing.T) {
	type side struct {
		decide           func()
		mallocs, entries float64
		stepped          int
		bytes            uint64
	}
	const (
		decisions = 200
		rounds    = 40
		batch     = 800
	)
	setup := func(histLen int) *side {
		spatial := srac.AtMost(1_000_000, model.Selector{Resources: []model.ResourceID{"f1"}})
		e, sess, _ := testEngine(t, spatial, 0, temporal.GlobalBase)
		e.SetObs(obs.NewRegistry())
		e.EnableCostProfiling()
		a := model.NewAccess("o1", "read", "f1", "s1")
		st := proof.NewStore(nil)
		for i := 0; i < histLen; i++ {
			if err := st.Add(proof.Proof{Access: a, Time: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s := &side{}
		s.decide = func() {
			d := e.Authorize(Request{Session: sess, Access: a, History: st.Trace(), Proofs: st})
			if !d.Granted {
				t.Fatalf("denied at history %d: %s", histLen, d.Reason)
			}
			s.stepped += d.entries
		}
		s.decide() // the first decision catches up on the whole history
		before := s.stepped
		s.mallocs = testing.AllocsPerRun(decisions, s.decide)
		s.entries = float64(s.stepped-before) / (decisions + 1)
		return s
	}
	short, long := setup(16), setup(1024)
	var m0, m1 runtime.MemStats
	runtime.GC()
	for r := 0; r < rounds; r++ {
		for _, s := range []*side{short, long} {
			runtime.ReadMemStats(&m0)
			for i := 0; i < batch; i++ {
				s.decide()
			}
			runtime.ReadMemStats(&m1)
			s.bytes += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	shortB := float64(short.bytes) / (rounds * batch)
	longB := float64(long.bytes) / (rounds * batch)
	t.Logf("per decision at history 16: %v allocs, %.1f B, %v entries; at 1024: %v allocs, %.1f B, %v entries",
		short.mallocs, shortB, short.entries, long.mallocs, longB, long.entries)
	if short.entries != 1 || long.entries != 1 {
		t.Fatalf("entries per decision = %v at 16 and %v at 1024, want 1 (the peeked access)", short.entries, long.entries)
	}
	// A history copy would add 64 B per entry to every decision at
	// 1024 entries; background noise stays far below that.
	if !raceDetectorOn && short.mallocs != long.mallocs || longB > shortB+64 {
		t.Fatalf("allocation per decision grows with history: %v allocs / %.1f B at 16, %v allocs / %.1f B at 1024",
			short.mallocs, shortB, long.mallocs, longB)
	}
}
