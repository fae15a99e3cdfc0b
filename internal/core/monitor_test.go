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
func TestPrefixEvalFlatInHistory(t *testing.T) {
	type cost struct{ mallocs, bytes, entries float64 }
	const decisions = 200
	measure := func(histLen int) cost {
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
		decide := func() {
			if d := e.Authorize(Request{Session: sess, Access: a, History: st.Trace(), Proofs: st}); !d.Granted {
				t.Fatalf("denied at history %d: %s", histLen, d.Reason)
			}
		}
		decide() // the first decision catches up on the whole history
		before := e.CostReport().Amplification.ScanEntries
		allocs := testing.AllocsPerRun(decisions, decide)
		entries := float64(e.CostReport().Amplification.ScanEntries-before) / (decisions + 1)
		// Bytes per decision over a longer run: the process-wide
		// counters also see the test binary's own background
		// allocations, a few bytes per decision at most.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < 10*decisions; i++ {
			decide()
		}
		runtime.ReadMemStats(&m1)
		return cost{mallocs: allocs, bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / (10 * decisions), entries: entries}
	}
	short, long := measure(16), measure(1024)
	t.Logf("per decision at history 16: %+v; at 1024: %+v", short, long)
	if short.entries != 1 || long.entries != 1 {
		t.Fatalf("entries per decision = %v at 16 and %v at 1024, want 1 (the peeked access)", short.entries, long.entries)
	}
	// A history copy would add 64 B per entry to every decision at
	// 1024 entries; background noise stays far below that.
	if !raceDetectorOn && short.mallocs != long.mallocs || long.bytes > short.bytes+64 {
		t.Fatalf("allocation per decision grows with history: %v allocs / %v B at 16, %v allocs / %v B at 1024",
			short.mallocs, short.bytes, long.mallocs, long.bytes)
	}
}
