package core

import (
	"strings"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/perf"
	"stac/internal/rbac"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// perfEngine builds a one-permission engine with its own registry and
// an authenticated session, plus a closure that performs one granted
// access.
func perfEngine(t *testing.T) (*Engine, func() Decision) {
	t.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	e.SetObs(obs.NewRegistry())
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: "p", Op: "read", Resource: "f"}}),
		e.RBAC.GrantPermission("r", "p"),
		e.RBAC.AssignUserRole("o1", "r"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	a := model.NewAccess("o1", "read", "f", "s1")
	return e, func() Decision {
		return e.Authorize(Request{Session: sess, Access: a, History: trace.Trace{}})
	}
}

func TestPerfStatsStripesAndImbalance(t *testing.T) {
	e, access := perfEngine(t)
	for i := 0; i < 10; i++ {
		if d := access(); !d.Granted {
			t.Fatalf("access denied: %s", d)
		}
	}
	st := e.PerfStats()
	// One object lives on one shard: maximal imbalance, max/mean = 32.
	if st.ObjectImbalance != float64(numShards) {
		t.Fatalf("object imbalance = %g, want %d", st.ObjectImbalance, numShards)
	}
	var total int64
	for _, n := range st.ShardObjects {
		total += n
	}
	if total != 1 {
		t.Fatalf("shard populations sum to %d, want 1 object", total)
	}
}

func TestImbalanceRatio(t *testing.T) {
	if r := imbalanceRatio(nil); r != 0 {
		t.Errorf("empty = %g", r)
	}
	if r := imbalanceRatio([]int64{5, 5, 5, 5}); r != 1 {
		t.Errorf("balanced = %g, want 1", r)
	}
	if r := imbalanceRatio([]int64{20, 0, 0, 0}); r != 4 {
		t.Errorf("fully skewed = %g, want 4", r)
	}
}

func TestSetSLOTracksBurnAndDetaches(t *testing.T) {
	e, access := perfEngine(t)
	// A 1 ns target every real decision misses: over-fraction 1,
	// burn = 1 / (1 - 0.5) = 2.
	e.SetSLO(perf.SLO{Target: time.Nanosecond, Objective: 0.5})
	for i := 0; i < 8; i++ {
		access()
	}
	slo := e.SLOSnapshot()
	if slo.Total != 8 || slo.Over != 8 {
		t.Fatalf("slo = %+v, want 8/8 over", slo)
	}
	if slo.BurnRate < 1.99 || slo.BurnRate > 2.01 {
		t.Fatalf("burn rate = %g, want 2", slo.BurnRate)
	}
	// A zero target detaches the tracker.
	e.SetSLO(perf.SLO{})
	access()
	if got := e.SLOSnapshot(); got != (perf.SLOSnapshot{}) {
		t.Fatalf("detached SLO still tracking: %+v", got)
	}
}

func TestDecisionExemplarsMintIDs(t *testing.T) {
	e, access := perfEngine(t)
	if d := access(); d.ID != "" {
		// Exemplar capture may claim the very first decision; its ID
		// must then be a minted d- ID, not some other shape.
		if !strings.HasPrefix(d.ID, "d-") {
			t.Fatalf("decision ID = %q", d.ID)
		}
	}
	for i := 0; i < 30; i++ {
		access()
	}
	exs := e.DecisionExemplars()
	if len(exs) == 0 {
		t.Fatal("no exemplars after 31 decisions")
	}
	for _, ex := range exs {
		if !strings.HasPrefix(ex.DecisionID, "d-") {
			t.Fatalf("exemplar without minted ID: %+v", ex)
		}
		if ex.Value <= 0 {
			t.Fatalf("exemplar with non-positive latency: %+v", ex)
		}
	}
}

func TestPublishPerfExportsGauges(t *testing.T) {
	e, access := perfEngine(t)
	e.SetSLO(perf.SLO{Target: time.Nanosecond})
	access()
	e.PublishPerf()
	var sb strings.Builder
	obs.WritePrometheus(&sb, e.Obs())
	body := sb.String()
	for _, want := range []string{
		"stac_shard_object_imbalance_ratio 32",
		"stac_slo_burn_rate",
		"stac_slo_over_fraction 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}
