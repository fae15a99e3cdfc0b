package core

import (
	"math"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/temporal"
)

// TestSampleBudgetsTracksConsumption pins the budget readings against
// the clock arithmetic under a deterministic clock: a permission with
// a 100 s budget, continuously active, burns at exactly 1 s/s, and its
// first reading already carries its time to exhaustion. The readings
// publish no per-object gauges.
func TestSampleBudgetsTracksConsumption(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 100, temporal.GlobalBase)
	reg := obs.NewRegistry()
	e.SetObs(reg)
	e.ActivatePermissions(sess, "o1")

	first := e.Budgets()
	if len(first) != 1 {
		t.Fatalf("budgets = %+v", first)
	}
	if b := first[0]; b.Object != "o1" || b.Perm != "p-read-f1" ||
		b.Consumed != 0 || b.Budget != 100 || b.Remaining != 100 ||
		b.BurnRate != 1 || b.ETA != 100 || b.Scheme != "global" || b.State != "valid" {
		t.Fatalf("first reading = %+v", b)
	}

	clk.Advance(40)
	b := e.Budgets()[0]
	if b.Consumed != 40 || b.Remaining != 60 || b.At != 40 {
		t.Fatalf("second reading = %+v", b)
	}
	if b.BurnRate != 1 {
		t.Fatalf("burn rate = %g, want 1 (continuously active)", b.BurnRate)
	}
	if b.ETA != 60 {
		t.Fatalf("eta = %g, want 60", b.ETA)
	}

	var exp strings.Builder
	obs.WritePrometheus(&exp, reg)
	if strings.Contains(exp.String(), "stac_budget_") {
		t.Fatalf("budget readings published gauges:\n%s", exp.String())
	}
}

// TestBudgetETAPredictsDenialTime is the acceptance check: under a
// deterministic clock, the time-to-exhaustion estimate names the
// actual instant the engine starts denying for temporal exhaustion.
func TestBudgetETAPredictsDenialTime(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 100, temporal.GlobalBase)
	e.SetObs(obs.NewRegistry())
	e.ActivatePermissions(sess, "o1")
	a := model.NewAccess("o1", "read", "f1", "s1")

	// Burn 30 s of budget, reading it as a daemon would.
	e.Budgets()
	clk.Advance(10)
	e.Budgets()
	clk.Advance(20)
	st := e.Budgets()[0]
	if st.BurnRate != 1 {
		t.Fatalf("burn rate = %g", st.BurnRate)
	}
	predicted := st.At + st.ETA // absolute predicted exhaustion time

	// Walk the clock forward and find the actual denial instant.
	for clk.Now() < predicted-1e-9 {
		if d := e.Authorize(req(sess, a)); !d.Granted {
			t.Fatalf("denied at t=%g, before predicted exhaustion %g: %s", clk.Now(), predicted, d)
		}
		clk.Advance(5)
	}
	clk.Advance(1)
	d := e.Authorize(req(sess, a))
	if d.Granted || d.Deny != DenyTemporalExhausted {
		t.Fatalf("decision after predicted exhaustion = %+v", d)
	}
	actual := clk.Now()
	if diff := math.Abs(actual - predicted); diff > 1+1e-9 {
		t.Fatalf("denial at t=%g vs predicted %g (|diff| = %g beyond stepping tolerance)",
			actual, predicted, diff)
	}
	if x := d.Explanation; x == nil || x.Temporal == nil || x.Temporal.Consumed != 100 {
		t.Fatalf("explanation = %+v", x)
	}

	// Post-exhaustion readings report a spent budget with ETA 0.
	st = e.Budgets()[0]
	if st.Remaining != 0 || st.ETA != 0 || st.BurnRate != 0 || st.State != "active-but-invalid" {
		t.Fatalf("post-exhaustion reading = %+v", st)
	}
	if st.Exhausting(10) != true {
		t.Fatal("Exhausting(10) = false at ETA 0")
	}
}

// TestSampleBudgetsIdleAndInfinite: an inactive permission burns
// nothing (rate 0, no ETA) however recently it burned, burns at 1 s/s
// again once reactivated, and time-insensitive permissions carry no
// budget to read.
func TestSampleBudgetsIdleAndInfinite(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 50, temporal.PerServerBase)
	e.SetObs(obs.NewRegistry())
	e.ActivatePermissions(sess, "o1")
	clk.Advance(5)
	e.DeactivatePermissions(sess, "o1")

	clk.Advance(100)
	st := e.Budgets()[0]
	if st.Consumed != 5 || st.State != "inactive" || st.Scheme != "per-server" {
		t.Fatalf("idle reading = %+v", st)
	}
	if st.BurnRate != 0 || st.ETA != -1 {
		t.Fatalf("idle burn = %+v", st)
	}
	if st.Exhausting(1e9) {
		t.Fatal("idle budget reported as exhausting")
	}

	// Toggled back on, the budget burns again from the first reading.
	e.ActivatePermissions(sess, "o1")
	clk.Advance(5)
	if st := e.Budgets()[0]; st.Consumed != 10 || st.BurnRate != 1 || st.ETA != 40 {
		t.Fatalf("reactivated reading = %+v", st)
	}

	// An unconstrained (infinite-duration) permission never shows up.
	e2, sess2, _ := testEngine(t, nil, 0, temporal.GlobalBase)
	e2.SetObs(obs.NewRegistry())
	e2.ActivatePermissions(sess2, "o1")
	if got := e2.Budgets(); len(got) != 0 {
		t.Fatalf("infinite-budget activations read: %+v", got)
	}
}
