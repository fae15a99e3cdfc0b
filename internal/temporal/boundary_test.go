package temporal

import "testing"

// Boundary tests for Expression 4.1 at the knife's edge: the instant
// the accumulated valid duration equals dur(perm) exactly. The
// integral condition is ∫ valid du ≤ dur(perm) over the CLOSED past,
// so at the exact boundary no further valid time can accrue — the
// permission is active-but-invalid, not valid.

func TestTrackerExactBudgetBoundaryGlobal(t *testing.T) {
	p := newPerm(10, GlobalBase)
	p.arrive()
	p.activate(0)

	// Strictly inside the budget: valid.
	if got := p.at(9.999999).State; got != Valid {
		t.Fatalf("state just inside budget = %v", got)
	}
	// Exactly at the boundary: accumulated == dur(perm), no valid
	// time remains, so the active permission is invalid.
	if got := p.at(10).Used; got != 10 {
		t.Fatalf("accumulated at boundary = %v, want exactly 10", got)
	}
	if got := p.at(10).State; got != ActiveInvalid {
		t.Fatalf("state at exact boundary = %v, want active-but-invalid", got)
	}
	if got := p.at(10).Remaining; got != 0 {
		t.Fatalf("remaining at boundary = %v, want exactly 0", got)
	}
	// The integral is clamped at the budget ever after.
	if got := p.at(1000).Used; got != 10 {
		t.Fatalf("accumulated past boundary = %v, want clamp at 10", got)
	}
}

func TestTrackerExactBudgetAcrossClosedActivations(t *testing.T) {
	// Two activations whose closed valid periods sum exactly to the
	// budget: 4 on [0,4) plus 6 starting at 6 exhausts dur = 10 at
	// t = 12 precisely.
	p := newPerm(10, GlobalBase)
	p.activate(0)
	p.deactivate(4)
	p.activate(6)
	if got := p.at(11.999999).State; got != Valid {
		t.Fatalf("state just before the summed boundary = %v", got)
	}
	if got := p.at(12).Used; got != 10 {
		t.Fatalf("accumulated = %v, want exactly 10", got)
	}
	if got := p.at(12).State; got != ActiveInvalid {
		t.Fatalf("state at summed boundary = %v", got)
	}
	// The valid time ends exactly at the boundary.
	if got := p.at(100).Used; got != 10 {
		t.Fatalf("valid-state integral = %v, want exactly 10", got)
	}
	if exp := 12 + p.at(12).Remaining; exp != 12 {
		t.Fatalf("expiry at boundary = %v, want 12", exp)
	}
}

func TestTrackerExactBudgetPerServerEpochReset(t *testing.T) {
	p := newPerm(10, PerServerBase)
	p.arrive()
	p.activate(0)
	if got := p.at(10).State; got != ActiveInvalid {
		t.Fatalf("state at boundary = %v", got)
	}

	// Migration at the exact boundary instant: under the per-server
	// scheme t_b becomes the new arrival, the accumulation restarts,
	// and a fresh full budget is available.
	p.arrive()
	if got := p.at(10).State; got != Inactive {
		t.Fatalf("state after epoch reset = %v, want inactive until reactivated", got)
	}
	p.activate(10)
	if got := p.at(10).Remaining; got != 10 {
		t.Fatalf("remaining after epoch reset = %v, want the full budget", got)
	}
	if got := p.at(19.999999).State; got != Valid {
		t.Fatalf("state inside the second epoch = %v", got)
	}
	if got := p.at(20).State; got != ActiveInvalid {
		t.Fatalf("state at the second epoch's boundary = %v", got)
	}
}

func TestTrackerExactBudgetGlobalSurvivesMigration(t *testing.T) {
	// Under the global scheme an arrival at the exact boundary must
	// NOT replenish anything: t_b stays t_1.
	p := newPerm(10, GlobalBase)
	p.arrive()
	p.activate(0)
	p.arrive()
	if got := p.at(10).Remaining; got != 0 {
		t.Fatalf("remaining after migration at boundary = %v, want 0", got)
	}
	if got := p.at(10).State; got != ActiveInvalid {
		t.Fatalf("state after migration at boundary = %v", got)
	}
	if got := p.at(10).Used; got != 10 {
		t.Fatalf("accumulated after migration = %v, want the whole first arrival's 10", got)
	}
}
