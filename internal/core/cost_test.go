package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// costEngine builds an engine with one permission per constraint
// (p0 reads f0, p1 reads f1, ...), coverage and cost profiling on, and
// an authenticated session holding all of them.
func costEngine(t *testing.T, spatials []srac.Constraint) (*Engine, *rbac.Session) {
	t.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.RBAC.AssignUserRole("o1", "r"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	for i, sp := range spatials {
		id := rbac.PermID(fmt.Sprintf("p%d", i))
		if err := e.DefinePermission(PermSpec{
			Perm:    rbac.Permission{ID: id, Op: "read", Resource: model.ResourceID(fmt.Sprintf("f%d", i))},
			Spatial: sp,
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.RBAC.GrantPermission("r", id); err != nil {
			t.Fatal(err)
		}
	}
	e.EnableCostProfiling()
	// A second call keeps the running collector.
	e.EnableCostProfiling()
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	return e, sess
}

// randomSpatial generates a constraint over the full grammar, the same
// shape space the srac coverage property tests explore.
func randomSpatial(r *rand.Rand, depth int) srac.Constraint {
	accs := []model.Access{
		{Op: "read", Resource: "f1", Server: "s1"},
		{Op: "write", Resource: "f2", Server: "s1"},
		{Op: "read", Resource: "f3", Server: "s2"},
	}
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return srac.Require(accs[r.Intn(len(accs))])
		case 1:
			lo := r.Intn(3)
			max := lo + r.Intn(4)
			if r.Intn(4) == 0 {
				max = srac.Unbounded
			}
			return srac.Count{Min: lo, Max: max, Sel: model.Selector{Ops: []model.Operation{"read"}}}
		case 2:
			return srac.Before(accs[r.Intn(len(accs))], accs[r.Intn(len(accs))])
		case 3:
			return srac.TrueC{}
		default:
			return srac.FalseC{}
		}
	}
	switch r.Intn(3) {
	case 0:
		return srac.And{Left: randomSpatial(r, depth-1), Right: randomSpatial(r, depth-1)}
	case 1:
		return srac.Or{Left: randomSpatial(r, depth-1), Right: randomSpatial(r, depth-1)}
	default:
		return srac.Not{C: randomSpatial(r, depth-1)}
	}
}

// randomCountingSpatial generates a counting-only constraint — the
// fragment the incremental counter path accepts.
func randomCountingSpatial(r *rand.Rand, depth int) srac.Constraint {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return srac.TrueC{}
		case 1:
			return srac.FalseC{}
		default:
			lo := r.Intn(2)
			max := lo + r.Intn(4)
			if r.Intn(4) == 0 {
				max = srac.Unbounded
			}
			sel := model.Selector{Ops: []model.Operation{"read"}}
			if r.Intn(2) == 0 {
				sel = model.Selector{Resources: []model.ResourceID{model.ResourceID(fmt.Sprintf("f%d", r.Intn(3)))}}
			}
			return srac.Count{Min: lo, Max: max, Sel: sel}
		}
	}
	switch r.Intn(3) {
	case 0:
		return srac.And{Left: randomCountingSpatial(r, depth-1), Right: randomCountingSpatial(r, depth-1)}
	case 1:
		return srac.Or{Left: randomCountingSpatial(r, depth-1), Right: randomCountingSpatial(r, depth-1)}
	default:
		return srac.Not{C: randomCountingSpatial(r, depth-1)}
	}
}

// reconcileClauseRows asserts the invariants of the one per-clause
// table: it holds exactly one row per subformula of every permission's
// constraint (p<i> for spatials[i]), keyed by (perm, path) with the
// subformula's text; each root was evaluated perPerm times; per row
// the coverage tallies split the evals (satisfied + violated +
// pending == evals), and decisive and timed evals never exceed them;
// per permission at most one clause is decisive per evaluation.
func reconcileClauseRows(t *testing.T, e *Engine, spatials []srac.Constraint, perPerm int64) {
	t.Helper()
	want := map[string]string{}
	for i, sp := range spatials {
		perm := fmt.Sprintf("p%d", i)
		srac.WalkPaths(sp, func(path string, c srac.Constraint) {
			want[perm+"\x00"+path] = srac.String(c)
		})
	}
	rows := e.CostReport().Clauses
	if len(rows) != len(want) {
		t.Fatalf("cost report has %d rows, the constraints %d subformulas", len(rows), len(want))
	}
	decisive := map[string]int64{}
	for _, cc := range rows {
		clause, ok := want[cc.Perm+"\x00"+cc.Path]
		if !ok {
			t.Fatalf("row %s/%q addresses no subformula", cc.Perm, cc.Path)
		}
		if cc.Clause != clause {
			t.Fatalf("%s/%q: clause %q, subformula %q", cc.Perm, cc.Path, cc.Clause, clause)
		}
		if cc.Path == "" && cc.Evals != perPerm {
			t.Fatalf("%s root: evals %d, want %d", cc.Perm, cc.Evals, perPerm)
		}
		if sum := cc.Satisfied + cc.Violated + cc.Pending; sum != cc.Evals {
			t.Fatalf("%s/%q: outcome tallies sum to %d, evals %d", cc.Perm, cc.Path, sum, cc.Evals)
		}
		if cc.Decisive > cc.Evals || cc.SampledEvals > cc.Evals {
			t.Fatalf("%s/%q: decisive %d / sampled %d > evals %d", cc.Perm, cc.Path, cc.Decisive, cc.SampledEvals, cc.Evals)
		}
		decisive[cc.Perm] += cc.Decisive
	}
	for perm, n := range decisive {
		if n > perPerm {
			t.Fatalf("%s: %d decisive clauses over %d evaluations", perm, n, perPerm)
		}
	}
}

// TestCostMatchesCoverageScan: over random full-grammar constraints and
// random histories, the scan path's per-clause rows reconcile with the
// constraints' subformulas and their own tallies.
func TestCostMatchesCoverageScan(t *testing.T) {
	r := rand.New(rand.NewSource(411))
	pool := []model.Access{
		model.NewAccess("o1", "read", "f1", "s1"),
		model.NewAccess("o1", "write", "f2", "s1"),
		model.NewAccess("o1", "read", "f3", "s2"),
	}
	spatials := make([]srac.Constraint, 12)
	for i := range spatials {
		spatials[i] = randomSpatial(r, 1+r.Intn(3))
	}
	e, sess := costEngine(t, spatials)
	decisions := 0
	for round := 0; round < 8; round++ {
		for i := range spatials {
			var hist trace.Trace
			for j := 0; j < r.Intn(5); j++ {
				hist = append(hist, pool[r.Intn(len(pool))])
			}
			a := model.NewAccess("o1", "read", model.ResourceID(fmt.Sprintf("f%d", i)), "s1")
			e.Authorize(Request{Session: sess, Access: a, History: hist})
			decisions++
		}
	}
	reconcileClauseRows(t, e, spatials, 8)
	rep := e.CostReport()
	var sampled int64
	for _, cc := range rep.Clauses {
		sampled += cc.SampledEvals
	}
	if sampled == 0 {
		t.Fatal("no evaluation was sampled for timing (first tick must sample)")
	}
}

// TestCostMatchesCoverageIncremental: counting-only constraints decided
// over a history that grows one grant at a time reconcile the same way.
func TestCostMatchesCoverageIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(431))
	spatials := make([]srac.Constraint, 10)
	for i := range spatials {
		spatials[i] = randomCountingSpatial(r, 1+r.Intn(3))
	}
	e, sess := costEngine(t, spatials)
	var hist trace.Trace
	for round := 0; round < 6; round++ {
		for i := range spatials {
			a := model.NewAccess("o1", "read", model.ResourceID(fmt.Sprintf("f%d", i)), "s1")
			d := e.Authorize(Request{Session: sess, Access: a, History: hist})
			if d.Granted {
				e.RecordGrant(a)
				hist = append(hist, a)
			}
		}
	}
	reconcileClauseRows(t, e, spatials, 6)
}

// TestCostProfilingDecisionsBitIdentical: the profiler must be a pure
// observer. Two engines fed the identical request sequence — one with
// cost profiling (and coverage) on, one fully detached — produce
// bit-identical decisions, explanations included.
func TestCostProfilingDecisionsBitIdentical(t *testing.T) {
	r1 := rand.New(rand.NewSource(443))
	r2 := rand.New(rand.NewSource(443))
	build := func(r *rand.Rand, profiled bool) (*Engine, *rbac.Session) {
		spatials := make([]srac.Constraint, 8)
		for i := range spatials {
			spatials[i] = randomSpatial(r, 1+r.Intn(3))
		}
		e := NewEngine(temporal.NewSimClock(0))
		for _, step := range []error{
			e.RBAC.AddUser("o1"),
			e.RBAC.AddRole("r"),
			e.RBAC.AssignUserRole("o1", "r"),
		} {
			if step != nil {
				t.Fatal(step)
			}
		}
		for i, sp := range spatials {
			id := rbac.PermID(fmt.Sprintf("p%d", i))
			if err := e.DefinePermission(PermSpec{
				Perm:    rbac.Permission{ID: id, Op: "read", Resource: model.ResourceID(fmt.Sprintf("f%d", i))},
				Spatial: sp,
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.RBAC.GrantPermission("r", id); err != nil {
				t.Fatal(err)
			}
		}
		if profiled {
			e.EnableCostProfiling()
		}
		sess, err := e.RBAC.CreateSession("o1")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.ActivateRole("r"); err != nil {
			t.Fatal(err)
		}
		return e, sess
	}
	eA, sessA := build(r1, true)
	eB, sessB := build(r2, false)

	pool := []model.Access{
		model.NewAccess("o1", "read", "f1", "s1"),
		model.NewAccess("o1", "write", "f2", "s1"),
		model.NewAccess("o1", "read", "f3", "s2"),
	}
	prog := sral.MustParse("read f1 @ s1; read f3 @ s2")
	drive := rand.New(rand.NewSource(457))
	for step := 0; step < 200; step++ {
		var hist trace.Trace
		for j := 0; j < drive.Intn(5); j++ {
			hist = append(hist, pool[drive.Intn(len(pool))])
		}
		a := model.NewAccess("o1", "read", model.ResourceID(fmt.Sprintf("f%d", drive.Intn(8))), "s1")
		var p sral.Node
		if drive.Intn(3) == 0 {
			p = prog
		}
		dA := eA.Authorize(Request{Session: sessA, Access: a, History: hist, Program: p})
		dB := eB.Authorize(Request{Session: sessB, Access: a, History: hist, Program: p})
		// The HLC stamp carries physical time; everything the caller
		// acts on must match bit for bit.
		dA.HLC, dB.HLC = hlc.Timestamp{}, hlc.Timestamp{}
		dA.ID, dB.ID = "", ""
		if !reflect.DeepEqual(dA, dB) {
			t.Fatalf("step %d: profiled decision diverges:\n with: %+v\n sans: %+v", step, dA, dB)
		}
		if dA.Granted {
			eA.RecordGrant(a)
			eB.RecordGrant(a)
		}
	}
	var evals int64
	for _, cc := range eA.CostReport().Clauses {
		evals += cc.Evals
	}
	if evals == 0 {
		t.Fatal("profiled engine collected nothing — A/B compared an idle profiler")
	}
}
