package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// testEngine builds an engine with one mobile-object user holding the
// auditor role, one permission covering reads of f1 anywhere, guarded
// by the given spec fields.
func testEngine(t *testing.T, spatial srac.Constraint, dur float64, scheme temporal.Scheme) (*Engine, *rbac.Session, *temporal.SimClock) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	if err := e.RBAC.AddUser("o1"); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.AddRole("auditor"); err != nil {
		t.Fatal(err)
	}
	if err := e.DefinePermission(PermSpec{
		Perm:     rbac.Permission{ID: "p-read-f1", Op: "read", Resource: "f1"},
		Spatial:  spatial,
		Duration: dur,
		Scheme:   scheme,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.GrantPermission("auditor", "p-read-f1"); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.AssignUserRole("o1", "auditor"); err != nil {
		t.Fatal(err)
	}
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("auditor"); err != nil {
		t.Fatal(err)
	}
	return e, sess, clk
}

func req(sess *rbac.Session, a model.Access) Request {
	return Request{Session: sess, Access: a}
}

func TestAuthorizeBasicGrant(t *testing.T) {
	e, sess, _ := testEngine(t, nil, 0, temporal.GlobalBase)
	d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s1")))
	if !d.Granted {
		t.Fatalf("denied: %s", d)
	}
	if d.Perm != "p-read-f1" || d.Temporal != temporal.Valid {
		t.Fatalf("decision = %+v", d)
	}
	if !strings.Contains(d.String(), "GRANT") {
		t.Fatalf("String = %q", d.String())
	}
}

func TestAuthorizeDeniesWithoutSessionOrPermission(t *testing.T) {
	e, sess, _ := testEngine(t, nil, 0, temporal.GlobalBase)
	d := e.Authorize(Request{Access: model.NewAccess("o1", "read", "f1", "s1")})
	if d.Granted || !strings.Contains(d.Reason, "session") {
		t.Fatalf("no-session decision = %+v", d)
	}
	d = e.Authorize(req(sess, model.NewAccess("o1", "write", "f1", "s1")))
	if d.Granted || !strings.Contains(d.Reason, "no active role") {
		t.Fatalf("uncovered access decision = %+v", d)
	}
	d = e.Authorize(req(sess, model.Access{Object: "o1"}))
	if d.Granted {
		t.Fatalf("malformed access granted: %+v", d)
	}
}

func TestAuthorizeDeniesInactiveRole(t *testing.T) {
	e, sess, _ := testEngine(t, nil, 0, temporal.GlobalBase)
	sess.DeactivateRole("auditor")
	d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s1")))
	if d.Granted {
		t.Fatal("granted without active role")
	}
}

func TestAuthorizeSpatialCountCeiling(t *testing.T) {
	// The Example 3.5 rule: at most 5 accesses to f1 anywhere.
	spatial := srac.AtMost(5, model.Selector{Resources: []model.ResourceID{"f1"}})
	e, sess, _ := testEngine(t, spatial, 0, temporal.GlobalBase)
	var history trace.Trace
	a := model.NewAccess("o1", "read", "f1", "s1")
	for i := 0; i < 5; i++ {
		d := e.Authorize(Request{Session: sess, Access: a, History: history})
		if !d.Granted {
			t.Fatalf("access %d denied: %s", i+1, d)
		}
		history = history.Concat(trace.Trace{a})
	}
	d := e.Authorize(Request{Session: sess, Access: a, History: history})
	if d.Granted {
		t.Fatal("6th access granted despite count ceiling")
	}
	if d.Spatial != srac.Violated {
		t.Fatalf("spatial status = %v", d.Spatial)
	}
	if !strings.Contains(d.Reason, "spatial") {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestAuthorizeSpatialCountAcrossServers(t *testing.T) {
	// Coordination: accesses on s1 count against the limit enforced
	// when the object later requests at s2.
	spatial := srac.AtMost(2, model.Selector{Resources: []model.ResourceID{"f1"}})
	e, sess, _ := testEngine(t, spatial, 0, temporal.GlobalBase)
	history := trace.Trace{
		model.NewAccess("o1", "read", "f1", "s1"),
		model.NewAccess("o1", "read", "f1", "s1"),
	}
	d := e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "f1", "s2"), History: history})
	if d.Granted {
		t.Fatal("cross-server ceiling not enforced")
	}
}

func TestAuthorizeSpatialOrdering(t *testing.T) {
	// f1 may be read only after dep was read (module dependency rule).
	dep := model.Access{Op: "read", Resource: "dep"}
	f1 := model.Access{Op: "read", Resource: "f1"}
	spatial := srac.Implies(srac.Require(f1), srac.Before(dep, f1))
	e, sess, _ := testEngine(t, spatial, 0, temporal.GlobalBase)

	// Without dep in history: [f1] is satisfied by the hypothetical
	// access, dep ⊗ f1 is pending → not violated → granted (the
	// ordering can still be witnessed later; the paper's check only
	// denies irreversible violations).
	d := e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "f1", "s1")})
	if !d.Granted {
		t.Fatalf("pending ordering denied: %s", d)
	}
	// A program that never reads dep can never satisfy the ordering:
	// statically rejected.
	prog := sral.MustParse("read f1 @ s1")
	d = e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "f1", "s1"), Program: prog})
	if d.Granted {
		t.Fatal("program that cannot satisfy constraint was granted")
	}
	if d.ProgramVerdict != srac.NoTrace {
		t.Fatalf("program verdict = %v", d.ProgramVerdict)
	}
	// A program that reads dep first is fine.
	good := sral.MustParse("read dep @ s1; read f1 @ s1")
	hist := trace.Trace{model.NewAccess("o1", "read", "dep", "s1")}
	d = e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "f1", "s1"), Program: good, History: hist})
	if !d.Granted {
		t.Fatalf("valid ordered access denied: %s", d)
	}
}

func TestAuthorizeTemporalExpiry(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 10, temporal.GlobalBase)
	a := model.NewAccess("o1", "read", "f1", "s1")
	e.ObjectArrived("o1", "s1")
	e.ActivatePermissions(sess, "o1")
	if d := e.Authorize(req(sess, a)); !d.Granted {
		t.Fatalf("denied before expiry: %s", d)
	}
	clk.Advance(9)
	if d := e.Authorize(req(sess, a)); !d.Granted {
		t.Fatalf("denied at 9s of 10s budget: %s", d)
	}
	clk.Advance(2)
	d := e.Authorize(req(sess, a))
	if d.Granted {
		t.Fatal("granted after validity duration expired")
	}
	if d.Temporal != temporal.ActiveInvalid {
		t.Fatalf("temporal state = %v", d.Temporal)
	}
	if !strings.Contains(d.Reason, "active-but-invalid") {
		t.Fatalf("reason = %q", d.Reason)
	}
}

func TestAuthorizePerServerSchemeResetsBudget(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 10, temporal.PerServerBase)
	a := model.NewAccess("o1", "read", "f1", "s1")
	e.ObjectArrived("o1", "s1")
	e.ActivatePermissions(sess, "o1")
	clk.Advance(11)
	if d := e.Authorize(req(sess, a)); d.Granted {
		t.Fatal("granted after per-server budget expired")
	}
	// Migrate: fresh budget on the new server.
	e.ObjectArrived("o1", "s2")
	e.ActivatePermissions(sess, "o1")
	a2 := model.NewAccess("o1", "read", "f1", "s2")
	if d := e.Authorize(req(sess, a2)); !d.Granted {
		t.Fatalf("denied after per-server reset: %s", d)
	}
}

func TestAuthorizeGlobalSchemeSpansServers(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 10, temporal.GlobalBase)
	e.ObjectArrived("o1", "s1")
	e.ActivatePermissions(sess, "o1")
	clk.Advance(8)
	e.ObjectArrived("o1", "s2") // must not reset
	clk.Advance(4)
	d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s2")))
	if d.Granted {
		t.Fatal("global budget not enforced across servers")
	}
}

func TestDeactivatePausesTemporalAccumulation(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 10, temporal.GlobalBase)
	e.ActivatePermissions(sess, "o1")
	clk.Advance(5)
	e.DeactivatePermissions(sess, "o1")
	clk.Advance(100)
	e.ActivatePermissions(sess, "o1")
	d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s1")))
	if !d.Granted {
		t.Fatalf("denied after pause despite remaining budget: %s", d)
	}
	if got := e.RemainingValidity("o1", "p-read-f1"); got > 5.01 || got < 4.9 {
		t.Fatalf("remaining = %v", got)
	}
}

func TestPermissionStateAndRemaining(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 10, temporal.GlobalBase)
	if s := e.PermissionState("o1", "p-read-f1"); s != temporal.Inactive {
		t.Fatalf("initial state = %v", s)
	}
	if r := e.RemainingValidity("o1", "p-read-f1"); r != 10 {
		t.Fatalf("initial remaining = %v", r)
	}
	if r := e.RemainingValidity("o1", "unknown-perm"); r != 0 {
		t.Fatalf("unknown perm remaining = %v", r)
	}
	e.ActivatePermissions(sess, "o1")
	clk.Advance(3)
	if s := e.PermissionState("o1", "p-read-f1"); s != temporal.Valid {
		t.Fatalf("active state = %v", s)
	}
	if r := e.RemainingValidity("o1", "p-read-f1"); r != 7 {
		t.Fatalf("remaining = %v", r)
	}
}

func TestDefinePermissionValidation(t *testing.T) {
	e := NewEngine(nil)
	err := e.DefinePermission(PermSpec{
		Perm:    rbac.Permission{ID: "bad"},
		Spatial: srac.Count{Min: 5, Max: 1},
	})
	if err == nil {
		t.Fatal("invalid spatial constraint accepted")
	}
	if err := e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: "ok"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: "ok"}}); !errors.Is(err, rbac.ErrExists) {
		t.Fatalf("duplicate spec: %v", err)
	}
	if _, err := e.Spec("ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Spec("missing"); !errors.Is(err, ErrNoSpec) {
		t.Fatalf("missing spec: %v", err)
	}
}

func TestAuthorizeWithoutSpecIsUnconstrained(t *testing.T) {
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	if err := e.RBAC.AddUser("o1"); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.AddRole("r"); err != nil {
		t.Fatal(err)
	}
	// Registered directly on the RBAC layer, bypassing DefinePermission.
	if err := e.RBAC.AddPermission(rbac.Permission{ID: "raw", Op: "read", Resource: "f1"}); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.GrantPermission("r", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.AssignUserRole("o1", "r"); err != nil {
		t.Fatal(err)
	}
	sess, _ := e.RBAC.CreateSession("o1")
	if err := sess.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s1")))
	if !d.Granted {
		t.Fatalf("raw permission denied: %s", d)
	}
	clk.Advance(1e9)
	if d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s1"))); !d.Granted {
		t.Fatal("time-insensitive raw permission expired")
	}
}

func TestSpatialModeString(t *testing.T) {
	if Admissible.String() != "admissible" || Strict.String() != "strict" {
		t.Fatal("mode strings")
	}
}

func TestAuthorizeStrictModeGatesOnPriorAccess(t *testing.T) {
	// o1 may read the plan only AFTER having read the briefing:
	// strict mode requires the post-state trace to satisfy the
	// ordering now, not eventually.
	briefing := model.Access{Op: "read", Resource: "briefing"}
	plan := model.Access{Op: "read", Resource: "plan"}
	spatial := srac.Before(briefing, plan)

	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{
			Perm:    rbac.Permission{ID: "p-plan", Op: "read", Resource: "plan"},
			Spatial: spatial,
			Mode:    Strict,
		}),
		e.DefinePermission(PermSpec{
			Perm: rbac.Permission{ID: "p-briefing", Op: "read", Resource: "briefing"},
		}),
		e.RBAC.GrantPermission("r", "p-plan"),
		e.RBAC.GrantPermission("r", "p-briefing"),
		e.RBAC.AssignUserRole("o1", "r"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	sess, _ := e.RBAC.CreateSession("o1")
	if err := sess.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	// Without the briefing in history: denied (pending, strict).
	d := e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "plan", "s1")})
	if d.Granted {
		t.Fatal("strict mode granted an ungated access")
	}
	if !strings.Contains(d.Reason, "strict") {
		t.Fatalf("reason = %q", d.Reason)
	}
	// After the briefing: granted.
	hist := trace.Trace{model.NewAccess("o1", "read", "briefing", "s2")}
	d = e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "plan", "s1"), History: hist})
	if !d.Granted {
		t.Fatalf("strict mode denied a gated access with satisfied guard: %s", d)
	}
}

func TestPolicyModeDirective(t *testing.T) {
	e := NewEngine(nil)
	policy := `
permission p read f @ * {
    spatial [read g @ *] >> [read f @ *]
    mode strict
}
`
	if err := LoadPolicyString(e, policy); err != nil {
		t.Fatal(err)
	}
	ps, err := e.Spec("p")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Mode != Strict {
		t.Fatalf("mode = %v", ps.Mode)
	}
	if err := LoadPolicyString(NewEngine(nil), "permission q read f @ * {\nmode sometimes\n}"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestAuthorizeConcurrent(t *testing.T) {
	spatial := srac.AtMost(1000000, model.Selector{Ops: []model.Operation{"read"}})
	e, sess, _ := testEngine(t, spatial, 1e9, temporal.GlobalBase)
	e.EnableCostProfiling()
	rec := record.New(record.Config{Capacity: 2048, Registry: obs.NewRegistry()})
	e.SetRecorder(rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := model.NewAccess("o1", "read", "f1", "s1")
			for i := 0; i < 200; i++ {
				if d := e.Authorize(Request{Session: sess, Access: a}); !d.Granted {
					t.Errorf("concurrent authorize denied: %s", d)
					return
				}
				e.RecordGrant(a)
				e.PermissionState("o1", "p-read-f1")
				e.RemainingValidity("o1", "p-read-f1")
			}
		}()
	}
	wg.Wait()
	// All 1600 decisions counted by the profiler, and all 1600 grants
	// by the recorder.
	if rows := e.CostReport().Clauses; len(rows) != 1 || rows[0].Evals != 1600 {
		t.Fatalf("clause rows = %+v, want one row of 1600 evals", rows)
	}
	grants := 0
	for _, r := range rec.Records() {
		if r.Kind == record.KindGrant {
			grants++
		}
	}
	if grants != 1600 {
		t.Fatalf("grant records = %d, want 1600", grants)
	}
}
