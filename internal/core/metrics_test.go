package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// negEngine builds an engine whose single permission carries the
// negated ceiling ¬#(0, max, σ[rsw]) — the constraint shape the old
// negate handled unsoundly.
func negEngine(t *testing.T, max int, mode SpatialMode) (*Engine, *rbac.Session) {
	t.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	sel := model.Selector{Resources: []model.ResourceID{"rsw"}}
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{
			Perm:    rbac.Permission{ID: "p-rsw", Op: "execute", Resource: "rsw"},
			Spatial: srac.Not{C: srac.Count{Min: 0, Max: max, Sel: sel}},
			Mode:    mode,
		}),
		e.RBAC.GrantPermission("r", "p-rsw"),
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
	return e, sess
}

func TestAuthorizeNegatedCountAdmissible(t *testing.T) {
	// ¬#(0, 2, σ) in Admissible mode: with the post-state count inside
	// [0, 2] the constraint is Pending (a later access can cross the
	// ceiling), so the request must be GRANTED. The old negate called
	// it Violated and denied.
	e, sess := negEngine(t, 2, Admissible)
	a := model.NewAccess("o1", "execute", "rsw", "s1")
	var hist trace.Trace
	for i := 0; i < 3; i++ {
		d := e.Authorize(Request{Session: sess, Access: a, History: hist})
		if !d.Granted {
			t.Fatalf("access %d denied under sound negation: %s", i+1, d)
		}
		hist = hist.Concat(trace.Trace{a})
	}
}

func TestAuthorizeNegatedCountStrict(t *testing.T) {
	// Strict mode gates on actual satisfaction: ¬#(0, 1, σ) holds only
	// once the count exceeds 1.
	e, sess := negEngine(t, 1, Strict)
	a := model.NewAccess("o1", "execute", "rsw", "s1")

	d := e.Authorize(Request{Session: sess, Access: a})
	if d.Granted {
		t.Fatalf("strict grant while negation unsatisfied: %s", d)
	}
	if d.Deny != DenySpatialStrict {
		t.Fatalf("deny reason = %q, want %q (not an irreversible violation)", d.Deny, DenySpatialStrict)
	}
	if d.Spatial == srac.Violated {
		t.Fatal("in-range negated count reported as violated")
	}

	// With two prior executions the post-state count is 3 > 1: the
	// negation is actually satisfied and strict mode grants.
	hist := trace.Trace{a, a}
	d = e.Authorize(Request{Session: sess, Access: a, History: hist})
	if !d.Granted {
		t.Fatalf("strict denial after ceiling crossed: %s", d)
	}
}

func TestAuthorizeDenyReasons(t *testing.T) {
	e, sess := negEngine(t, 1, Strict)
	valid := model.NewAccess("o1", "execute", "rsw", "s1")

	tests := []struct {
		name string
		req  Request
		want DenyReason
	}{
		{"no session", Request{Access: valid}, DenyNoSession},
		{"invalid access", Request{Session: sess, Access: model.Access{}}, DenyInvalidAccess},
		{"rbac miss", Request{Session: sess, Access: model.NewAccess("o1", "read", "other", "s1")}, DenyRBAC},
		{"spatial strict", Request{Session: sess, Access: valid}, DenySpatialStrict},
	}
	for _, tt := range tests {
		d := e.Authorize(tt.req)
		if d.Granted {
			t.Fatalf("%s: granted", tt.name)
		}
		if d.Deny != tt.want {
			t.Errorf("%s: deny = %q, want %q", tt.name, d.Deny, tt.want)
		}
	}
	// A grant carries no deny reason.
	e2, sess2 := negEngine(t, 1, Admissible)
	if d := e2.Authorize(Request{Session: sess2, Access: valid}); !d.Granted || d.Deny != DenyNone {
		t.Fatalf("grant carries deny reason: %s (deny=%q)", d, d.Deny)
	}
}

// TestAuthorizeMetricsReconcile hammers one engine from many
// goroutines with a grant/deny mix and asserts the decision counters
// reconcile EXACTLY with the decisions returned — no drops, no double
// counts. Run under -race this also exercises the shrunken critical
// sections of ActivatePermissions and the lock-free metrics path.
func TestAuthorizeMetricsReconcile(t *testing.T) {
	e := NewEngine(temporal.NewSimClock(0))
	reg := obs.NewRegistry()
	e.SetObs(reg)
	sel := model.Selector{Resources: []model.ResourceID{"rsw"}}
	const workers = 8
	for _, step := range []error{
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{
			Perm:    rbac.Permission{ID: "p-rsw", Op: "execute", Resource: "rsw"},
			Spatial: srac.AtMost(4, sel),
		}),
		e.RBAC.GrantPermission("r", "p-rsw"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	sessions := make([]*rbac.Session, workers)
	for i := range sessions {
		user := rbac.UserID(fmt.Sprintf("o%d", i))
		if err := e.RBAC.AddUser(user); err != nil {
			t.Fatal(err)
		}
		if err := e.RBAC.AssignUserRole(user, "r"); err != nil {
			t.Fatal(err)
		}
		sess, err := e.RBAC.CreateSession(user)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.ActivateRole("r"); err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}

	const perWorker = 200
	var granted, denied atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := sessions[i]
			obj := model.ObjectID(fmt.Sprintf("o%d", i))
			var hist trace.Trace
			for j := 0; j < perWorker; j++ {
				e.ActivatePermissions(sess, obj)
				var req Request
				switch j % 4 {
				case 0: // within the ceiling early, over it later: both outcomes
					req = Request{Session: sess,
						Access: model.NewAccess(obj, "execute", "rsw", "s1"), History: hist}
				case 1: // RBAC miss
					req = Request{Session: sess,
						Access: model.NewAccess(obj, "read", "other", "s1")}
				case 2: // unauthenticated
					req = Request{Access: model.NewAccess(obj, "execute", "rsw", "s1")}
				default: // invalid access
					req = Request{Session: sess, Access: model.Access{}}
				}
				d := e.Authorize(req)
				if d.Granted {
					granted.Add(1)
					hist = hist.Concat(trace.Trace{req.Access})
				} else {
					denied.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if g := granted.Load() + denied.Load(); g != total {
		t.Fatalf("decisions observed = %d, want %d", g, total)
	}
	if got := reg.CounterValue("stac_authz_granted_total", ""); got != granted.Load() {
		t.Fatalf("granted counter = %d, decisions granted = %d", got, granted.Load())
	}
	if got := reg.SumCounters("stac_authz_denied_total"); got != denied.Load() {
		t.Fatalf("denied counters = %d, decisions denied = %d", got, denied.Load())
	}
	if got := reg.HistogramCount("stac_authz_seconds", ""); got != total {
		t.Fatalf("latency histogram count = %d, want %d", got, total)
	}
	// Every worker granted at least the first 5 rsw accesses (ceiling
	// 4 + the in-flight one) and was then cut off, so both outcome
	// classes are genuinely exercised.
	if granted.Load() == 0 || denied.Load() == 0 {
		t.Fatalf("degenerate mix: granted=%d denied=%d", granted.Load(), denied.Load())
	}
}
