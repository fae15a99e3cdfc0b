package core

// Differential oracle for the engine's temporal state. refTracker is
// the per-(object, permission) validity tracker the engine kept before
// it kept temporal state by session, unchanged. refEngine drives one
// refTracker per temporal key exactly as that engine did: a loop over
// the session's permissions on every activation and departure, a loop
// over the object's trackers on every arrival, a lazy Activate on every
// decision that reaches the temporal check, and creation on first use.
// FuzzTemporalAgreement drives both through one sequence of arrivals,
// activations, departures, decisions, budget samples and clock steps
// and requires identical answers.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/rbac"
	"stac/internal/temporal"
)

// refTracker enforces the temporal constraint of Expression 4.1 for one
// (permission, mobile object) pair:
//
//	valid(perm, t) = 1  ⇔  active(perm, t) = 1 ∧
//	                       ∫_{t_b}^{t} valid(perm, u) du ≤ dur(perm)
//
// It records the valid-state function as the permission is activated
// and deactivated, integrates it exactly, and reports the permission
// state (inactive / active-but-invalid / valid) at any time. A refTracker
// is safe for concurrent use.
type refTracker struct {
	mu sync.Mutex
	// budget is dur(perm): the validity duration.
	budget float64
	scheme temporal.Scheme

	// valid is the recorded valid-state function on the object's time
	// line (for the current epoch under PerServerBase).
	valid temporal.State
	// accumulated is the integral of valid over closed activations in
	// the current epoch.
	accumulated float64
	active      bool
	activeSince float64
	// baseSet records whether t_b has been established.
	baseSet bool
	base    float64
}

// newRefTracker creates a tracker for a permission with validity duration
// dur (seconds; Infinite for time-insensitive resources) under the
// given base-time scheme.
func newRefTracker(dur float64, scheme temporal.Scheme) *refTracker {
	if dur < 0 {
		dur = 0
	}
	return &refTracker{budget: dur, scheme: scheme}
}

// Budget returns dur(perm).
func (tr *refTracker) Budget() float64 { return tr.budget }

// Scheme returns the tracker's base-time scheme.
func (tr *refTracker) Scheme() temporal.Scheme { return tr.scheme }

// ArriveServer records the mobile object's arrival at a server at time
// now. Under PerServerBase this starts a new epoch: the base time and
// the accumulated valid duration reset, so the permission's budget
// applies to each server independently. Under GlobalBase only the
// first arrival establishes t_b.
func (tr *refTracker) ArriveServer(now float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.scheme == temporal.PerServerBase {
		// Close any open activation into the old epoch, then reset.
		tr.closeActivationLocked(now)
		tr.valid = temporal.State{}
		tr.accumulated = 0
		tr.base = now
		tr.baseSet = true
		return
	}
	if !tr.baseSet {
		tr.base = now
		tr.baseSet = true
	}
}

// Activate marks the permission active at time now (role assigned and
// activated in a session, spatial constraints satisfied). Activating
// an already-active tracker is a no-op.
func (tr *refTracker) Activate(now float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.baseSet {
		tr.base = now
		tr.baseSet = true
	}
	if tr.active {
		return
	}
	tr.active = true
	tr.activeSince = now
}

// Deactivate marks the permission inactive at time now (role
// deactivated or session ended), closing the current valid period.
func (tr *refTracker) Deactivate(now float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.closeActivationLocked(now)
}

func (tr *refTracker) closeActivationLocked(now float64) {
	if !tr.active {
		return
	}
	if now > tr.activeSince {
		// Only time spent within budget counts as valid state; once
		// the integral reaches dur(perm) the state is
		// active-but-invalid and contributes nothing.
		validUntil := tr.activeSince + math.Max(0, tr.budget-tr.accumulated)
		end := math.Min(now, validUntil)
		if end > tr.activeSince {
			tr.valid.SetOn(tr.activeSince, end)
			tr.accumulated += end - tr.activeSince
		}
	}
	tr.active = false
}

// accumulatedAt returns ∫_{t_b}^{now} valid dt without mutating state.
func (tr *refTracker) accumulatedAt(now float64) float64 {
	acc := tr.accumulated
	if tr.active && now > tr.activeSince {
		open := now - tr.activeSince
		remaining := math.Max(0, tr.budget-tr.accumulated)
		acc += math.Min(open, remaining)
	}
	return acc
}

// StateAt returns the permission state at time now.
func (tr *refTracker) StateAt(now float64) temporal.PermState {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.active {
		return temporal.Inactive
	}
	if tr.accumulatedAt(now) >= tr.budget && tr.budget != temporal.Infinite {
		return temporal.ActiveInvalid
	}
	return temporal.Valid
}

// ValidAt reports valid(perm, now) — Expression 4.1.
func (tr *refTracker) ValidAt(now float64) bool { return tr.StateAt(now) == temporal.Valid }

// Remaining returns the unused validity duration at time now
// (Infinite for time-insensitive permissions).
func (tr *refTracker) Remaining(now float64) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.budget == temporal.Infinite {
		return temporal.Infinite
	}
	return math.Max(0, tr.budget-tr.accumulatedAt(now))
}

// Accumulated returns ∫_{t_b}^{now} valid(perm, u) du.
func (tr *refTracker) Accumulated(now float64) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.accumulatedAt(now)
}

// ExpiryAt returns the absolute time at which an active permission
// becomes invalid if it stays active, and whether such a time exists
// (false when inactive or time-insensitive).
func (tr *refTracker) ExpiryAt(now float64) (float64, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.active || tr.budget == temporal.Infinite {
		return 0, false
	}
	remaining := math.Max(0, tr.budget-tr.accumulatedAt(now))
	return now + remaining, true
}

// ValidState returns a copy of the recorded valid-state function
// (current epoch), closed off at time now — the input to
// duration-calculus queries.
func (tr *refTracker) ValidState(now float64) *temporal.State {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := tr.valid.Clone()
	if tr.active && now > tr.activeSince {
		validUntil := tr.activeSince + math.Max(0, tr.budget-tr.accumulated)
		end := math.Min(now, validUntil)
		if end > tr.activeSince {
			st.SetOn(tr.activeSince, end)
		}
	}
	return st
}

// Base returns the established base time t_b and whether it is set.
func (tr *refTracker) Base() (float64, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.base, tr.baseSet
}

// String summarises the tracker for diagnostics.
func (tr *refTracker) String() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return fmt.Sprintf("tracker{dur=%.6g scheme=%s active=%v accumulated=%.6g}",
		tr.budget, tr.scheme, tr.active, tr.accumulated)
}

// refObject is the per-object state the tracker-based engine kept.
type refObject struct {
	trackers    map[rbac.PermID]*refTracker
	budgets     map[rbac.PermID]*obs.TimeSeries
	lastArrival float64
	hasArrived  bool
}

// refEngine replays the tracker-based engine's temporal paths; e
// supplies the policy and the clock.
type refEngine struct {
	e    *Engine
	objs map[model.ObjectID]*refObject
}

func (r *refEngine) objState(obj model.ObjectID) *refObject {
	os, ok := r.objs[obj]
	if !ok {
		os = &refObject{
			trackers: make(map[rbac.PermID]*refTracker),
			budgets:  make(map[rbac.PermID]*obs.TimeSeries),
		}
		r.objs[obj] = os
	}
	return os
}

func (s *refObject) trackerLocked(key rbac.PermID, dur float64, scheme temporal.Scheme) *refTracker {
	tr, ok := s.trackers[key]
	if !ok {
		tr = newRefTracker(dur, scheme)
		if s.hasArrived {
			tr.ArriveServer(s.lastArrival)
		}
		s.trackers[key] = tr
	}
	return tr
}

func (r *refEngine) ObjectArrived(obj model.ObjectID) {
	now := r.e.clock.Now()
	os := r.objState(obj)
	os.lastArrival = now
	os.hasArrived = true
	for _, tr := range os.trackers {
		tr.ArriveServer(now)
	}
}

func (r *refEngine) sessionTrackers(sess *rbac.Session, obj model.ObjectID) []*refTracker {
	os := r.objState(obj)
	var trs []*refTracker
	for _, p := range sess.Permissions() {
		_, tk, _ := r.e.lookup(p)
		trs = append(trs, os.trackerLocked(tk.key, tk.dur, tk.scheme))
	}
	return trs
}

func (r *refEngine) ActivatePermissions(sess *rbac.Session, obj model.ObjectID) {
	now := r.e.clock.Now()
	for _, tr := range r.sessionTrackers(sess, obj) {
		tr.Activate(now)
	}
}

func (r *refEngine) DeactivatePermissions(sess *rbac.Session, obj model.ObjectID) {
	now := r.e.clock.Now()
	for _, tr := range r.sessionTrackers(sess, obj) {
		tr.Deactivate(now)
	}
}

// decide is the temporal part of a decision on a policy without
// spatial constraints: the RBAC lookup, then the lazy activation and
// the Expression 4.1 check with its denial explanation.
func (r *refEngine) decide(sess *rbac.Session, a model.Access) (temporal.PermState, DenyReason, string, *TemporalExplanation) {
	perm, ok := sess.PermissionFor(a)
	if !ok {
		return temporal.Inactive, DenyRBAC, "", nil
	}
	_, tk, _ := r.e.lookup(perm)
	tr := r.objState(a.Object).trackerLocked(tk.key, tk.dur, tk.scheme)
	now := r.e.clock.Now()
	tr.Activate(now)
	st := tr.StateAt(now)
	if st == temporal.Valid {
		return st, DenyNone, "", nil
	}
	deny := DenyTemporalInactive
	if st == temporal.ActiveInvalid {
		deny = DenyTemporalExhausted
	}
	reason := fmt.Sprintf("permission %q is %s (validity duration %.6gs, scheme %s)",
		perm.ID, st, tk.dur, tk.scheme)
	budget := tk.dur
	if budget == temporal.Infinite {
		budget = -1
	}
	remaining := tr.Remaining(now)
	if remaining == temporal.Infinite {
		remaining = -1
	}
	return st, deny, reason, &TemporalExplanation{
		Consumed:  tr.Accumulated(now),
		Budget:    budget,
		Remaining: remaining,
		Scheme:    tk.scheme.String(),
	}
}

func (r *refEngine) trackerFor(obj model.ObjectID, id rbac.PermID) (*refTracker, float64, bool) {
	_, tk, _ := r.e.lookup(rbac.Permission{ID: id})
	os, found := r.objs[obj]
	if !found {
		return nil, tk.dur, false
	}
	tr, ok := os.trackers[tk.key]
	return tr, tk.dur, ok
}

func (r *refEngine) PermissionState(obj model.ObjectID, id rbac.PermID) temporal.PermState {
	tr, _, ok := r.trackerFor(obj, id)
	if !ok {
		return temporal.Inactive
	}
	return tr.StateAt(r.e.clock.Now())
}

func (r *refEngine) RemainingValidity(obj model.ObjectID, id rbac.PermID) float64 {
	tr, dur, ok := r.trackerFor(obj, id)
	if !ok {
		if _, err := r.e.Spec(id); err != nil {
			return 0
		}
		return dur
	}
	return tr.Remaining(r.e.clock.Now())
}

func (r *refEngine) ClassRemaining(obj model.ObjectID, id ClassID) float64 {
	var c Class
	var ok bool
	for _, cl := range r.e.Classes() {
		if cl.ID == id {
			c, ok = cl, true
		}
	}
	if !ok {
		return 0
	}
	os, found := r.objs[obj]
	if !found {
		return c.duration()
	}
	tr, ok := os.trackers[classPermKey(id)]
	if !ok {
		return c.duration()
	}
	return tr.Remaining(r.e.clock.Now())
}

func (r *refEngine) SampleBudgets(tail int) []BudgetStatus {
	now := r.e.clock.Now()
	var out []BudgetStatus
	for obj, os := range r.objs {
		for perm, tr := range os.trackers {
			if tr.Budget() == temporal.Infinite {
				continue
			}
			ts, ok := os.budgets[perm]
			if !ok {
				ts = obs.NewTimeSeries(budgetSeriesCapacity)
				os.budgets[perm] = ts
			}
			consumed := tr.Accumulated(now)
			ts.Append(now, consumed)
			window := ts.Samples()

			st := BudgetStatus{
				Object:    string(obj),
				Perm:      string(perm),
				Scheme:    tr.Scheme().String(),
				State:     tr.StateAt(now).String(),
				Consumed:  consumed,
				Budget:    tr.Budget(),
				Remaining: tr.Remaining(now),
				ETA:       -1,
				At:        now,
			}
			if rate, ok := obs.Rate(window); ok && rate > 0 {
				st.BurnRate = rate
				if st.Remaining > 0 {
					st.ETA = st.Remaining / rate
				} else {
					st.ETA = 0
				}
			} else if st.Remaining == 0 {
				st.ETA = 0
			}
			switch {
			case tail < 0:
				st.Series = window
			case tail > 0 && len(window) > tail:
				st.Series = window[len(window)-tail:]
			case tail > 0:
				st.Series = window
			}
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Perm < out[j].Perm
	})
	return out
}

// oracle fixture: ten permissions over both schemes with budgets 0
// (a negative duration, clamped), finite and ∞, two of them pooled in
// a per-server class and two in a global one; four roles conferring
// overlapping subsets; six sessions of one user with different role
// sets, the last with none.
var (
	oraclePerms = []PermSpec{
		{Perm: rbac.Permission{ID: "p0", Op: "read", Resource: "f0"}, Duration: 10, Scheme: temporal.GlobalBase},
		{Perm: rbac.Permission{ID: "p1", Op: "read", Resource: "f1"}, Duration: 10, Scheme: temporal.PerServerBase},
		{Perm: rbac.Permission{ID: "p2", Op: "read", Resource: "f2"}, Duration: 3, Scheme: temporal.GlobalBase},
		{Perm: rbac.Permission{ID: "p3", Op: "read", Resource: "f3"}, Duration: -1, Scheme: temporal.PerServerBase},
		{Perm: rbac.Permission{ID: "p4", Op: "read", Resource: "f4"}, Duration: 2},
		{Perm: rbac.Permission{ID: "p5", Op: "read", Resource: "f5"}},
		{Perm: rbac.Permission{ID: "p6", Op: "read", Resource: "f6"}, Scheme: temporal.GlobalBase},
		{Perm: rbac.Permission{ID: "p7", Op: "read", Resource: "f7"}, Scheme: temporal.PerServerBase},
		{Perm: rbac.Permission{ID: "p8", Op: "read", Resource: "f8"}, Duration: 4, Scheme: temporal.PerServerBase},
		{Perm: rbac.Permission{ID: "p9", Op: "read", Resource: "f9"}},
	}
	oracleClasses = []Class{
		{ID: "cA", Members: []rbac.PermID{"p4", "p5"}, Duration: 5, Scheme: temporal.PerServerBase},
		{ID: "cB", Members: []rbac.PermID{"p8", "p9"}, Duration: 7, Scheme: temporal.GlobalBase},
	}
	oracleGrants = map[rbac.RoleID][]rbac.PermID{
		"r0": {"p0", "p1", "p4", "p6", "p8"},
		"r1": {"p2", "p3", "p5", "p7", "p9"},
		"r2": {"p0", "p2", "p4", "p5"},
		"r3": {"p1", "p3", "p8"},
	}
	oracleSessions = [][]rbac.RoleID{{"r0"}, {"r1"}, {"r0", "r1"}, {"r2"}, {"r3"}, {}}
	oracleObjects  = []model.ObjectID{"o1", "o2"}
)

func oracleEngine(tb testing.TB) (*Engine, *temporal.SimClock, []*rbac.Session) {
	tb.Helper()
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	e.SetObs(obs.NewRegistry())
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(e.RBAC.AddUser("u"))
	for _, ps := range oraclePerms {
		must(e.DefinePermission(ps))
	}
	for _, c := range oracleClasses {
		must(e.DefineClass(c))
	}
	for _, r := range []rbac.RoleID{"r0", "r1", "r2", "r3"} {
		must(e.RBAC.AddRole(r))
		for _, p := range oracleGrants[r] {
			must(e.RBAC.GrantPermission(r, p))
		}
		must(e.RBAC.AssignUserRole("u", r))
	}
	var sessions []*rbac.Session
	for _, roles := range oracleSessions {
		sess, err := e.RBAC.CreateSession("u")
		must(err)
		for _, r := range roles {
			must(sess.ActivateRole(r))
		}
		sessions = append(sessions, sess)
	}
	return e, clk, sessions
}

// oracle ops: one byte each, op = b % 6 and arg = b / 6; arg picks the
// session (arg % 6) and the object ((arg / 6) % 2), or the clock step
// (arg % 11 seconds). A decide takes the next byte as its access: a
// read of f0..f9, or an uncovered write.
const (
	opArrive = iota
	opActivate
	opDeactivate
	opDecide
	opSample
	opAdvance
)

func oracleOp(op, sess, obj int) byte { return byte(op + 6*(sess+6*obj)) }
func oracleStep(sec int) byte         { return byte(opAdvance + 6*sec) }

// FuzzTemporalAgreement pins the session-clock temporal state to the
// per-permission trackers it replaced: after every op, each decision's
// temporal state, denial and explanation, every permission's state and
// remaining validity, every class's remaining pool and the sampled
// budget rows must agree exactly. Clock steps are whole seconds, so
// the two float computations agree bit for bit.
func FuzzTemporalAgreement(f *testing.F) {
	arrive := oracleOp(opArrive, 0, 0)
	activate := oracleOp(opActivate, 0, 0)
	decide := oracleOp(opDecide, 0, 0)
	// The sequences of the engine-level boundary tests: the exact
	// global boundary, the per-server epoch reset at the boundary, and
	// the global budget surviving a migration.
	f.Add([]byte{arrive, activate, oracleStep(9), decide, 0, oracleStep(1), decide, 0})
	f.Add([]byte{arrive, activate, oracleStep(10), decide, 1, arrive, activate, decide, 1, oracleStep(10), decide, 1})
	f.Add([]byte{arrive, activate, oracleStep(6), arrive, activate, oracleStep(4), decide, 0})
	// Overlapping sessions with different role sets, a decision after
	// departure, and a per-server arrival without reactivation.
	f.Add([]byte{
		arrive, activate, oracleStep(2), oracleOp(opActivate, 2, 0), oracleStep(1),
		oracleOp(opDeactivate, 0, 0), oracleStep(3), oracleOp(opSample, 0, 0),
		oracleOp(opDecide, 2, 0), 3, oracleOp(opDeactivate, 2, 0), oracleStep(2),
		oracleOp(opDecide, 0, 0), 1, arrive, oracleStep(1), oracleOp(opDecide, 3, 0), 4,
		oracleOp(opActivate, 4, 0), oracleStep(5), oracleOp(opSample, 0, 0),
	})
	f.Add([]byte{
		oracleOp(opDecide, 1, 1), 2, oracleStep(1), oracleOp(opDeactivate, 3, 1),
		oracleOp(opActivate, 1, 1), oracleStep(4), oracleOp(opActivate, 3, 1), oracleStep(2),
		oracleOp(opArrive, 0, 1), oracleOp(opSample, 0, 0), oracleOp(opActivate, 5, 1),
		oracleOp(opDecide, 1, 1), 5, oracleStep(3), oracleOp(opSample, 0, 0),
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		e, clk, sessions := oracleEngine(t)
		ref := &refEngine{e: e, objs: make(map[model.ObjectID]*refObject)}
		for i := 0; i < len(ops); i++ {
			op, arg := int(ops[i]%6), int(ops[i]/6)
			sess := sessions[arg%len(sessions)]
			obj := oracleObjects[(arg/len(sessions))%len(oracleObjects)]
			switch op {
			case opArrive:
				e.ObjectArrived(obj, "s1")
				ref.ObjectArrived(obj)
			case opActivate:
				e.ActivatePermissions(sess, obj)
				ref.ActivatePermissions(sess, obj)
			case opDeactivate:
				e.DeactivatePermissions(sess, obj)
				ref.DeactivatePermissions(sess, obj)
			case opDecide:
				a := model.NewAccess(obj, "write", "f0", "s1")
				if i+1 < len(ops) {
					i++
					if n := int(ops[i] % 11); n < 10 {
						a = model.NewAccess(obj, "read", model.ResourceID(fmt.Sprintf("f%d", n)), "s1")
					}
				}
				d := e.Authorize(Request{Session: sess, Access: a})
				st, deny, reason, x := ref.decide(sess, a)
				var got *TemporalExplanation
				if d.Explanation != nil {
					got = d.Explanation.Temporal
				}
				if d.Temporal != st || d.Deny != deny || !reflect.DeepEqual(got, x) ||
					(reason != "" && d.Reason != reason) {
					t.Fatalf("op %d: decide %s = (%s, %q, %q, %+v), trackers say (%s, %q, %q, %+v)",
						i, a, d.Temporal, d.Deny, d.Reason, got, st, deny, reason, x)
				}
			case opSample:
				if got, want := clockRows(e.SampleBudgets(-1)), clockRows(ref.SampleBudgets(-1)); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: sampled budgets\n got %+v\nwant %+v", i, got, want)
				}
			case opAdvance:
				clk.Advance(float64(arg % 11))
			}
			for _, obj := range oracleObjects {
				for _, ps := range append(oraclePerms, PermSpec{Perm: rbac.Permission{ID: "p-none"}}) {
					id := ps.Perm.ID
					if got, want := e.PermissionState(obj, id), ref.PermissionState(obj, id); got != want {
						t.Fatalf("op %d: PermissionState(%s, %s) = %s, trackers say %s", i, obj, id, got, want)
					}
					if got, want := e.RemainingValidity(obj, id), ref.RemainingValidity(obj, id); got != want {
						t.Fatalf("op %d: RemainingValidity(%s, %s) = %v, trackers say %v", i, obj, id, got, want)
					}
				}
				for _, c := range []ClassID{"cA", "cB", "c-none"} {
					if got, want := e.ClassRemaining(obj, c), ref.ClassRemaining(obj, c); got != want {
						t.Fatalf("op %d: ClassRemaining(%s, %s) = %v, trackers say %v", i, obj, c, got, want)
					}
				}
			}
		}
	})
}

// clockRows drops the wall-clock stamps of the sampled series, which
// differ between two samplers of one engine-clock instant.
func clockRows(rows []BudgetStatus) []BudgetStatus {
	for i := range rows {
		series := make([]obs.Sample, len(rows[i].Series))
		for j, smp := range rows[i].Series {
			series[j] = obs.Sample{At: smp.At, Value: smp.Value}
		}
		rows[i].Series = series
	}
	return rows
}

// TestTrackerValidState bridges the recorded valid-state function to
// the duration calculus: the tracker's valid state satisfies
// Expression 4.1 read as a DC formula. The engine keeps no valid-state
// function any more; the check survives on the reference tracker.
func TestTrackerValidState(t *testing.T) {
	tr := newRefTracker(5, temporal.GlobalBase)
	tr.Activate(0)
	tr.Deactivate(2)
	tr.Activate(4)
	st := tr.ValidState(6)
	// Valid on [0,2) and [4,6): integral 4.
	if got := st.Integral(0, 10); got != 4 {
		t.Fatalf("valid-state integral = %v (%v)", got, st.OnIntervals())
	}
	// The open activation beyond the budget is clipped.
	st2 := tr.ValidState(20)
	if got := st2.Integral(0, 20); got != 5 {
		t.Fatalf("clipped valid-state integral = %v", got)
	}
	// Expression 4.1 as a DC formula over the tracker's state.
	f := temporal.DCNot{D: temporal.Chop{
		Left:  temporal.IntegralCmp{P: "valid", Op: temporal.DCGt, C: tr.Budget()},
		Right: temporal.LenCmp{Op: temporal.DCGe, C: 0},
	}}
	if !temporal.EvalDC(f, temporal.States{"valid": st2}, temporal.Interval{Begin: 0, End: 20}) {
		t.Fatal("tracker state violates Expression 4.1")
	}
}

// TestTemporalConcurrentUse hammers one object's temporal state from
// several goroutines — arrivals, activations, decisions, reads,
// departures and samples — for the race detector; the budget read
// back must stay within [0, dur].
func TestTemporalConcurrentUse(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 1000, temporal.GlobalBase)
	e.SetObs(obs.NewRegistry())
	a := model.NewAccess("o1", "read", "f1", "s1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if j%50 == 0 {
					e.ObjectArrived("o1", "s1")
				}
				e.ActivatePermissions(sess, "o1")
				e.Authorize(req(sess, a))
				e.PermissionState("o1", "p-read-f1")
				e.RemainingValidity("o1", "p-read-f1")
				clk.Advance(0.5)
				e.DeactivatePermissions(sess, "o1")
				if j%100 == k {
					e.SampleBudgets(0)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := e.RemainingValidity("o1", "p-read-f1"); got < 0 || got > 1000 || math.IsNaN(got) {
		t.Fatalf("remaining validity after concurrent use = %v", got)
	}
}
