// Package core implements the paper's primary contribution: the
// coordinated spatio-temporal access control model. It extends the
// RBAC substrate so that a permission is granted to a mobile object
// iff
//
//   - Expression 3.1 (spatial): some role active in the object's
//     session confers the permission AND the object's program and
//     proof-backed access history satisfy the permission's SRAC
//     constraint, and
//   - Expression 4.1 (temporal): the permission is in the valid state
//     — the accumulated valid duration since the base time does not
//     exceed the permission's validity duration, under either the
//     per-server or the global base-time scheme.
//
// The Engine is the decision point coalition servers consult from
// their SecurityManager on every shared-resource access request.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/perf"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// SpatialMode selects the enforcement reading of Definition 3.7 for a
// permission's spatial constraint.
type SpatialMode int

// Spatial enforcement modes.
const (
	// Admissible (the default) grants unless the post-state history
	// irreversibly violates the constraint: a not-yet-witnessed
	// required access or ordering is merely pending and the program
	// still has the chance to satisfy it. This is the right reading
	// for liveness-style obligations.
	Admissible SpatialMode = iota
	// Strict requires the post-state history to ALREADY satisfy the
	// constraint (Definition 3.6 on the executed trace). This gates
	// accesses on prior actions — e.g. "o2 may read the plan only
	// after companion o1 uploaded the key" — and is the reading for
	// safety-style pre-conditions.
	Strict
)

// String implements fmt.Stringer.
func (m SpatialMode) String() string {
	if m == Strict {
		return "strict"
	}
	return "admissible"
}

// PermSpec attaches the spatio-temporal extension to an RBAC
// permission: the spatial SRAC constraint and the validity duration
// with its base-time scheme.
type PermSpec struct {
	Perm rbac.Permission
	// Spatial is the SRAC constraint associated with the permission;
	// nil means T (no spatial requirement).
	Spatial srac.Constraint
	// Mode selects the enforcement reading of Spatial.
	Mode SpatialMode
	// Duration is dur(perm) in seconds; temporal.Infinite (the
	// default when zero) marks a time-insensitive permission.
	Duration float64
	// Scheme selects the base time t_b (global or per-server).
	Scheme temporal.Scheme

	// paths lists Spatial's clause paths in pre-order, so the cost
	// profiler names the i-th record of an evaluation without building
	// paths per decision, and mon compiles Spatial for online prefix
	// evaluation. DefinePermission fills both, so each definition — a
	// policy reload, a shadow engine's — has a monitor of its own, and
	// no state kept for another reads as theirs.
	paths []string
	mon   *specMonitor
}

// specMonitor compiles a permission's constraint on the permission's
// first decision: a policy of hundreds of permissions, most of which
// no decision reaches, holds no monitor for those. It also memoises the
// definition's static-check verdicts (see static).
type specMonitor struct {
	once sync.Once
	c    srac.Constraint
	m    *srac.Monitor

	// memo holds check(P, C) per (program, object) pairing; it is nil
	// until the definition's first declared program.
	memoMu sync.Mutex
	memo   *obs.Window[staticKey, *staticEntry]
}

// staticMemoSize bounds the static-check verdicts one permission
// definition keeps. A mobile object declares one program for a whole
// tour, so a definition meets few (program, object) pairings at a time;
// past the bound the oldest goes first.
const staticMemoSize = 256

// staticKey names one static-check pairing of a definition: the
// program's canonical digest (ProgramDigest) and the requesting object.
type staticKey struct {
	program string
	obj     model.ObjectID
}

// staticVerdict is one static check: whether it applies at all (a
// constraint that mentions another object's actions is left to the
// runtime history check) and, when it does, its verdict.
type staticVerdict struct {
	applies bool
	verdict srac.Verdict
}

// staticEntry is one memoised pairing, checked once however many
// decisions of the pairing arrive together.
type staticEntry struct {
	once sync.Once
	staticVerdict
}

// checkProgram is srac.CheckProgram, a variable so tests can count the
// checks the memo runs.
var checkProgram = srac.CheckProgram

func (sm *specMonitor) get() *srac.Monitor {
	sm.once.Do(func() { sm.m = srac.Compile(sm.c) })
	return sm.m
}

// static returns check(P, C) for program prog, whose canonical digest
// is digest, declared by obj: srac.CheckProgram against the constraint
// stamped for obj, run once per pairing while the memo holds it. The
// verdict is a pure function of the pairing and the definition, and
// every definition has a monitor of its own, so a policy change starts
// from an empty memo.
func (sm *specMonitor) static(prog sral.Node, digest string, obj model.ObjectID) staticVerdict {
	e := sm.entry(staticKey{program: digest, obj: obj})
	e.once.Do(func() {
		stamped := srac.StampObject(sm.c, obj)
		e.applies = !srac.MentionsOtherObject(stamped, obj)
		e.verdict = srac.AllTraces
		if e.applies {
			e.verdict = checkProgram(prog, stamped, obj)
		}
	})
	return e.staticVerdict
}

// entry returns k's memo entry, adding an unchecked one when k has
// none, in place of the oldest once the memo is full.
func (sm *specMonitor) entry(k staticKey) *staticEntry {
	sm.memoMu.Lock()
	defer sm.memoMu.Unlock()
	if sm.memo == nil {
		sm.memo = obs.NewWindow[staticKey, *staticEntry](staticMemoSize)
	}
	if e, ok := sm.memo.Get(k); ok {
		return e
	}
	e := &staticEntry{}
	sm.memo.Add(k, e)
	return e
}

func (ps PermSpec) duration() float64 {
	if ps.Duration == 0 {
		return temporal.Infinite
	}
	return ps.Duration
}

// Request is one shared-resource access request by a mobile object.
type Request struct {
	// Session is the subject established for the object at the
	// current server.
	Session *rbac.Session
	// Access is the requested access (object stamped).
	Access model.Access
	// Program is the object's declared SRAL program; when non-nil the
	// engine statically rules out programs that can never satisfy the
	// permission's spatial constraint (check(P, C) of Section 3.4).
	Program sral.Node
	// ProgramDigest, when set, is ProgramDigest(Program), computed once
	// by a caller that interns programs. The static-check verdict memo
	// keys on it; a request without one has it computed, which
	// re-renders and re-hashes the program.
	ProgramDigest string
	// History is the object's proof-backed access trace so far,
	// across all coalition servers.
	History trace.Trace
	// Proofs attests the history; nil means fully attested.
	Proofs srac.ProofOracle
	// Stages is the serving request's stage ledger, on which the
	// decision marks its own stages; nil for a library caller, whose
	// decision keeps a ledger of its own.
	Stages *obs.StageLedger
}

// Decision explains an authorisation outcome.
type Decision struct {
	Granted bool
	// ID identifies this decision for cross-correlation (wire reply,
	// audit record, trace span). Minted by AuthorizeTraced when the
	// decision is traced; callers that persist untraced decisions mint
	// one with obs.NewDecisionID — the engine leaves it empty on the
	// unsampled hot path to keep that path allocation-free.
	ID string
	// Perm is the permission that covered the access (when any).
	Perm rbac.PermID
	// Spatial is the prefix-evaluation status of the spatial
	// constraint on the post-state of the request.
	Spatial srac.Status
	// ProgramVerdict is the static check of the program against the
	// constraint (AllTraces when no program or constraint was given).
	ProgramVerdict srac.Verdict
	// Temporal is the permission's temporal state at decision time.
	Temporal temporal.PermState
	// Deny classifies a denial for metrics and audit queries; empty on
	// grants.
	Deny DenyReason
	// Reason is a human-readable explanation of a denial.
	Reason string
	// Explanation attributes a denial to the specific violated SRAC
	// subformula or the exhausted temporal budget; nil on grants.
	Explanation *Explanation
	// HLC is the decision's hybrid logical timestamp: every decision
	// ticks the engine's HLC, the stamp rides the wire reply, and the
	// requesting agent folds it into its own clock — so decisions that
	// causally follow each other (hops of one itinerary) carry
	// strictly increasing timestamps coalition-wide even under clock
	// skew. Journal records and audit entries reuse this exact stamp.
	HLC hlc.Timestamp

	// now is the clock reading the decision used and tk the covering
	// permission's temporal parameters: what LogDecision needs to
	// stamp the decide record without reading the clock again.
	now float64
	tk  temporalKey
	// evalStatus is the prefix evaluation's own status (before a
	// Strict reading overrides Spatial) and entries the history
	// entries it stepped: the prefix_eval span's attributes.
	evalStatus srac.Status
	entries    int
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	if d.Granted {
		return fmt.Sprintf("GRANT perm=%s spatial=%s temporal=%s", d.Perm, d.Spatial, d.Temporal)
	}
	return fmt.Sprintf("DENY %s", d.Reason)
}

// ErrNoSpec is returned when a permission referenced by the RBAC layer
// has no spatio-temporal specification.
var ErrNoSpec = errors.New("core: permission has no spatio-temporal spec")

// Engine is the coordinated access control decision point. It is safe
// for concurrent use.
type Engine struct {
	// RBAC is the underlying role-based substrate; policies register
	// users, roles and assignments directly on it.
	RBAC *rbac.System

	clock temporal.Clock

	// met holds the resolved metric handles; swapped atomically by
	// SetObs so the Authorize hot path never takes a lock for metrics.
	met atomic.Pointer[engineMetrics]
	// tracer records the per-decision span tree; swapped atomically by
	// SetTracer for the same reason. Defaults to obs.DefaultTracer
	// (sampling off), so an untraced engine pays only a nil-check.
	tracer atomic.Pointer[obs.Tracer]
	// recorder is the attached decision flight recorder (see
	// record.go); nil when none is attached. Atomic for the same
	// hot-path reason as met and tracer.
	recorder atomic.Pointer[record.Recorder]

	// slo, when non-nil, classifies every decision latency against a
	// latency objective and derives the burn rate (see perf.SLOTracker).
	// Atomic like met/tracer; a nil tracker's methods are inert.
	slo atomic.Pointer[perf.SLOTracker]

	// hlcClock is the engine's hybrid logical clock (see Decision.HLC).
	// Atomic only so SetHLCWall (tests, skew injection) can swap the
	// wall source without racing the decision path.
	hlcClock atomic.Pointer[hlc.Clock]

	// policyMu guards the read-mostly policy tables: permission specs
	// and permission classes. Decisions only ever take the read lock;
	// the write lock is held by DefinePermission/DefineClass (setup and
	// policy reload), so concurrent authorizations never serialize on
	// policy lookups.
	policyMu sync.RWMutex
	specs    map[rbac.PermID]PermSpec
	// classes aggregate validity durations across permissions (the
	// conclusion's future-work extension; see aggregate.go).
	classes map[ClassID]Class
	classOf map[rbac.PermID]ClassID

	// policyGen counts policy mutations (DefinePermission,
	// DefineClass), so an object's session key set (see sessionSet) is
	// re-resolved after one.
	policyGen atomic.Uint64
	// digest memoises PolicyDigest under the RBAC and engine policy
	// generations it was rendered at (see dump.go).
	digest atomic.Pointer[policyDigest]

	// shards hold the per-object runtime state (activation clocks and
	// recorder history bases), hashed by object ID.
	// Independent credentials land on independent shards — and even
	// within a shard, the shard lock only covers the map lookup;
	// mutation happens under the objectState's own lock.
	shards [numShards]engineShard

	// costC is the per-clause evaluation profiler — cost and clause
	// coverage in one row per clause (see cost.go); nil when off,
	// so a disabled engine pays one atomic load per decision.
	costC atomic.Pointer[cost.Collector]
}

// numShards is the object-state shard count. Sized well above typical
// core counts so hash collisions between concurrently active
// credentials are rare; must be a power of two for the mask below.
const numShards = 32

// engineShard is one hashed slice of the per-object state table.
type engineShard struct {
	mu   sync.RWMutex
	objs map[model.ObjectID]*objectState
}

// objectState is everything the engine tracks for one mobile object.
// All of it used to live in engine-global maps behind one mutex; now
// two objects only share a lock when they hash to the same shard, and
// even then only for the get-or-create lookup.
type objectState struct {
	mu sync.Mutex
	// keys is the temporal state, kept by session (see
	// temporal.Activations); set is the session set last activated.
	keys temporal.Activations[rbac.PermID]
	set  *sessionSet

	// recMu guards recHist and recProg: the proof-backed history
	// entries the flight recorder has already emitted for this object,
	// against which LogDecision delta-encodes the next decide record,
	// and the declared program of the object's previous decide record,
	// against which programs are interned (see record.go). A separate
	// lock so recording never blocks the temporal bookkeeping above.
	recMu   sync.Mutex
	recHist []record.HistoryEntry
	recProg sral.Node
}

// sessionSet is the temporal keys of one session's permissions,
// resolved from the session's RBAC view under one policy generation.
type sessionSet struct {
	perms []rbac.Permission
	gen   uint64
	keys  temporal.KeySet[rbac.PermID]
}

// shardFor hashes an object ID onto its shard (FNV-1a).
func (e *Engine) shardFor(obj model.ObjectID) *engineShard {
	h := uint32(2166136261)
	for i := 0; i < len(obj); i++ {
		h ^= uint32(obj[i])
		h *= 16777619
	}
	return &e.shards[h&(numShards-1)]
}

// objState returns (creating if needed) the object's state. The fast
// path is one shard read-lock and a map hit.
func (e *Engine) objState(obj model.ObjectID) *objectState {
	sh := e.shardFor(obj)
	sh.mu.RLock()
	os, ok := sh.objs[obj]
	sh.mu.RUnlock()
	if ok {
		return os
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if os, ok = sh.objs[obj]; ok {
		return os
	}
	os = &objectState{set: &sessionSet{}}
	sh.objs[obj] = os
	return os
}

// lookupObj returns the object's state without creating it.
func (e *Engine) lookupObj(obj model.ObjectID) (*objectState, bool) {
	sh := e.shardFor(obj)
	sh.mu.RLock()
	os, ok := sh.objs[obj]
	sh.mu.RUnlock()
	return os, ok
}

// NewEngine creates an engine over a fresh RBAC system using the given
// clock (nil defaults to a simulated clock starting at 0 — callers in
// production pass temporal.NewRealClock()).
func NewEngine(clock temporal.Clock) *Engine {
	if clock == nil {
		clock = temporal.NewSimClock(0)
	}
	e := &Engine{
		RBAC:    rbac.NewSystem(),
		clock:   clock,
		specs:   make(map[rbac.PermID]PermSpec),
		classes: make(map[ClassID]Class),
		classOf: make(map[rbac.PermID]ClassID),
	}
	for i := range e.shards {
		e.shards[i].objs = make(map[model.ObjectID]*objectState)
	}
	e.met.Store(newEngineMetrics(obs.Default))
	e.tracer.Store(obs.DefaultTracer)
	e.hlcClock.Store(hlc.New(hlc.WallFromTemporal(clock)))
	return e
}

// Clock returns the engine's clock.
func (e *Engine) Clock() temporal.Clock { return e.clock }

// HLC returns the engine's hybrid logical clock. Servers observe
// request timestamps on it before deciding, so the decision stamp
// dominates everything the requester had seen.
func (e *Engine) HLC() *hlc.Clock { return e.hlcClock.Load() }

// SetHLCWall replaces the HLC's physical wall source — clock-skew
// injection for tests (faults.WallSkew) and the hook a deployment
// with a disciplined time service would use. The logical component
// restarts; causal monotonicity against previously issued stamps is
// only preserved going forward if the new source is not behind the
// old one by more than the logical counter can absorb, so swap before
// traffic, not during.
func (e *Engine) SetHLCWall(wall func() int64) {
	e.hlcClock.Store(hlc.New(wall))
}

// SetObs points the engine's decision-path metrics at a registry
// other than obs.Default — tests and embedders use it to reconcile one
// engine's counters in isolation. Call it during setup, before serving
// traffic, so no decision lands between two registries.
func (e *Engine) SetObs(r *obs.Registry) {
	e.met.Store(newEngineMetrics(r))
}

// SetSLO attaches a latency SLO to the decision path: every decision
// is classified against the target and the burn rate becomes available
// through SLOSnapshot/PublishPerf. A zero Target detaches.
func (e *Engine) SetSLO(slo perf.SLO) {
	if slo.Target <= 0 {
		e.slo.Store(nil)
		return
	}
	e.slo.Store(perf.NewSLOTracker(slo))
}

// SLOSnapshot reports the attached SLO's health (zero snapshot when no
// SLO is set).
func (e *Engine) SLOSnapshot() perf.SLOSnapshot { return e.slo.Load().Snapshot() }

// Obs returns the registry the engine currently reports into.
func (e *Engine) Obs() *obs.Registry { return e.met.Load().reg }

// SetTracer points the engine's decision span tree at a tracer other
// than obs.DefaultTracer (nil restores the default). Like SetObs, call
// it during setup.
func (e *Engine) SetTracer(t *obs.Tracer) {
	if t == nil {
		t = obs.DefaultTracer
	}
	e.tracer.Store(t)
}

// Tracer returns the tracer the engine currently records spans into.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer.Load() }

// DefinePermission registers a permission together with its
// spatio-temporal specification.
func (e *Engine) DefinePermission(ps PermSpec) error {
	if ps.Spatial != nil {
		if err := srac.Validate(ps.Spatial); err != nil {
			return fmt.Errorf("core: permission %q: %w", ps.Perm.ID, err)
		}
	}
	if err := e.RBAC.AddPermission(ps.Perm); err != nil {
		return err
	}
	ps.paths, ps.mon = nil, nil
	if ps.Spatial != nil {
		srac.WalkPaths(ps.Spatial, func(path string, _ srac.Constraint) {
			ps.paths = append(ps.paths, path)
		})
		ps.mon = &specMonitor{c: ps.Spatial}
	}
	e.policyMu.Lock()
	e.specs[ps.Perm.ID] = ps
	e.policyGen.Add(1)
	e.policyMu.Unlock()
	if col := e.costC.Load(); col != nil {
		seedCost(col, ps)
	}
	return nil
}

// Spec returns the spatio-temporal specification of a permission.
func (e *Engine) Spec(id rbac.PermID) (PermSpec, error) {
	e.policyMu.RLock()
	defer e.policyMu.RUnlock()
	ps, ok := e.specs[id]
	if !ok {
		return PermSpec{}, fmt.Errorf("%w: %q", ErrNoSpec, id)
	}
	return ps, nil
}

// ObjectArrived records that a mobile object has arrived at a server
// at the current clock time. Under the per-server scheme this resets
// the temporal budgets of all the object's permissions (t_b = t_i);
// under the global scheme only the first arrival establishes t_b.
// Only the arriving object's shard is touched — other credentials'
// decisions proceed undisturbed.
func (e *Engine) ObjectArrived(obj model.ObjectID, server model.ServerID) {
	now := e.clock.Now()
	e.recordArrive(obj, server, now)
	os := e.objState(obj)
	os.mu.Lock()
	os.keys.Arrive()
	os.mu.Unlock()
}

// ActivatePermissions marks every permission conferred by the
// session's active roles as temporally active for the object —
// role activation starts the validity accumulation of Section 4.
func (e *Engine) ActivatePermissions(sess *rbac.Session, obj model.ObjectID) {
	now := e.clock.Now()
	e.recordSession(record.KindActivate, sess, obj, now)
	os, set := e.lockSession(sess, obj)
	os.keys.Activate(&set.keys, now)
	os.set = set
	os.mu.Unlock()
}

// DeactivatePermissions closes the valid periods of the session's
// permissions (role deactivation or session end).
func (e *Engine) DeactivatePermissions(sess *rbac.Session, obj model.ObjectID) {
	now := e.clock.Now()
	e.recordSession(record.KindDeactivate, sess, obj, now)
	os, set := e.lockSession(sess, obj)
	os.keys.Deactivate(&set.keys, now)
	os.mu.Unlock()
}

// lockSession locks the object's state and returns it with the
// session's key set: the object's own when the session holds the view
// it was resolved from, so a hop is O(1); otherwise one resolved under
// the policy read-lock, taken before the object lock.
func (e *Engine) lockSession(sess *rbac.Session, obj model.ObjectID) (*objectState, *sessionSet) {
	perms := sess.Permissions()
	os := e.objState(obj)
	os.mu.Lock()
	if set := os.set; set.gen == e.policyGen.Load() && len(set.perms) == len(perms) &&
		(len(perms) == 0 || &set.perms[0] == &perms[0]) {
		return os, set
	}
	os.mu.Unlock()
	e.policyMu.RLock()
	set := &sessionSet{perms: perms, gen: e.policyGen.Load(), keys: make(temporal.KeySet[rbac.PermID], len(perms))}
	for _, p := range perms {
		_, tk, _ := e.lookupLocked(p)
		set.keys[tk.key] = tk.scheme
	}
	e.policyMu.RUnlock()
	os.mu.Lock()
	return os, set
}

// Authorize decides a shared-resource access request — the
// checkPermission interposition of the coalition SecurityManager. It
// evaluates, in order: the RBAC layer (some active role confers a
// covering permission), the spatial constraint (static program check
// and prefix evaluation of the post-state history), and the temporal
// validity (Expression 4.1).
func (e *Engine) Authorize(req Request) Decision {
	return e.AuthorizeTraced(obs.TraceContext{}, req)
}

// AuthorizeTraced is Authorize under a propagated trace context. The
// decision marks its stages (lookup, static, prefix, temporal) on the
// request's ledger, or on one of its own for a library caller, and
// every timing it reports comes from those marks. When the context is
// sampled (and the engine's tracer is recording), the decision renders
// its span tree from the marks afterwards — authorize → static_check /
// prefix_eval / temporal_check — and the Decision carries a freshly
// minted ID correlating it with the spans. With an invalid or unsampled
// context the ID stays empty (lazy minting: persistent consumers mint
// one themselves).
func (e *Engine) AuthorizeTraced(tc obs.TraceContext, req Request) Decision {
	m := e.met.Load()
	l := req.Stages
	var own obs.StageLedger
	var begin time.Duration
	if l == nil {
		l = &own
		l.Start(obs.StageLookup)
	} else {
		begin = l.Enter(obs.StageLookup)
	}
	d := e.authorize(req, l, e.clock.Now())
	elapsed := l.Enter(obs.StageResidue) - begin
	d.HLC = e.hlcClock.Load().Now()
	m.recordDecision(d, elapsed)
	e.slo.Load().Observe(elapsed)
	if t := e.tracer.Load(); t.Records(tc) {
		d.ID = obs.NewDecisionID()
		e.renderSpans(t, tc, l, req, &d, begin, elapsed)
	}
	m.captureExemplar(&d, elapsed, tc, l)
	return d
}

// renderSpans records a sampled decision's span tree from its ledger
// marks: the authorize span over the decision, and a child per decision
// stage the request entered.
func (e *Engine) renderSpans(t *obs.Tracer, tc obs.TraceContext, l *obs.StageLedger, req Request, d *Decision, begin, elapsed time.Duration) {
	self := tc.Child()
	stage := func(s obs.Stage, name string, attrs ...obs.Attr) {
		if at, dur, ok := l.Interval(s); ok {
			t.Emit(self, self.Child(), name, "engine", l.Time(at), dur, attrs...)
		}
	}
	stage(obs.StageStatic, "static_check", obs.Attr{Key: "verdict", Value: d.ProgramVerdict.String()})
	stage(obs.StagePrefix, "prefix_eval",
		obs.Attr{Key: "status", Value: d.evalStatus.String()},
		obs.Attr{Key: "history_len", Value: strconv.Itoa(len(req.History) + 1)},
		obs.Attr{Key: "entries", Value: strconv.Itoa(d.entries)})
	stage(obs.StageTemporal, "temporal_check", obs.Attr{Key: "state", Value: d.Temporal.String()})
	attrs := []obs.Attr{
		{Key: "decision_id", Value: d.ID},
		{Key: "object", Value: string(req.Access.Object)},
		{Key: "access", Value: req.Access.String()},
		{Key: "granted", Value: strconv.FormatBool(d.Granted)},
	}
	if !d.Granted {
		attrs = append(attrs, obs.Attr{Key: "deny", Value: string(d.Deny)})
	}
	t.Emit(tc, self, "authorize", "engine", l.Time(begin), elapsed, attrs...)
}

// authorize is the decision body at clock reading now, marking its
// stages on l; AuthorizeTraced wraps it with per-outcome accounting
// and the span tree.
func (e *Engine) authorize(req Request, l *obs.StageLedger, now float64) (d Decision) {
	d = Decision{Spatial: srac.Satisfied, ProgramVerdict: srac.AllTraces, Temporal: temporal.Inactive, now: now}
	if req.Session == nil {
		d.Deny = DenyNoSession
		d.Reason = "no session (unauthenticated subject)"
		return d
	}
	if err := req.Access.Validate(); err != nil {
		d.Deny = DenyInvalidAccess
		d.Reason = err.Error()
		return d
	}
	perm, ok := req.Session.PermissionFor(req.Access)
	if !ok {
		d.Deny = DenyRBAC
		d.Reason = fmt.Sprintf("no active role of %q confers a permission covering %s",
			req.Session.User(), req.Access)
		return d
	}
	d.Perm = perm.ID

	// Permissions registered directly on the RBAC layer resolve to an
	// unconstrained spec (T, time-insensitive).
	ps, tk, _ := e.lookup(perm)
	d.tk = tk

	obj := req.Access.Object

	// --- Spatial constraint (Expression 3.1). ---
	if ps.Spatial != nil {
		col := e.costC.Load()
		mon := ps.mon.get()
		// check(P, C): a program that can never satisfy C disqualifies
		// the object up front. Constraints that mention a companion's
		// actions cannot be decided from this object's program alone,
		// so they are left to the runtime history check. The verdict
		// comes from the definition's memo, which runs the check once
		// per (program, object).
		if req.Program != nil {
			if req.ProgramDigest == "" {
				req.ProgramDigest = ProgramDigest(req.Program)
			}
			l.Enter(obs.StageStatic)
			sv := ps.mon.static(req.Program, req.ProgramDigest, obj)
			l.Enter(obs.StageResidue)
			if sv.applies {
				d.ProgramVerdict = sv.verdict
			}
			if d.ProgramVerdict == srac.NoTrace {
				d.Spatial = srac.Violated
				d.Deny = DenyProgram
				d.Reason = fmt.Sprintf("program can never satisfy spatial constraint %s",
					srac.String(ps.Spatial))
				d.Explanation = &Explanation{
					Constraint: srac.String(ps.Spatial),
					Clause:     srac.String(srac.StampObject(ps.Spatial, obj)),
					Detail:     "static check: no trace of the declared program satisfies the constraint",
				}
				return d
			}
		}
		// Prefix evaluation of the post-state: the requested access is
		// hypothetically performed and proven. One evaluation decides
		// (the root's status), reads Strict satisfaction (the root's
		// Holds), feeds the profiler and explains a denial.
		sampled := col != nil && col.SampleTick()
		buf := nodeEvalPool.Get().(*[]srac.NodeEval)
		l.Enter(obs.StagePrefix)
		nodes, consumed := prefixEval(mon, req, *buf, sampled)
		l.Enter(obs.StageResidue)
		d.Spatial = nodes[0].Status
		d.evalStatus, d.entries = d.Spatial, consumed
		if col != nil {
			costScan(col, ps, nodes, sampled)
		}
		switch {
		case d.Spatial == srac.Violated:
			d.Deny = DenySpatialViolated
			d.Reason = fmt.Sprintf("spatial constraint %s irreversibly violated",
				srac.String(ps.Spatial))
		case ps.Mode == Strict && !nodes[0].Holds:
			d.Spatial = srac.Pending
			d.Deny = DenySpatialStrict
			d.Reason = fmt.Sprintf("spatial constraint %s not yet satisfied (strict mode)",
				srac.String(ps.Spatial))
		}
		if d.Deny != DenyNone {
			stamped := srac.StampObject(ps.Spatial, obj)
			d.Explanation = spatialExplanation(ps.Spatial, srac.AttributeNodes(stamped, nodes))
		}
		*buf = nodes
		nodeEvalPool.Put(buf)
		if d.Deny != DenyNone {
			return d
		}
	}

	// --- Temporal validity (Expression 4.1). ---
	// Role activation in this session implies the permission is
	// active; make sure its clock reflects it (idempotent).
	l.Enter(obs.StageTemporal)
	v := e.activateKey(obj, tk, now)
	d.Temporal = v.State
	if d.Temporal != temporal.Valid {
		if d.Temporal == temporal.ActiveInvalid {
			d.Deny = DenyTemporalExhausted
		} else {
			d.Deny = DenyTemporalInactive
		}
		d.Reason = fmt.Sprintf("permission %q is %s (validity duration %.6gs, scheme %s)",
			perm.ID, d.Temporal, tk.dur, tk.scheme)
		budget := tk.dur
		if budget == temporal.Infinite {
			budget = -1
		}
		remaining := v.Remaining
		if remaining == temporal.Infinite {
			remaining = -1
		}
		d.Explanation = &Explanation{Temporal: &TemporalExplanation{
			Consumed:  v.Used,
			Budget:    budget,
			Remaining: remaining,
			Scheme:    tk.scheme.String(),
		}}
		return d
	}

	d.Granted = true
	return d
}

// prefixEval is a decision's one prefix evaluation: monitor m, bound
// to the requesting object, over the request's history followed by its
// access. When every history entry is proven by construction — the
// history is the trace of the proof store that is the request's
// oracle, so no ledger merged other proofs in — it runs on the state
// that store keeps, which catches up on the proofs added since the
// object's last decision. Any other history (ledger-merged, an
// overriding oracle, a bare request, a replay) advances a fresh state
// over all of it. consumed is the entries the evaluation stepped.
func prefixEval(m *srac.Monitor, req Request, out []srac.NodeEval, timed bool) (nodes []srac.NodeEval, consumed int) {
	obj := req.Access.Object
	if st, ok := req.Proofs.(*proof.Store); ok && st != nil {
		if nodes, consumed, ok = st.Peek(m, obj, req.History, req.Access, out, timed); ok {
			return nodes, consumed
		}
	}
	return m.Decide(obj, req.History, req.Proofs, req.Access, out, timed), len(req.History) + 1
}

// activateKey activates one permission's temporal key for an object
// at now — on its own when no session activation carries it — and
// returns its validity.
func (e *Engine) activateKey(obj model.ObjectID, tk temporalKey, now float64) temporal.Validity {
	os := e.objState(obj)
	os.mu.Lock()
	defer os.mu.Unlock()
	return os.keys.ActivateKey(tk.key, tk.scheme, tk.dur, now)
}

// validity reads a temporal key's validity for an object at now,
// without creating state; ok is false when the object holds none.
func (e *Engine) validity(obj model.ObjectID, tk temporalKey, now float64) (v temporal.Validity, ok bool) {
	os, found := e.lookupObj(obj)
	if !found {
		return v, false
	}
	os.mu.Lock()
	defer os.mu.Unlock()
	return os.keys.Validity(tk.key, tk.dur, now)
}

// PermissionState reports the temporal state of a permission for an
// object at the current time.
func (e *Engine) PermissionState(obj model.ObjectID, id rbac.PermID) temporal.PermState {
	_, tk, _ := e.lookup(rbac.Permission{ID: id})
	v, _ := e.validity(obj, tk, e.clock.Now()) // no state reads Inactive
	return v.State
}

// RemainingValidity returns the unused validity duration of a
// permission for an object. For a classed permission this is the
// remaining pooled budget of its class.
func (e *Engine) RemainingValidity(obj model.ObjectID, id rbac.PermID) float64 {
	_, tk, known := e.lookup(rbac.Permission{ID: id})
	v, ok := e.validity(obj, tk, e.clock.Now())
	if !ok {
		if !known {
			return 0
		}
		return tk.dur
	}
	return v.Remaining
}
