// Package server implements the coalition server side of the
// emulation: resource hosting, mobile-object authentication, the
// SecurityManager interposition point, and an optional TCP transport.
//
// It is the stand-in for the Naplet server of Section 5: on arrival a
// mobile object is authenticated from its owner credential, a subject
// (RBAC session) is created, the credential's roles are activated, and
// every subsequent shared-resource access request funnels through one
// CheckPermission that enforces the coordinated spatio-temporal
// policy — spatial SRAC constraints over the object's proof-backed
// history and program, plus duration-calculus validity — before the
// operation executes and an execution proof is issued.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"stac/internal/channel"
	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/registry"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// Errors returned by coalition servers.
var (
	ErrAuthFailed = errors.New("server: authentication failed")
	ErrDenied     = errors.New("server: access denied")
)

// Coalition is a set of cooperating servers sharing a policy engine, a
// proof-signing key, a registry and a communication hub — the
// "multiple organisations unwilling to rely on a third party" of
// Section 2, emulated in one process.
type Coalition struct {
	Engine   *core.Engine
	Registry *registry.Registry
	Signer   *proof.Signer
	Hub      *channel.Hub

	mu      sync.RWMutex
	servers map[model.ServerID]*Server
	// ledger, when enabled, records every proof the coalition issues,
	// giving servers the access history of ALL mobile objects — the
	// basis for constraints that coordinate companions (Section 1:
	// permissions may depend "even on the access actions of its
	// companions"). Without a ledger, a server only sees the history
	// the requesting object carries.
	ledger *proof.Store
	// migrations counts completed migrations, for experiment reports.
	migrations atomic.Int64

	// shadow, when set, holds the candidate policy evaluated alongside
	// the served one (see shadow.go).
	shadow atomic.Pointer[shadowState]

	// programs interns the SRAL programs declared on wire access
	// requests to every member daemon (see programs.go).
	programs *programCache

	// handoff parks departed sessions' verified histories for the
	// objects' next arrival at any member daemon (see handoff.go).
	handoff *handoff
}

// NewCoalition creates a coalition with the given clock (nil for a
// simulated clock at 0) and signing key. Its engine gets the decision
// log: a recorder of decide records only, 1024 entries, which covers
// the 3 × 256 decisions the per-server windows of a default
// three-server stacd once retained. Attach one that captures replay
// inputs (Engine.SetRecorder) to record for replay.
func NewCoalition(clock temporal.Clock, key []byte) *Coalition {
	eng := core.NewEngine(clock)
	eng.SetRecorder(record.New(record.Config{DecisionsOnly: true, Registry: eng.Obs()}))
	return &Coalition{
		Engine:   eng,
		Registry: registry.New(),
		Signer:   proof.NewSigner(key),
		Hub:      channel.NewHub(),
		servers:  make(map[model.ServerID]*Server),
		programs: newProgramCache(),
		handoff:  newHandoff(),
	}
}

// AddServer creates and registers a coalition server.
func (c *Coalition) AddServer(id model.ServerID) (*Server, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.servers[id]; ok {
		return nil, fmt.Errorf("server: %q already in coalition", id)
	}
	s := &Server{
		id:        id,
		coalition: c,
		resources: make(map[model.ResourceID][]byte),
	}
	if err := c.Registry.Register(registry.Entry{Server: id}); err != nil {
		return nil, err
	}
	c.servers[id] = s
	return s, nil
}

// EnableLedger turns on the coalition-wide proof ledger. Coalition
// servers are cooperative and trustworthy (Section 2), so a shared
// record of issued proofs is within the trust model; it is optional
// because the pure proof-carrying design is the paper's default.
func (c *Coalition) EnableLedger() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ledger == nil {
		c.ledger = proof.NewStore(nil) // proofs are self-issued, already authentic
	}
}

// Ledger returns the coalition ledger (nil when disabled).
func (c *Coalition) Ledger() *proof.Store {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ledger
}

// Server returns a coalition member by ID.
func (c *Coalition) Server(id model.ServerID) (*Server, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.servers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", model.ErrUnknownServer, id)
	}
	return s, nil
}

// Servers returns the coalition members, sorted by ID.
func (c *Coalition) Servers() []*Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RecordMigration counts a completed migration.
func (c *Coalition) RecordMigration() { c.migrations.Add(1) }

// Migrations returns the number of migrations performed so far.
func (c *Coalition) Migrations() int { return int(c.migrations.Load()) }

// Subject is an authenticated mobile object at one server: the RBAC
// session plus the identity the SecurityManager consults.
type Subject struct {
	Object  model.ObjectID
	Owner   string
	Session *rbac.Session
}

// Server is one coalition member hosting shared resources.
type Server struct {
	id        model.ServerID
	coalition *Coalition

	mu        sync.RWMutex
	resources map[model.ResourceID][]byte
	// clockSkew is added to the coalition clock when this server
	// timestamps proofs, emulating the paper's premise that servers
	// share no global clock. Constraint enforcement is built to
	// survive it: per-object traces use the causal (carried) order and
	// temporal budgets are durations, not absolute instants.
	clockSkew float64
	// grants/denies count authorisation outcomes: the server's
	// decision total, which may exceed what the coalition log retains.
	grants, denies int
}

// SetClockSkew sets the offset of this server's local clock relative
// to the (simulation-only) reference clock.
func (s *Server) SetClockSkew(offset float64) {
	s.mu.Lock()
	s.clockSkew = offset
	s.mu.Unlock()
}

// localNow returns the server's local reading of the current time.
func (s *Server) localNow() float64 {
	s.mu.RLock()
	skew := s.clockSkew
	s.mu.RUnlock()
	return s.coalition.Engine.Clock().Now() + skew
}

// ID returns the server's identifier.
func (s *Server) ID() model.ServerID { return s.id }

// HostResource stores (or replaces) a shared resource on the server
// and advertises it in the coalition registry.
func (s *Server) HostResource(r model.ResourceID, content []byte) {
	s.mu.Lock()
	s.resources[r] = append([]byte(nil), content...)
	s.mu.Unlock()
	// Re-register the advertisement.
	_ = s.coalition.Registry.Deregister(s.id)
	entry := registry.Entry{Server: s.id, Resources: s.resourceIDs()}
	_ = s.coalition.Registry.Register(entry)
}

func (s *Server) resourceIDs() []model.ResourceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.ResourceID, 0, len(s.resources))
	for r := range s.resources {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Resources returns the resources hosted by this server, sorted.
func (s *Server) Resources() []model.ResourceID { return s.resourceIDs() }

// Authenticate verifies a mobile object's owner credential, creates a
// subject (RBAC session) and activates the credential's roles — the
// arrival flow of Section 5.1. It also announces the arrival to the
// policy engine so per-server temporal budgets reset.
func (s *Server) Authenticate(cred proof.Credential) (*Subject, error) {
	if err := s.coalition.Signer.VerifyCredential(cred); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	eng := s.coalition.Engine
	user := rbac.UserID(cred.Object)
	if !eng.RBAC.HasUser(user) {
		return nil, fmt.Errorf("%w: object %q not registered with the coalition", ErrAuthFailed, cred.Object)
	}
	sess, err := eng.RBAC.CreateSession(user)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	for _, role := range cred.Roles {
		if err := sess.ActivateRole(rbac.RoleID(role)); err != nil {
			sess.Close()
			return nil, fmt.Errorf("%w: role %q: %v", ErrAuthFailed, role, err)
		}
	}
	sub := &Subject{Object: cred.Object, Owner: cred.Owner, Session: sess}
	eng.ObjectArrived(cred.Object, s.id)
	eng.ActivatePermissions(sess, cred.Object)
	s.coalition.shadowArrive(cred, s.id)
	s.coalition.RecordMigration()
	return sub, nil
}

// Depart closes a subject when the mobile object migrates away,
// pausing its temporal accumulation on this server.
func (s *Server) Depart(sub *Subject) {
	s.coalition.Engine.DeactivatePermissions(sub.Session, sub.Object)
	s.coalition.shadowDepart(sub.Object, s.id)
	sub.Session.Close()
}

// AccessResult is the outcome of a granted access.
type AccessResult struct {
	// Data is the resource content for read/execute operations.
	Data []byte
	// Proof is the execution proof issued for the access.
	Proof proof.Proof
	// Decision is the engine's full decision record.
	Decision core.Decision
}

// Request is the SecurityManager interposition: it authorises the
// access under the coordinated spatio-temporal policy, executes the
// operation on the hosted resource, and issues an execution proof.
// The subject's proof store supplies the cross-server history. The
// request marks its log and issue stages on prog.Stages (a ledger of
// its own when nil), and for a sampled context renders the
// server.request span from those marks.
func (s *Server) Request(sub *Subject, op model.Operation, res model.ResourceID, prog RequestContext) (AccessResult, error) {
	l := prog.Stages
	var own obs.StageLedger
	if l == nil {
		// A library caller: the engine keeps a ledger of its own.
		l = &own
		l.Start(obs.StageResidue)
	}
	begin := l.Wall()
	tracer := s.coalition.Engine.Tracer()
	ctx := prog.Trace
	if tracer.Records(ctx) {
		ctx = ctx.Child()
	}
	out, err := s.request(sub, op, res, prog, l, ctx)
	end := l.Enter(obs.StageResidue)
	if ctx != prog.Trace {
		tracer.Emit(prog.Trace, ctx, "server.request", "server:"+string(s.id), l.Time(begin), end-begin,
			obs.Attr{Key: "access", Value: model.Access{Object: sub.Object, Op: op, Resource: res, Server: s.id}.String()},
			obs.Attr{Key: "decision_id", Value: out.Decision.ID})
	}
	return out, err
}

// request is Request's body, deciding under trace context tc and
// marking its stages on l.
func (s *Server) request(sub *Subject, op model.Operation, res model.ResourceID, prog RequestContext, l *obs.StageLedger, tc obs.TraceContext) (AccessResult, error) {
	access := model.Access{Object: sub.Object, Op: op, Resource: res, Server: s.id}
	ledger := s.coalition.Ledger()
	oracle := prog.Proofs
	history := trace.Trace(prog.History())
	if ledger != nil {
		// The ledger extends the carried history with the proofs of
		// every coalition object (deduplicated by signature), enabling
		// companion-coordinating constraints.
		history = proof.MergedTrace(ledger, prog.Store)
		if oracle == nil {
			oracle = srac.OracleFunc(proof.MergedOracle(ledger, prog.Store))
		}
	}
	if oracle == nil && prog.Store != nil {
		oracle = prog.Store
	}
	req := core.Request{
		Session:       sub.Session,
		Access:        access,
		Program:       prog.Program,
		ProgramDigest: prog.ProgramDigest,
		History:       history,
		Proofs:        oracle,
		Stages:        prog.Stages,
	}
	dec := s.coalition.Engine.AuthorizeTraced(tc, req)
	if dec.ID == "" {
		// Unsampled path: the engine leaves the ID empty to stay
		// allocation-free; mint it here, where the decide record (and
		// eventually the proof HMAC) dominate the cost anyway.
		dec.ID = obs.NewDecisionID()
	}
	// The shadow verdict (nil unless -shadow-policy is loaded) compares
	// against the ENGINE verdict; it never affects the served outcome.
	sv := s.coalition.shadowEval(req, dec)
	if !dec.Granted {
		s.mu.Lock()
		s.denies++
		s.mu.Unlock()
		l.Enter(obs.StageLog)
		s.coalition.Engine.LogDecision(prog.Trace, req, dec, "", sv)
		return AccessResult{Decision: dec}, fmt.Errorf("%w: %s", ErrDenied, dec.Reason)
	}

	// Execute the operation on the hosted resource.
	s.mu.Lock()
	content, ok := s.resources[res]
	if !ok && op != model.OpWrite {
		s.denies++
		s.mu.Unlock()
		l.Enter(obs.StageLog)
		s.coalition.Engine.LogDecision(prog.Trace, req, dec, "unknown resource", sv)
		return AccessResult{Decision: dec}, fmt.Errorf("%w: %q at %q", model.ErrUnknownResource, res, s.id)
	}
	var data []byte
	switch op {
	case model.OpWrite:
		// Writes replace content; the payload travels in prog.Payload.
		s.resources[res] = append([]byte(nil), prog.Payload...)
	default:
		data = append([]byte(nil), content...)
	}
	s.grants++
	s.mu.Unlock()
	l.Enter(obs.StageLog)
	s.coalition.Engine.LogDecision(prog.Trace, req, dec, "", sv)

	l.Enter(obs.StageIssue)
	pr := s.coalition.Signer.Issue(access, s.localNow())
	if prog.Store != nil {
		if err := prog.Store.AddIssued(pr, s.coalition.Signer); err != nil {
			return AccessResult{Decision: dec}, fmt.Errorf("server: proof store rejected proof: %w", err)
		}
	}
	if ledger != nil {
		if err := ledger.Add(pr); err != nil {
			return AccessResult{Decision: dec}, fmt.Errorf("server: ledger rejected proof: %w", err)
		}
	}
	// Log the executed access: a flight-recorder grant record and one
	// history append for the cost profiler.
	l.Enter(obs.StageLog)
	s.coalition.Engine.RecordGrant(access)
	return AccessResult{Data: data, Proof: pr, Decision: dec}, nil
}

// RequestContext carries the mobile object's execution context into an
// access request.
type RequestContext struct {
	// Program is the object's declared SRAL program (optional; the
	// engine statically rejects programs that can never satisfy a
	// permission's spatial constraint).
	Program sral.Node
	// ProgramDigest is core.ProgramDigest(Program) when the caller
	// already has it (optional; see core.Request).
	ProgramDigest string
	// Store is the object's proof store; granted accesses append to it
	// and it supplies the history and oracle.
	Store *proof.Store
	// Proofs overrides the oracle (defaults to Store).
	Proofs srac.ProofOracle
	// Payload is the content for write operations.
	Payload []byte
	// Trace is the propagated trace context of the itinerary this
	// request belongs to (zero for untraced requests).
	Trace obs.TraceContext
	// Ledger is the serving request's stage ledger (nil outside the
	// daemon: the request keeps one of its own).
	Stages *obs.StageLedger
}

// History derives the executed trace from the proof store.
func (rc RequestContext) History() []model.Access {
	if rc.Store == nil {
		return nil
	}
	return rc.Store.Trace()
}

// Counters returns the grant/deny counters for experiments.
func (s *Server) Counters() (grants, denies int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.grants, s.denies
}
