package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"stac/internal/baseline"
	"stac/internal/core"
	"stac/internal/faults"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/federate"
	"stac/internal/obs/perf"
	"stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/server"
	"stac/internal/temporal"
	"stac/internal/workload"
)

// A system is one target of the matrix, booted fresh per (scenario,
// trial): the coordinated STAC engine behind real stacd-grade TCP
// daemons, or a baseline authorizer behind the internal/baseline
// harness shim. Workers only see this interface, so every system
// faces identical traffic.

// outcome classifies one measured round trip.
type outcome int

const (
	outGrant outcome = iota
	// outDeny is a decision the system made: access denied.
	outDeny
	// outReject is a structured protocol-level reject (malformed,
	// oversize, bad credential) — the system answered, but never
	// reached a policy decision.
	outReject
	// outErr is a transport failure (reset, timeout, refused dial).
	outErr
)

// daemonMaxLineBytes caps one request line on every daemon the harness
// boots — small enough that hostile oversize frames are cheap to
// generate, large enough for long carried proof histories.
const daemonMaxLineBytes = baseline.HarnessMaxLineBytes

// hopConn is one worker's authenticated session at one coalition
// server for the span of a hop (or, without churn, the whole run).
type hopConn interface {
	// access performs one measured access round trip.
	access(op model.Operation, res model.ResourceID) (outcome, error)
	// importProofs seeds carried history and proofs returns the
	// accumulated history (no-ops on history-free baselines).
	importProofs(ps []proof.Proof)
	proofs() []proof.Proof
	// close ends the session; depart announces it to the server.
	close(depart bool)
}

// system is one bootable target of the matrix.
type system interface {
	name() string
	// numServers and addr expose the per-server TCP endpoints.
	numServers() int
	addr(si int) string
	// connect opens a session for worker w at server index si.
	connect(w, si int) (hopConn, error)
	// replayFlood fires n identical logical requests at server si
	// (idempotency-key replays on STAC, repeated identical questions
	// on baselines) and reports how many were answered.
	replayFlood(w, si int, res model.ResourceID, n int) (int, error)
	// sample returns current goroutine count and heap bytes.
	sample() (int, uint64)
	// perfReport returns the cell's hot-path attribution after the
	// load completes (nil on systems without one).
	perfReport() *CellPerf
	close()
}

// dialFunc is the (optionally fault-injected) transport dialer every
// system connects through.
type dialFunc func(addr string) (net.Conn, error)

// newDialer builds the worker-side dialer for a scenario: the
// internal/faults injector wraps it when the fault axis is enabled, so
// every system suffers the same deterministic fault schedule.
func newDialer(sc Scenario) dialFunc {
	if !sc.Faults.enabled() {
		return nil
	}
	in := faults.New(faults.Config{
		Seed:           sc.Seed,
		DelayProb:      sc.Faults.DelayProb,
		MaxDelay:       time.Duration(sc.Faults.MaxDelayMS) * time.Millisecond,
		ReadResetProb:  sc.Faults.ReadResetProb,
		WriteResetProb: sc.Faults.WriteResetProb,
	})
	return in.Dialer(nil)
}

// serverIDs returns the coalition server identifiers of a scenario.
func serverIDs(n int) []model.ServerID {
	out := make([]model.ServerID, n)
	for i := range out {
		out[i] = model.ServerID(fmt.Sprintf("s%d", i+1))
	}
	return out
}

// --- STAC: the coordinated engine over stacd-grade TCP daemons -------

type stacSystem struct {
	coal    *server.Coalition
	daemons []*server.Daemon
	addrs   []string
	creds   []proof.Credential
	dial    dialFunc
	sloMS   float64

	debug      *server.DebugServer
	metricsLn  net.Listener
	metricsSrv *http.Server
	snapshot   string // URL of /debug/snapshot
}

// bootSTAC builds a coalition from the generated policy, hosts every
// vocabulary resource on every server, and binds one real TCP daemon
// per coalition server plus the /debug/snapshot endpoint the sampler
// scrapes — the same wiring stacd performs.
func bootSTAC(sc Scenario, gp workload.GeneratedPolicy) (*stacSystem, error) {
	s := &stacSystem{dial: newDialer(sc), sloMS: sc.SLOTargetMS}
	reg := obs.NewRegistry()
	coal := server.NewCoalition(temporal.NewRealClock(), []byte("stacload-key"))
	coal.Engine.SetObs(reg)
	if sc.SLOTargetMS > 0 {
		coal.Engine.SetSLO(perf.SLO{Target: time.Duration(sc.SLOTargetMS * float64(time.Millisecond))})
	}
	tracer := obs.NewTracer(16)
	tracer.SetSampling(false)
	coal.Engine.SetTracer(tracer)
	if err := core.LoadPolicyString(coal.Engine, gp.Text); err != nil {
		return nil, fmt.Errorf("stac: policy: %w", err)
	}
	// Per-clause evaluation cost for the cell summary's cost section —
	// the same profile stacd serves in /debug/snapshot.
	coal.Engine.EnableCostProfiling()
	s.coal = coal
	cfg := server.DaemonConfig{
		ReadTimeout:  time.Minute,
		WriteTimeout: 30 * time.Second,
		MaxConns:     4096,
		MaxLineBytes: daemonMaxLineBytes,
		Obs:          reg,
	}
	for _, id := range serverIDs(sc.Servers) {
		srv, err := coal.AddServer(id)
		if err != nil {
			s.close()
			return nil, err
		}
		for i := 0; i < sc.Resources; i++ {
			srv.HostResource(model.ResourceID(fmt.Sprintf("f%d", i+1)), []byte("load"))
		}
		d := server.NewDaemonWith(srv, cfg)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		s.addrs = append(s.addrs, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.metricsLn = ln
	s.debug = server.NewDebugServer(coal, s.daemons, tracer, server.DebugConfig{})
	s.metricsSrv = &http.Server{Handler: s.debug.Mux()}
	go func() { _ = s.metricsSrv.Serve(ln) }()
	s.snapshot = fmt.Sprintf("http://%s/debug/snapshot", ln.Addr())
	for _, u := range gp.Users {
		s.creds = append(s.creds, coal.Signer.IssueCredential(
			model.ObjectID(u), u+"@load", []string{gp.Role}))
	}
	return s, nil
}

// perfReport reduces the engine's perf stats (the same rollup the
// fleet poller computes per member) and keeps the three slowest
// decision exemplars.
func (s *stacSystem) perfReport() *CellPerf {
	ps := s.coal.Engine.PerfStats()
	sort.Slice(ps.Exemplars, func(i, j int) bool { return ps.Exemplars[i].Value > ps.Exemplars[j].Value })
	if len(ps.Exemplars) > 3 {
		ps.Exemplars = ps.Exemplars[:3]
	}
	cp := &CellPerf{
		MemberPerfRollup: federate.PerfRollup("stac", ps),
		SLOTargetMS:      s.sloMS,
	}
	cp.SlowExemplars = ps.Exemplars
	cp.Cost = reduceCost(s.coal.Engine.CostReport())
	return cp
}

// reduceCost folds the engine's full cost profile into the per-cell
// summary: root cells (path "") carry the per-decision evaluation
// price, and the five hottest clauses by sampled time are kept for the
// diff.
func reduceCost(rep cost.Report) *CellCost {
	if len(rep.Clauses) == 0 {
		return nil
	}
	cc := &CellCost{}
	var rootNS, rootEvals int64
	for _, c := range rep.Clauses {
		if c.Path == "" {
			rootNS += c.SampledNS
			rootEvals += c.SampledEvals
		}
	}
	if rootEvals > 0 {
		cc.MeanRootNS = float64(rootNS) / float64(rootEvals)
	}
	top := append([]cost.ClauseCost(nil), rep.Clauses...)
	sort.Slice(top, func(i, j int) bool { return top[i].SampledNS > top[j].SampledNS })
	if len(top) > 5 {
		top = top[:5]
	}
	cc.TopClauses = top
	return cc
}

func (s *stacSystem) name() string    { return "stac" }
func (s *stacSystem) numServers() int { return len(s.addrs) }
func (s *stacSystem) addr(si int) string {
	return s.addrs[si%len(s.addrs)]
}

func (s *stacSystem) connect(w, si int) (hopConn, error) {
	cl, err := server.DialConfig(s.addr(si), server.ClientConfig{
		DialTimeout:  5 * time.Second,
		IOTimeout:    15 * time.Second,
		MaxLineBytes: daemonMaxLineBytes,
		Dial:         s.dial,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Auth(s.creds[w%len(s.creds)]); err != nil {
		cl.Close()
		return nil, err
	}
	return &stacConn{cl: cl}, nil
}

type stacConn struct {
	cl *server.Client
}

func (c *stacConn) access(op model.Operation, res model.ResourceID) (outcome, error) {
	_, err := c.cl.Access(op, res, "", nil)
	return classifySTAC(err), err
}

// classifySTAC maps a client error to the outcome taxonomy.
func classifySTAC(err error) outcome {
	switch {
	case err == nil:
		return outGrant
	case errors.Is(err, server.ErrDenied):
		return outDeny
	case server.IsTransient(err):
		return outErr
	default:
		// A ServerError that is not a denial: the daemon rejected the
		// request before (or instead of) deciding it.
		return outReject
	}
}

func (c *stacConn) importProofs(ps []proof.Proof) { c.cl.ImportProofs(ps) }
func (c *stacConn) proofs() []proof.Proof         { return c.cl.Proofs() }

func (c *stacConn) close(depart bool) {
	if depart {
		_ = c.cl.Depart()
	}
	_ = c.cl.Close()
}

func (s *stacSystem) replayFlood(w, si int, res model.ResourceID, n int) (int, error) {
	conn, err := s.connect(w, si)
	if err != nil {
		return 0, err
	}
	defer conn.close(true)
	cl := conn.(*stacConn).cl
	id := fmt.Sprintf("replay-%d-%d", w, si)
	answered := 0
	for i := 0; i < n; i++ {
		// Same idempotency key every time: the daemon must replay its
		// recorded verdict from the dedup cache, not re-decide.
		if _, err := cl.AccessID(id, model.OpRead, res, "", nil); server.IsTransient(err) {
			return answered, err
		}
		answered++
	}
	return answered, nil
}

// sample scrapes /debug/snapshot — the same document the fleet poller
// consumes — for the daemon-side goroutine and heap readings.
func (s *stacSystem) sample() (int, uint64) {
	cl := http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get(s.snapshot)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var snap struct {
		Runtime obs.RuntimeStats `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0
	}
	return snap.Runtime.Goroutines, snap.Runtime.HeapAllocBytes
}

func (s *stacSystem) close() {
	for _, d := range s.daemons {
		_ = d.Close()
	}
	if s.debug != nil {
		s.debug.Drain()
	}
	if s.metricsSrv != nil {
		_ = s.metricsSrv.Close()
	} else if s.metricsLn != nil {
		_ = s.metricsLn.Close()
	}
}

// --- Baselines: RBAC / TRBAC / GTRBAC behind the harness shim --------

type baselineSystem struct {
	sysName   string
	auth      baseline.Authorizer
	daemons   []*baseline.HarnessDaemon
	addrs     []string
	servers   []model.ServerID
	users     []string
	epoch     time.Time
	dial      dialFunc
	sinceBoot func() float64
}

// bootBaseline builds the named comparison system from the same
// generated policy the STAC coalition loaded and serves it on one TCP
// listener per coalition server.
func bootBaseline(name string, sc Scenario, gp workload.GeneratedPolicy) (*baselineSystem, error) {
	auth, err := buildAuthorizer(name, gp)
	if err != nil {
		return nil, err
	}
	s := &baselineSystem{
		sysName: name,
		auth:    auth,
		servers: serverIDs(sc.Servers),
		users:   gp.Users,
		epoch:   time.Now(),
		dial:    newDialer(sc),
	}
	s.sinceBoot = func() float64 { return time.Since(s.epoch).Seconds() }
	for i := 0; i < sc.Servers; i++ {
		d, addr, err := baseline.ServeAuthorizer(auth, "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		s.addrs = append(s.addrs, addr)
	}
	return s, nil
}

// buildAuthorizer maps the generated policy onto one baseline model.
// Temporal-flavoured permissions become periodic enabling windows that
// are open for DurationS out of every 2×DurationS — the closest a
// calendar-based model comes to a per-arrival budget. Count-flavoured
// clauses have no counterpart at all: the baselines simply grant, and
// the comparison table shows the enforcement STAC buys.
func buildAuthorizer(name string, gp workload.GeneratedPolicy) (baseline.Authorizer, error) {
	perms := append(append([]workload.PermDef(nil), gp.Cover...), gp.Ballast...)
	permFor := func(req baseline.AccessRequest) string {
		return gp.PermFor(req.Resource).ID
	}
	window := func(d workload.PermDef) baseline.Periodic {
		if d.DurationS > 0 {
			return baseline.Periodic{Start: 0, Duration: d.DurationS, Period: 2 * d.DurationS}
		}
		return baseline.Always
	}
	switch name {
	case "rbac":
		sys := rbac.NewSystem()
		if err := sys.AddRole(rbac.RoleID(gp.Role)); err != nil {
			return nil, err
		}
		for _, u := range gp.Users {
			if err := sys.AddUser(rbac.UserID(u)); err != nil {
				return nil, err
			}
			if err := sys.AssignUserRole(rbac.UserID(u), rbac.RoleID(gp.Role)); err != nil {
				return nil, err
			}
		}
		for _, d := range perms {
			p := rbac.Permission{ID: rbac.PermID(d.ID), Resource: d.Resource}
			if err := sys.AddPermission(p); err != nil {
				return nil, err
			}
			if err := sys.GrantPermission(rbac.RoleID(gp.Role), p.ID); err != nil {
				return nil, err
			}
		}
		return baseline.RBACAuthorizer{Sys: sys}, nil

	case "trbac":
		// One role per distinct enabling window — the role explosion
		// the paper's Section 4 critique predicts.
		byWindow := map[baseline.Periodic][]string{}
		for _, d := range perms {
			w := window(d)
			byWindow[w] = append(byWindow[w], d.ID)
		}
		var roles []baseline.TRBACRoleSpec
		i := 0
		for w, granted := range byWindow {
			roles = append(roles, baseline.TRBACRoleSpec{
				Name: fmt.Sprintf("%s-%d", gp.Role, i), Enable: w, Granted: granted,
			})
			i++
		}
		sim, err := baseline.NewTRBACSim(roles)
		if err != nil {
			return nil, err
		}
		return baseline.TRBACAuthorizer{Sim: sim, PermFor: permFor}, nil

	case "gtrbac":
		sim := baseline.NewGTRBACSim()
		byWindow := map[baseline.Periodic][]string{}
		for _, d := range perms {
			w := window(d)
			byWindow[w] = append(byWindow[w], d.ID)
		}
		i := 0
		for w, granted := range byWindow {
			role := fmt.Sprintf("%s-%d", gp.Role, i)
			i++
			if err := sim.AddRole(role, w); err != nil {
				return nil, err
			}
			for _, u := range gp.Users {
				if err := sim.AssignUser(u, role, baseline.Always); err != nil {
					return nil, err
				}
			}
			for _, p := range granted {
				if err := sim.GrantPermission(role, p, baseline.Always); err != nil {
					return nil, err
				}
			}
		}
		return baseline.GTRBACAuthorizer{Sim: sim, PermFor: permFor}, nil
	}
	return nil, fmt.Errorf("stacload: unknown system %q", name)
}

func (s *baselineSystem) name() string    { return s.sysName }
func (s *baselineSystem) numServers() int { return len(s.addrs) }
func (s *baselineSystem) addr(si int) string {
	return s.addrs[si%len(s.addrs)]
}

func (s *baselineSystem) connect(w, si int) (hopConn, error) {
	cl, err := baseline.DialHarness(s.addr(si), s.dial)
	if err != nil {
		return nil, err
	}
	return &baselineConn{cl: cl, sys: s, user: s.users[w%len(s.users)], si: si}, nil
}

type baselineConn struct {
	cl   *baseline.HarnessClient
	sys  *baselineSystem
	user string
	si   int
}

func (c *baselineConn) access(op model.Operation, res model.ResourceID) (outcome, error) {
	dec, err := c.cl.Authorize(baseline.AccessRequest{
		User:     c.user,
		Op:       op,
		Resource: res,
		Server:   c.sys.servers[c.si%len(c.sys.servers)],
		T:        c.sys.sinceBoot(),
	})
	switch {
	case err == nil && dec.Granted:
		return outGrant, nil
	case err == nil:
		return outDeny, errors.New(dec.Reason)
	default:
		var se *baseline.HarnessServerError
		if errors.As(err, &se) {
			return outReject, err
		}
		return outErr, err
	}
}

func (c *baselineConn) importProofs([]proof.Proof) {}
func (c *baselineConn) proofs() []proof.Proof      { return nil }
func (c *baselineConn) close(bool)                 { _ = c.cl.Close() }

func (s *baselineSystem) replayFlood(w, si int, res model.ResourceID, n int) (int, error) {
	conn, err := s.connect(w, si)
	if err != nil {
		return 0, err
	}
	defer conn.close(false)
	answered := 0
	for i := 0; i < n; i++ {
		// Baselines have no idempotency layer: a replay flood is just
		// the same question asked n times, each a full decision.
		if o, err := conn.access(model.OpRead, res); o == outErr {
			return answered, err
		}
		answered++
	}
	return answered, nil
}

func (s *baselineSystem) sample() (int, uint64) {
	st := obs.SampleRuntime()
	return st.Goroutines, st.HeapAllocBytes
}

func (s *baselineSystem) perfReport() *CellPerf { return nil }

func (s *baselineSystem) close() {
	for _, d := range s.daemons {
		_ = d.Close()
	}
}

// bootSystem boots the named system for a scenario.
func bootSystem(name string, sc Scenario, gp workload.GeneratedPolicy) (system, error) {
	if name == "stac" {
		return bootSTAC(sc, gp)
	}
	return bootBaseline(name, sc, gp)
}
