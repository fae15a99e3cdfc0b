// Command stacd runs a coalition of spatio-temporal access control
// servers, each exposed as a TCP daemon speaking the JSON-lines
// protocol of internal/server.
//
// Usage:
//
//	stacd -policy policy.stac -servers s1,s2,s3 -listen 127.0.0.1:0 \
//	      -resource s1:fileA=hello -resource s2:fileB=world \
//	      -issue-credentials \
//	      -read-timeout 2m -write-timeout 30s -max-conns 1024 \
//	      -max-line-bytes 1048576
//
// Each server binds its own port (ephemeral with port 0) and the bound
// addresses print one per line as "<server> <addr>". With
// -issue-credentials a signed demo credential prints per policy user,
// as "credential <user> <json>", so stacctl or a custom client can
// authenticate immediately. These lines leave through one buffered
// stream that the "ready" line flushes: a reader has them all once it
// reads "ready", and nothing follows it. A start that fails prints none
// of them, only its error on stderr.
//
// The transport-reliability flags bound what a slow, stalled or
// hostile network peer can cost the daemon: -read-timeout disconnects
// idle clients, -write-timeout bounds response delivery, -max-conns
// caps concurrently served connections (excess dials queue in the
// accept backlog), and -max-line-bytes caps one JSON-lines request
// (oversized requests get a structured error before the connection
// closes).
//
// -metrics-addr serves /metrics, the /debug endpoints and the health
// probes on one extra HTTP listener; /debug/snapshot reads the
// temporal budgets off the engine's activation clocks on each scrape.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/perf"
	"stac/internal/obs/record"
	"stac/internal/server"
	"stac/internal/temporal"
)

type resourceFlags []string

func (r *resourceFlags) String() string { return strings.Join(*r, ",") }

// Set implements flag.Value.
func (r *resourceFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// options collects the daemon configuration.
type options struct {
	policyPath string
	servers    string
	listen     string
	key        string
	issueCreds bool
	resources  resourceFlags

	readTimeout  time.Duration
	writeTimeout time.Duration
	maxConns     int
	maxLineBytes int

	// metricsAddr, when set, serves the observability endpoints
	// (/metrics, /debug/pprof, /debug/trace, /debug/explain,
	// /debug/snapshot, /healthz, /readyz, /debug/journal) on one extra
	// HTTP listener.
	metricsAddr string

	// trace honours client-sampled trace contexts: a request whose
	// context the client sampled gets its span tree, rendered from the
	// request's stage ledger into an in-memory ring and exported as
	// Chrome trace-event JSON on /debug/trace. Untraced requests record
	// no spans either way; every access keeps its stage ledger.
	trace bool
	// traceCapacity bounds the span ring (0 = obs default).
	traceCapacity int

	// recordCapacity bounds the decision log (the flight-recorder
	// ring every daemon keeps); record adds the replay inputs to it;
	// recordWAL, when set, additionally appends every record as a
	// JSON line to this file — the one durable decision log, the
	// stream stacctl replay/diff/explain -wal consume.
	record         bool
	recordCapacity int
	recordWAL      string
	// shadowPolicy, when set, loads this policy file for live shadow
	// evaluation: every request is decided by both policies, flips are
	// counted and streamed, the served verdict never changes.
	shadowPolicy string
	// cost profiles every SRAC clause — evaluation coverage and cost
	// in one row per clause — served in /debug/snapshot's cost
	// section; `stacctl top` and `stacctl heat` merge the rows
	// fleet-wide.
	cost bool

	// mutexFraction / blockRate feed runtime.SetMutexProfileFraction
	// and runtime.SetBlockProfileRate, which /debug/pprof/mutex and
	// /debug/pprof/block read (0 leaves the runtime defaults — both
	// profiles effectively off).
	mutexFraction int
	blockRate     int
	// sloTarget / sloObjective attach a decision-latency SLO to the
	// engine: sloObjective of decisions must finish within sloTarget.
	// Zero target disables.
	sloTarget    time.Duration
	sloObjective float64

	// registry, when non-nil, isolates the engine's metrics (and the
	// /metrics exposition) from the process-wide obs.Default — a test
	// hook: daemons in one test process otherwise share histogram
	// families, so exemplars bleed between engines.
	registry *obs.Registry
}

func (o options) daemonConfig() server.DaemonConfig {
	return server.DaemonConfig{
		ReadTimeout:  o.readTimeout,
		WriteTimeout: o.writeTimeout,
		MaxConns:     o.maxConns,
		MaxLineBytes: o.maxLineBytes,
	}
}

func main() {
	var opts options
	flag.StringVar(&opts.policyPath, "policy", "", "coalition policy file (stacd text format)")
	flag.StringVar(&opts.servers, "servers", "s1,s2", "comma-separated coalition server IDs")
	flag.StringVar(&opts.listen, "listen", "127.0.0.1:0", "listen address; port 0 picks ephemeral ports")
	flag.StringVar(&opts.key, "key", "stac-demo-key", "coalition signing key")
	flag.BoolVar(&opts.issueCreds, "issue-credentials", false, "print a signed credential per policy user")
	flag.Var(&opts.resources, "resource", "host a resource: server:name=content (repeatable)")
	flag.DurationVar(&opts.readTimeout, "read-timeout", 2*time.Minute, "per-connection wait for the next request; 0 disables")
	flag.DurationVar(&opts.writeTimeout, "write-timeout", 30*time.Second, "per-response write deadline; 0 disables")
	flag.IntVar(&opts.maxConns, "max-conns", 1024, "concurrent connection cap per server; 0 = unlimited")
	flag.IntVar(&opts.maxLineBytes, "max-line-bytes", server.DefaultMaxLineBytes, "per-request size cap in bytes")
	flag.StringVar(&opts.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/* and health probes on this address; empty disables")
	flag.BoolVar(&opts.trace, "trace", true, "honour client-sampled trace contexts: record their span trees (export on /debug/trace)")
	flag.IntVar(&opts.traceCapacity, "trace-capacity", 0, "in-memory span ring capacity; 0 = default")
	flag.BoolVar(&opts.record, "record", false, "record replay inputs (arrivals, activations, grants, and each decision's subject, history and program) in the decision log")
	flag.IntVar(&opts.recordCapacity, "record-capacity", 1024, "decision log (flight-recorder ring) capacity")
	flag.StringVar(&opts.recordWAL, "record-wal", "", "append every flight-recorder event as a JSON line to this file (implies -record); empty disables")
	flag.StringVar(&opts.shadowPolicy, "shadow-policy", "", "evaluate this candidate policy file alongside the served one; flips are reported, verdicts unchanged")
	flag.BoolVar(&opts.cost, "cost", true, "profile per-clause SRAC evaluation coverage and cost (the cost section of /debug/snapshot)")
	flag.IntVar(&opts.mutexFraction, "mutex-profile-fraction", 0, "runtime mutex profile sampling fraction (1 = every event); 0 leaves it off")
	flag.IntVar(&opts.blockRate, "block-profile-rate", 0, "runtime block profile rate in ns (1 = every event); 0 leaves it off")
	flag.DurationVar(&opts.sloTarget, "slo-target", 0, "decision-latency SLO target; 0 disables SLO tracking")
	flag.Float64Var(&opts.sloObjective, "slo-objective", 0.99, "fraction of decisions that must meet -slo-target")
	flag.Parse()

	// Own the stop signals before announcing "ready": a supervisor may
	// stop the daemon the moment it is up, and that must be a graceful
	// shutdown, not death by the signal's default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	// Every start-up line leaves with "ready", in one buffered stream:
	// one write(2) per buffer, not one per line.
	out := bufio.NewWriter(os.Stdout)
	app, err := start(opts, out)
	if err == nil {
		_, _ = out.WriteString("ready\n")
		err = out.Flush()
	}
	if err != nil {
		shutdown(app)
		fmt.Fprintln(os.Stderr, "stacd:", err)
		os.Exit(1)
	}
	<-sig
	shutdown(app)
}

// app is everything start brought up and shutdown must tear down.
type app struct {
	daemons    []*server.Daemon
	metricsLn  net.Listener
	metricsSrv *http.Server
	debug      *server.DebugServer
	walFile    *os.File
}

// start builds the coalition, binds every daemon (and the metrics
// listener when configured) and writes the address (and credential)
// lines to w, once every step that can fail has passed. The caller
// owns the returned app and must Close it (via shutdown).
func start(opts options, w io.Writer) (*app, error) {
	c := server.NewCoalition(temporal.NewRealClock(), []byte(opts.key))
	if opts.registry != nil {
		c.Engine.SetObs(opts.registry)
	}

	if opts.policyPath != "" {
		f, err := os.Open(opts.policyPath)
		if err != nil {
			return nil, err
		}
		err = core.LoadPolicy(c.Engine, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}

	tracer := obs.NewTracer(opts.traceCapacity)
	tracer.SetSampling(opts.trace)
	c.Engine.SetTracer(tracer)

	a := &app{}
	// line holds the address lines until start can no longer fail,
	// then each credential line in turn.
	var line []byte
	fail := func(err error) (*app, error) {
		shutdown(a)
		return nil, err
	}

	if opts.cost {
		c.Engine.EnableCostProfiling()
	}
	cfg := record.Config{
		Capacity:      opts.recordCapacity,
		Registry:      c.Engine.Obs(),
		DecisionsOnly: !opts.record && opts.recordWAL == "",
	}
	if opts.recordWAL != "" {
		f, err := record.OpenWAL(opts.recordWAL)
		if err != nil {
			return fail(err)
		}
		a.walFile = f
		cfg.WAL = f
	}
	c.Engine.SetRecorder(record.New(cfg))
	if opts.shadowPolicy != "" {
		src, err := os.ReadFile(opts.shadowPolicy)
		if err != nil {
			return fail(err)
		}
		if err := c.SetShadowPolicy(string(src)); err != nil {
			return fail(err)
		}
	}
	for _, id := range strings.Split(opts.servers, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		srv, err := c.AddServer(model.ServerID(id))
		if err != nil {
			return fail(err)
		}
		d := server.NewDaemonWith(srv, opts.daemonConfig())
		addr, err := d.Listen(opts.listen)
		if err != nil {
			return fail(err)
		}
		a.daemons = append(a.daemons, d)
		line = append(append(append(line, id...), ' '), addr...)
		line = append(line, '\n')
	}

	if opts.sloTarget > 0 {
		c.Engine.SetSLO(perf.SLO{Target: opts.sloTarget, Objective: opts.sloObjective})
	}
	if opts.mutexFraction > 0 {
		runtime.SetMutexProfileFraction(opts.mutexFraction)
	}
	if opts.blockRate > 0 {
		runtime.SetBlockProfileRate(opts.blockRate)
	}

	if opts.metricsAddr != "" {
		ln, err := net.Listen("tcp", opts.metricsAddr)
		if err != nil {
			return fail(err)
		}
		a.metricsLn = ln
		a.debug = server.NewDebugServer(c, a.daemons, tracer, server.DebugConfig{Registry: opts.registry})
		// Own the server so shutdown can drain in-flight scrapes
		// instead of snapping the listener out from under them.
		a.metricsSrv = &http.Server{Handler: a.debug.Mux()}
		go func() { _ = a.metricsSrv.Serve(ln) }()
		line = append(append(line, "metrics "...), ln.Addr().String()...)
		line = append(line, '\n')
	}

	for _, spec := range opts.resources {
		serverPart, rest, ok := strings.Cut(spec, ":")
		if !ok {
			return fail(fmt.Errorf("bad -resource %q (want server:name=content)", spec))
		}
		name, content, ok := strings.Cut(rest, "=")
		if !ok {
			return fail(fmt.Errorf("bad -resource %q (want server:name=content)", spec))
		}
		srv, err := c.Server(model.ServerID(serverPart))
		if err != nil {
			return fail(err)
		}
		srv.HostResource(model.ResourceID(name), []byte(content))
	}

	if _, err := w.Write(line); err != nil {
		return fail(err)
	}
	if opts.issueCreds {
		// A demo credential per policy user, covering the user's
		// assigned roles (production would use the owner's
		// registration flow instead).
		var names []string
		for _, u := range c.Engine.RBAC.Users() {
			names = names[:0]
			for _, r := range c.Engine.RBAC.AuthorizedRoles(u) {
				names = append(names, string(r))
			}
			cred := c.Signer.IssueCredential(model.ObjectID(u), string(u)+"@coalition", names)
			line = append(append(append(line[:0], "credential "...), u...), ' ')
			line = append(server.AppendCredential(line, &cred), '\n')
			if _, err := w.Write(line); err != nil {
				return fail(err)
			}
		}
	}
	return a, nil
}

func shutdown(a *app) {
	if a == nil {
		return
	}
	for _, d := range a.daemons {
		_ = d.Close()
	}
	if a.debug != nil {
		// Release SSE journal tails first: Shutdown waits for in-flight
		// handlers, and a tail handler never finishes on its own.
		a.debug.Drain()
	}
	if a.metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := a.metricsSrv.Shutdown(ctx); err != nil {
			_ = a.metricsSrv.Close()
		}
		cancel()
	} else if a.metricsLn != nil {
		_ = a.metricsLn.Close()
	}
	if a.walFile != nil {
		_ = a.walFile.Close()
	}
}
