package stac

// Chaos-mode integration tests: a 3-server coalition runs over TCP
// while internal/faults injects deterministic resets, latency,
// partial writes and dial failures. The headline property is verdict
// stability — every access decision the coalition makes under faults
// is exactly the decision the fault-free engine makes — plus the two
// safety invariants the ISSUE calls out: no proof is ever issued for
// a denied access, and the transport leaks no goroutines.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/faults"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
)

// The survey policy caps reads at 5 coalition-wide under the global
// base-time scheme, so an 8-stop tour always produces 5 grants
// followed by a denial — a verdict mix that must survive any fault
// schedule.
const chaosPolicy = `
user rover
role surveyor
permission p-survey read * @ * {
    spatial count(0, 5, sigma[op=read])
    scheme  global
}
grant surveyor p-survey
assign rover surveyor
`

var chaosServers = []model.ServerID{"s1", "s2", "s3"}

// chaosProgram visits 8 resources round-robin across the 3 servers.
// The counting bound is spent at runtime, not statically: the loop
// keeps the program admissible under check(P, C).
func chaosProgram() string {
	var b strings.Builder
	b.WriteString("ch ! 8; ch ? x;\nwhile x > 0 do {\n")
	for i := 0; i < 8; i++ {
		srv := chaosServers[i%len(chaosServers)]
		fmt.Fprintf(&b, "  if x == %d then { read r%d @ %s };\n", 8-i, i+1, srv)
	}
	b.WriteString("  ch ! x - 1; ch ? x\n}")
	return b.String()
}

// chaosOutcome is everything observable about one tour that must be
// identical between the fault-free and the faulted runs.
type chaosOutcome struct {
	decisions []string // audited verdicts, per server in ID order
	proofs    int      // proofs the agent carried home
	ledger    int      // proofs the coalition issued in total
	granted   int      // granted decisions across all audit logs
	denied    bool     // the tour ended in a denial

	// Flight-recorder state, populated only when a WAL was attached.
	// equal() ignores these: recorder health may differ between runs,
	// verdicts must not.
	recorder     *record.Status
	recorderErrs int64
}

// runChaosTour runs the 8-stop tour. With a nil injector the network
// behaves perfectly; otherwise every client-side connection goes
// through the fault injector. A non-nil wal attaches a flight
// recorder writing to it — the recorder must never change verdicts,
// even when the wal itself fails.
func runChaosTour(t *testing.T, inj *faults.Injector, wal io.Writer) chaosOutcome {
	t.Helper()
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("chaos-key"))
	c.EnableLedger()
	// A per-run registry isolates this tour's metrics so they reconcile
	// exactly against its audit trail, faults and all.
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	if err := core.LoadPolicyString(c.Engine, chaosPolicy); err != nil {
		t.Fatal(err)
	}
	if wal != nil {
		c.Engine.SetRecorder(record.New(record.Config{Capacity: 64, WAL: wal, Registry: reg}))
	}
	for _, id := range chaosServers {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if chaosServers[i%len(chaosServers)] == id {
				srv.HostResource(model.ResourceID(fmt.Sprintf("r%d", i+1)), []byte("survey-data"))
			}
		}
	}

	addrs := map[model.ServerID]string{}
	var daemons []*server.Daemon
	for _, s := range c.Servers() {
		d := server.NewDaemonWith(s, server.DaemonConfig{
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
			MaxConns:     16,
			Obs:          reg,
		})
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		addrs[s.ID()] = addr
	}
	defer func() {
		for _, d := range daemons {
			_ = d.Close()
		}
	}()

	// A fleet watcher stays attached for the whole tour: the SSE
	// decision-log tail must neither perturb verdicts nor leak
	// goroutines once Drain releases it (the caller's leak assertion
	// covers this path too).
	dbg := server.NewDebugServer(c, daemons, nil, server.DebugConfig{Registry: reg})
	dts := httptest.NewServer(dbg.Mux())
	watchResp, werr := http.Get(dts.URL + "/debug/journal?poll=50ms&cursor=" + strconv.FormatUint(math.MaxUint64, 10))
	if werr != nil {
		t.Fatal(werr)
	}
	watchDrained := make(chan struct{})
	go func() {
		defer close(watchDrained)
		_, _ = io.Copy(io.Discard, watchResp.Body)
	}()
	defer func() {
		dbg.Drain()
		select {
		case <-watchDrained:
		case <-time.After(5 * time.Second):
			t.Error("SSE watch stream still open after Drain")
		}
		watchResp.Body.Close()
		dts.Close()
	}()

	rt := &agent.RemoteRuntime{
		Addrs:       addrs,
		DialTimeout: 2 * time.Second,
		IOTimeout:   2 * time.Second,
		Retries:     30,
		Backoff:     time.Millisecond,
		Seed:        99,
		Obs:         reg,
	}
	if inj != nil {
		rt.Dial = inj.Dialer(nil)
	}

	rover := agent.New("rover",
		c.Signer.IssueCredential("rover", "hq@coalition", []string{"surveyor"}),
		sral.MustParse(chaosProgram()), c.Signer)
	err := rt.Launch(rover)

	out := chaosOutcome{proofs: rover.Proofs.Len(), ledger: c.Ledger().Len()}
	if wal != nil {
		st := c.Engine.Recorder().Status()
		out.recorder = &st
		out.recorderErrs = reg.CounterValue("stac_recorder_errors_total", "")
	}
	if err != nil {
		if !errors.Is(err, server.ErrDenied) {
			t.Fatalf("tour failed with a non-verdict error: %v", err)
		}
		out.denied = true
	}
	for _, s := range c.Servers() {
		records, total := s.Audit()
		if total != len(records) {
			t.Fatalf("audit log of %s overflowed (%d/%d)", s.ID(), len(records), total)
		}
		for _, r := range records {
			out.decisions = append(out.decisions, r.String())
			if r.Granted {
				out.granted++
			}
		}
	}

	// Metrics/audit reconciliation: every decision the audit trail
	// records was counted exactly once by the engine's decision
	// counters — faults cause retries and redials, but deduplication
	// keeps the engine's view identical to the fault-free run's.
	if got := reg.CounterValue("stac_authz_granted_total", ""); got != int64(out.granted) {
		t.Fatalf("granted counter = %d, audit trail grants = %d", got, out.granted)
	}
	auditDenied := int64(len(out.decisions) - out.granted)
	if got := reg.SumCounters("stac_authz_denied_total"); got != auditDenied {
		t.Fatalf("denied counters = %d, audit trail denials = %d", got, auditDenied)
	}
	if got := reg.HistogramCount("stac_authz_seconds", ""); got != int64(len(out.decisions)) {
		t.Fatalf("latency histogram count = %d, audit trail decisions = %d", got, len(out.decisions))
	}
	// After a full drain no connection is in flight on any daemon.
	for _, d := range daemons {
		_ = d.Close()
	}
	for _, id := range chaosServers {
		lbl := obs.Label("server", string(id))
		if got := reg.GaugeValue("stac_server_inflight_connections", lbl); got != 0 {
			t.Fatalf("daemon %s reports %d in-flight connections after close", id, got)
		}
	}
	return out
}

func (o chaosOutcome) equal(p chaosOutcome) bool {
	if o.proofs != p.proofs || o.ledger != p.ledger || o.granted != p.granted || o.denied != p.denied {
		return false
	}
	if len(o.decisions) != len(p.decisions) {
		return false
	}
	for i := range o.decisions {
		if o.decisions[i] != p.decisions[i] {
			return false
		}
	}
	return true
}

func chaosInjector(seed int64) *faults.Injector {
	return faults.New(faults.Config{
		Seed:           seed,
		DelayProb:      0.2,
		MaxDelay:       2 * time.Millisecond,
		ChunkProb:      0.5,
		WriteResetProb: 0.15,
		ReadResetProb:  0.1,
		DialFailProb:   0.1,
		MaxFaults:      12,
	})
}

// TestChaosVerdictsMatchFaultFreeRun is the tentpole acceptance test:
// under injected resets, latency, partial writes and dial failures at
// several fixed seeds, the coalition reaches byte-for-byte the same
// audited decisions, proof counts and final verdict as the fault-free
// run — and a repeated seed reproduces its run exactly.
func TestChaosVerdictsMatchFaultFreeRun(t *testing.T) {
	base := runChaosTour(t, nil, nil)
	// Sanity-pin the fault-free shape: 5 grants, then a denial.
	if !base.denied || base.proofs != 5 || base.granted != 5 || base.ledger != 5 {
		t.Fatalf("fault-free run shape = %+v", base)
	}
	if len(base.decisions) != 6 {
		t.Fatalf("fault-free decisions = %v", base.decisions)
	}

	for _, seed := range []int64{1, 2, 3} {
		in := chaosInjector(seed)
		got := runChaosTour(t, in, nil)
		if !got.equal(base) {
			t.Fatalf("seed %d: outcome diverged from fault-free run\nfaults: %+v\nbase: %+v\ngot:  %+v\nbase decisions: %v\ngot decisions:  %v",
				seed, in.Stats(), base, got, base.decisions, got.decisions)
		}
	}

	// Determinism of the harness itself: same seed, same fault stats.
	a, b := chaosInjector(2), chaosInjector(2)
	_ = runChaosTour(t, a, nil)
	_ = runChaosTour(t, b, nil)
	if a.Stats() != b.Stats() {
		t.Fatalf("same seed produced different fault schedules: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestChaosNoProofForDeniedAccessAndNoGoroutineLeak is the satellite
// property test: across several seeds, the coalition never issues a
// proof for a denied access (the ledger holds exactly one proof per
// granted decision) and the transport drains every goroutine it
// started.
func TestChaosNoProofForDeniedAccessAndNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, seed := range []int64{5, 6, 7, 8} {
		in := chaosInjector(seed)
		out := runChaosTour(t, in, nil)
		if out.ledger != out.granted {
			t.Fatalf("seed %d: ledger holds %d proofs for %d granted decisions", seed, out.ledger, out.granted)
		}
		if out.proofs > out.granted {
			t.Fatalf("seed %d: agent carries %d proofs for %d grants", seed, out.proofs, out.granted)
		}
	}
	// Drain: all daemons and clients are closed when runChaosTour
	// returns; give their handlers a moment to unwind.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
}

// TestChaosServerSideListenerFaults drives the same tour with the
// faults injected on the ACCEPT side (the daemon's listener wrapped),
// exercising the server's handling of torn and stalled client
// connections. Verdict-affecting state must still match fault-free.
func TestChaosServerSideListenerFaults(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("chaos-key"))
	c.EnableLedger()
	if err := core.LoadPolicyString(c.Engine, chaosPolicy); err != nil {
		t.Fatal(err)
	}
	in := faults.New(faults.Config{
		Seed:           21,
		ChunkProb:      0.5,
		WriteResetProb: 0.1,
		ReadResetProb:  0.1,
		MaxFaults:      6,
	})
	addrs := map[model.ServerID]string{}
	for _, id := range chaosServers {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if chaosServers[i%len(chaosServers)] == id {
				srv.HostResource(model.ResourceID(fmt.Sprintf("r%d", i+1)), []byte("survey-data"))
			}
		}
		d := server.NewDaemonWith(srv, server.DaemonConfig{
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = d.Serve(in.Listener(ln))
		t.Cleanup(func() { _ = d.Close() })
	}
	rt := &agent.RemoteRuntime{
		Addrs:   addrs,
		Retries: 30,
		Backoff: time.Millisecond,
		Seed:    4,
	}
	rover := agent.New("rover",
		c.Signer.IssueCredential("rover", "hq@coalition", []string{"surveyor"}),
		sral.MustParse(chaosProgram()), c.Signer)
	err := rt.Launch(rover)
	if !errors.Is(err, server.ErrDenied) {
		t.Fatalf("tour = %v, want the budget denial (stats %+v)", err, in.Stats())
	}
	if rover.Proofs.Len() != 5 || c.Ledger().Len() != 5 {
		t.Fatalf("proofs = %d, ledger = %d, want 5/5 (stats %+v)",
			rover.Proofs.Len(), c.Ledger().Len(), in.Stats())
	}
}

// TestChaosWALDiskFullDegradesToRingOnly fills the flight-recorder
// WAL volume mid-tour. The recorder must degrade to ring-only —
// verdicts byte-identical to the fault-free run, the in-memory ring
// still recording — and announce the loss through
// stac_recorder_errors_total exactly once (a full disk is one
// incident, not one alert per decision), never by failing an
// authorization.
func TestChaosWALDiskFullDegradesToRingOnly(t *testing.T) {
	base := runChaosTour(t, nil, nil)

	// ~1 record of budget: the WAL dies almost immediately.
	disk := faults.NewDiskFullWriter(io.Discard, 200)
	got := runChaosTour(t, nil, disk)
	if !disk.Failed() {
		t.Fatal("disk never filled — budget too large for the tour's record volume")
	}
	if !base.equal(got) {
		t.Fatalf("verdicts changed under a full WAL:\nbase %+v\ngot  %+v", base, got)
	}

	st := got.recorder
	if st == nil {
		t.Fatal("no recorder status captured")
	}
	if !st.WALConfigured || !st.WALDegraded {
		t.Fatalf("recorder status = %+v, want a configured, degraded WAL", st)
	}
	if !strings.Contains(st.WALError, "disk full") {
		t.Fatalf("WALError = %q, want the disk-full cause", st.WALError)
	}
	if st.Errors != 1 || got.recorderErrs != 1 {
		t.Fatalf("recorder errors = %d (metric %d), want exactly 1", st.Errors, got.recorderErrs)
	}
	// The ring outlived the WAL: every record of the tour is still
	// retained in memory (tour volume < ring capacity).
	if st.Total == 0 || int(st.Total) != st.Retained {
		t.Fatalf("ring retained %d of %d records after WAL failure", st.Retained, st.Total)
	}

	// Same property under network chaos: a fault-injected tour with a
	// dead-on-arrival WAL still reproduces the fault-free verdicts.
	chaotic := runChaosTour(t, chaosInjector(1), faults.NewDiskFullWriter(io.Discard, 0))
	if !base.equal(chaotic) {
		t.Fatalf("verdicts changed under chaos + full WAL:\nbase %+v\ngot  %+v", base, chaotic)
	}
	if chaotic.recorderErrs != 1 {
		t.Fatalf("chaotic run recorder errors metric = %d, want 1", chaotic.recorderErrs)
	}
}
