package server

import (
	"bufio"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/faults"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/journal"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/temporal"
)

// grantOnce performs one granted read as o1 at s1 (and one denial when
// op is uncovered), driving the decision path end to end.
func grantOnce(t *testing.T, c *Coalition) {
	t.Helper()
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Depart(sub)
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: proof.NewStore(c.Signer)}); err != nil {
		t.Fatal(err)
	}
}

// liveTail is `stacctl watch`'s view of one daemon: a journal
// follower started at the live tail, forwarding each decide record.
type liveTail struct {
	decides chan record.Record
	stop    context.CancelFunc
}

// followLive attaches a live tail and waits until the journal counts
// want active tails, so every later decision lies past its cursor.
func followLive(t *testing.T, h *DebugServer, url string, want int) *liveTail {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	// Buffered past any test's burst, so the tail never waits on the
	// test to read.
	lt := &liveTail{decides: make(chan record.Record, 64), stop: cancel}
	f := &journal.Follower{Name: "m", BaseURL: url, Cursor: math.MaxUint64, Poll: minJournalPoll}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx, func(fr journal.Frame) {
			if fr.Kind == journal.KindRecord && fr.Record.Kind == record.KindDecide {
				select {
				case lt.decides <- *fr.Record:
				case <-ctx.Done():
				}
			}
		})
	}()
	t.Cleanup(func() { cancel(); <-done })
	waitTails(t, h, want)
	return lt
}

// next returns the tail's next decide record.
func (lt *liveTail) next(t *testing.T) record.Record {
	t.Helper()
	select {
	case r := <-lt.decides:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no decide record on the live tail")
		return record.Record{}
	}
}

func waitTails(t *testing.T, h *DebugServer, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); h.JournalStats().ActiveTails != want; {
		if time.Now().After(deadline) {
			t.Fatalf("active tails = %d, want %d", h.JournalStats().ActiveTails, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// A live tail counts as an active tail while it is attached, follows
// the decision log from where it connected, and stops counting once
// the client goes away.
func TestWatchDecisionsDeliversEntries(t *testing.T) {
	c, _ := newCoalition(t)
	h, ts := newDebugHTTP(t, c)
	grantOnce(t, c) // logged before the tail connects: not delivered
	lt := followLive(t, h, ts.URL, 1)

	grantOnce(t, c)
	e := AuditFromRecord(lt.next(t))
	if !e.Granted || e.Object != "o1" || e.Server != "s1" || e.DecisionID == "" {
		t.Fatalf("entry = %+v", e)
	}
	srv, _ := c.Server("s1")
	if records, _ := srv.Audit(); len(records) != 2 || records[1].DecisionID != e.DecisionID {
		t.Fatalf("streamed %s, log holds %+v", e.DecisionID, records)
	}

	lt.stop()
	waitTails(t, h, 0)
	// Deciding with nobody watching must not block.
	grantOnce(t, c)
}

// A tail that falls more than the log's capacity behind loses the
// evicted decisions: one gap frame reports exactly them, and the
// stream resumes with the oldest retained decision.
func TestWatchDecisionsDropsOnFullBuffer(t *testing.T) {
	c, _ := newCoalition(t)
	const capacity = 8
	c.Engine.SetRecorder(record.New(record.Config{Capacity: capacity, DecisionsOnly: true, Registry: obs.NewRegistry()}))
	h, ts := newDebugHTTP(t, c)
	// A 5 s poll keeps the tail from reading the burst below until the
	// drain's final read, by when the oldest decisions are gone.
	resp, err := http.Get(ts.URL + "/debug/journal?poll=5s&cursor=" + strconv.FormatUint(math.MaxUint64, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// The connect meta, then the caught-up meta of the first read.
	readFrames(t, sc, 2)

	const extra = 5
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < capacity+extra; i++ {
		res, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.Decision.ID)
	}
	h.Drain()

	frames := readFrames(t, sc, 1+capacity)
	if g := frames[0].Gap; frames[0].Kind != journal.KindGap || g.Missed != extra {
		t.Fatalf("first frame after the burst = %+v, want a gap of %d", frames[0], extra)
	}
	if first, last := frames[1].Record.DecisionID, frames[capacity].Record.DecisionID; first != ids[extra] || last != ids[len(ids)-1] {
		t.Fatalf("stream ran %s..%s, want %s..%s", first, last, ids[extra], ids[len(ids)-1])
	}
	if g := h.JournalStats().Gaps; g != extra {
		t.Fatalf("gaps = %d, want %d", g, extra)
	}
}

func TestSnapshotAggregates(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	d := NewDaemonWith(srv, DaemonConfig{MaxConns: 4})
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot(-1, d)
	if snap.Version != SnapshotVersion {
		t.Fatalf("version = %d", snap.Version)
	}
	if snap.Grants != 1 || snap.Denies != 0 || snap.Decisions != 1 {
		t.Fatalf("counters = %+v", snap)
	}
	if len(snap.Servers) != 2 {
		t.Fatalf("servers = %+v", snap.Servers)
	}
	if len(snap.PolicyDigest) != 64 {
		t.Fatalf("digest = %q", snap.PolicyDigest)
	}
	if snap.PolicyDigest != core.PolicyDigest(c.Engine) {
		t.Fatal("digest not stable")
	}
	if snap.Migrations != 1 {
		t.Fatalf("migrations = %d", snap.Migrations)
	}
	if len(snap.Conns) != 1 {
		t.Fatalf("conns = %+v", snap.Conns)
	}
	cs := snap.Conns[0]
	if cs.Server != "s1" || cs.Inflight != 1 || cs.ConnsTotal != 1 || cs.MaxConns != 4 ||
		cs.Saturated || cs.Draining || cs.Subjects != 1 {
		t.Fatalf("daemon stats = %+v", cs)
	}
}

// TestSnapshotCarriesBudgetSeries: a finite-duration permission shows
// up in the snapshot with its consumption series.
func TestSnapshotCarriesBudgetSeries(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	policy := `
user o1
role r
permission p read * @ * {
    duration 60s
    scheme global
}
grant r p
assign o1 r
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.AddServer("s1")
	srv.HostResource("f", []byte("x"))
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Depart(sub)

	c.Snapshot(-1) // first sample at t=0
	clk.Advance(15)
	snap := c.Snapshot(-1)
	if len(snap.Budgets) != 1 {
		t.Fatalf("budgets = %+v", snap.Budgets)
	}
	b := snap.Budgets[0]
	if b.Consumed != 15 || b.Budget != 60 || b.BurnRate != 1 || b.ETA != 45 {
		t.Fatalf("budget = %+v", b)
	}
	if len(b.Series) != 2 {
		t.Fatalf("series = %+v", b.Series)
	}
}

// walCheck returns the readiness document's decision_wal check.
func walCheck(t *testing.T, h Health) Check {
	t.Helper()
	for _, ck := range h.Checks {
		if ck.Name == "decision_wal" {
			return ck
		}
	}
	t.Fatalf("no decision_wal check: %+v", h.Checks)
	return Check{}
}

// A WAL append that fails (disk full) fails readiness on decision_wal.
// The failure is sticky: the recorder stops writing the WAL at its
// first failure, so every later decision is missing from the file, and
// readiness recovers only when a new recorder is attached — not on a
// later write, as the JSONL audit sink this check replaced did.
func TestReadyzDecisionWALDegradeAndRecover(t *testing.T) {
	c, _ := newCoalition(t)
	c.Engine.SetObs(obs.NewRegistry()) // the error counter is this test's own
	h := c.Readiness()
	if ck := walCheck(t, h); !h.OK || !ck.OK || ck.Detail != "not configured" {
		t.Fatalf("initial readiness = %+v", h)
	}

	attachWAL(c, faults.NewDiskFullWriter(io.Discard, 0))
	if h := c.Readiness(); !h.OK {
		t.Fatalf("readiness before the first append = %+v", h)
	}
	grantOnce(t, c) // the first append fails → sticky error
	for i := 0; i < 2; i++ {
		h := c.Readiness()
		if ck := walCheck(t, h); h.OK || ck.OK || !strings.Contains(ck.Detail, "disk full") {
			t.Fatalf("readiness with a failed WAL = %+v", h)
		}
		if st := c.Engine.Recorder().Status(); !st.WALDegraded || st.Errors != 1 {
			t.Fatalf("recorder status = %+v", st)
		}
		if v := c.Engine.Obs().CounterValue("stac_recorder_errors_total", ""); v != 1 {
			t.Fatalf("recorder error counter = %d", v)
		}
		grantOnce(t, c) // not written, and readiness stays failed
	}

	// Attaching a new recorder clears the failure: readiness recovers.
	wal := newSyncBuffer()
	attachWAL(c, wal)
	if h := c.Readiness(); !h.OK || walCheck(t, h).Detail != "" {
		t.Fatalf("readiness after a new recorder = %+v", h)
	}
	grantOnce(t, c)
	if !strings.Contains(wal.String(), "\"granted\":true") {
		t.Fatalf("WAL content = %q", wal.String())
	}
}

// Two coalitions on one registry: each recorder's errors are its own
// WAL's failures, a healthy one reports none beside a failed one, and
// the shared stac_recorder_errors_total adds them up.
func TestRecorderErrorsPerCoalition(t *testing.T) {
	reg := obs.NewRegistry()
	failing, _ := newCoalition(t)
	healthy, _ := newCoalition(t)
	for _, c := range []*Coalition{failing, healthy} {
		c.Engine.SetObs(reg)
	}
	attachWAL(failing, faults.NewDiskFullWriter(io.Discard, 0))
	attachWAL(healthy, newSyncBuffer())
	grantOnce(t, failing)
	grantOnce(t, healthy)
	if st := failing.Engine.Recorder().Status(); st.Errors != 1 || !st.WALDegraded {
		t.Fatalf("failing coalition's recorder = %+v, want 1 error", st)
	}
	if st := healthy.Engine.Recorder().Status(); st.Errors != 0 || st.WALDegraded {
		t.Fatalf("healthy coalition's recorder = %+v, want none of the other's errors", st)
	}
	if v := reg.CounterValue("stac_recorder_errors_total", ""); v != 1 {
		t.Fatalf("shared recorder error counter = %d, want 1", v)
	}
	// Once the second coalition's WAL fails too, each reports its one.
	attachWAL(healthy, faults.NewDiskFullWriter(io.Discard, 0))
	grantOnce(t, healthy)
	for name, c := range map[string]*Coalition{"first": failing, "second": healthy} {
		if st := c.Engine.Recorder().Status(); st.Errors != 1 {
			t.Fatalf("%s coalition's recorder = %+v, want its own 1 error", name, st)
		}
	}
	if v := reg.CounterValue("stac_recorder_errors_total", ""); v != 2 {
		t.Fatalf("shared recorder error counter = %d, want 2", v)
	}
}

func TestReadyzConnSaturationFlipsAndRecovers(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	d := NewDaemonWith(srv, DaemonConfig{MaxConns: 1})
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if h := c.Readiness(d); !h.OK {
		t.Fatalf("readiness before saturation = %+v", h)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// The accept is asynchronous: wait for the daemon to track it.
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never tracked")
		}
		time.Sleep(time.Millisecond)
	}
	h := c.Readiness(d)
	if h.OK {
		t.Fatalf("readiness at MaxConns = %+v", h)
	}
	cl.Close()
	for deadline := time.Now().Add(2 * time.Second); ; {
		if h := c.Readiness(d); h.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never recovered: %+v", c.Readiness(d))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLivenessAlwaysOK(t *testing.T) {
	c, _ := newCoalition(t)
	attachWAL(c, faults.NewDiskFullWriter(io.Discard, 0))
	grantOnce(t, c)
	if h := c.Readiness(); h.OK {
		t.Fatalf("readiness with a failed WAL = %+v", h)
	}
	if h := c.Liveness(); !h.OK {
		t.Fatalf("liveness = %+v", h)
	}
}

// newDebugHTTP serves a DebugServer over httptest, wired to a fresh
// registry so parallel tests don't share gauge state.
func newDebugHTTP(t *testing.T, c *Coalition, daemons ...*Daemon) (*DebugServer, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	h := NewDebugServer(c, daemons, nil, DebugConfig{Registry: reg})
	ts := httptest.NewServer(h.Mux())
	t.Cleanup(func() { h.Drain(); ts.Close() })
	return h, ts
}

func TestDebugEndpoints(t *testing.T) {
	c, _ := newCoalition(t)
	_, ts := newDebugHTTP(t, c)
	grantOnce(t, c)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteString("\n")
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok": true`) {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "policy_loaded") {
		t.Fatalf("readyz = %d %q", code, body)
	}
	code, body := get("/debug/snapshot")
	if code != 200 {
		t.Fatalf("snapshot = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.Version != SnapshotVersion || snap.Grants != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if code, _ := get("/debug/snapshot?tail=bogus"); code != 400 {
		t.Fatalf("bad tail = %d", code)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "stac_authz_granted_total 1") {
		t.Fatalf("metrics = %d %q", code, body)
	}

	// readyz flips to 503 over HTTP when the decision WAL degrades.
	attachWAL(c, faults.NewDiskFullWriter(io.Discard, 0))
	grantOnce(t, c)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d", code)
	}
}

// TestDebugSurface pins the observability surface: the status of a GET
// of every path the mux serves, and of the paths it no longer serves.
// The table must list exactly the patterns Mux registers, so a new
// endpoint edits it.
func TestDebugSurface(t *testing.T) {
	surface := []struct {
		path string
		code int
	}{
		{"/metrics", http.StatusOK},
		{"/debug/pprof/", http.StatusOK},
		{"/debug/pprof/cmdline", http.StatusOK},
		{"/debug/pprof/profile?seconds=1", http.StatusOK},
		{"/debug/pprof/symbol", http.StatusOK},
		{"/debug/pprof/trace?seconds=0.01", http.StatusOK},
		{"/debug/trace", http.StatusOK},
		{"/debug/explain", http.StatusBadRequest}, // served; the id is missing
		{"/debug/snapshot", http.StatusOK},
		{"/healthz", http.StatusOK},
		{"/readyz", http.StatusOK},
		{"/debug/journal?max=1", http.StatusOK},
		// Each of these re-served data another endpoint carries: the
		// snapshot's cost and budgets sections, /metrics as expvar, the
		// snapshot's perf section, its clause census, the journal.
		{"/debug/cost", http.StatusNotFound},
		{"/debug/budgets", http.StatusNotFound},
		{"/debug/vars", http.StatusNotFound},
		{"/debug/perf", http.StatusNotFound},
		{"/debug/coverage", http.StatusNotFound},
		{"/debug/watch", http.StatusNotFound},
	}

	src, err := parser.ParseFile(token.NewFileSet(), "debug.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var registered []string
	ast.Inspect(src, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "mux" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok {
			p, _ := strconv.Unquote(lit.Value)
			registered = append(registered, p)
		}
		return true
	})
	var served []string
	for _, e := range surface {
		if e.code != http.StatusNotFound {
			served = append(served, strings.SplitN(e.path, "?", 2)[0])
		}
	}
	if strings.Join(registered, " ") != strings.Join(served, " ") {
		t.Fatalf("Mux registers %v, the table serves %v", registered, served)
	}

	c, _ := newCoalition(t)
	c.Engine.EnableCostProfiling()
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	h := NewDebugServer(c, nil, obs.NewTracer(16), DebugConfig{Registry: reg})
	ts := httptest.NewServer(h.Mux())
	t.Cleanup(func() { h.Drain(); ts.Close() })
	grantOnce(t, c) // a decision for the journal to stream

	for _, e := range surface {
		resp, err := http.Get(ts.URL + e.path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != e.code {
			t.Errorf("GET %s = %d, want %d", e.path, resp.StatusCode, e.code)
		}
	}
}

// readFrames decodes the next n journal frames from an SSE body.
func readFrames(t *testing.T, sc *bufio.Scanner, n int) []journal.Frame {
	t.Helper()
	var out []journal.Frame
	event := ""
	for len(out) < n && sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			fr, err := journal.DecodeFrame(event, []byte(data))
			if err != nil {
				t.Fatalf("bad journal frame %q: %v", data, err)
			}
			out = append(out, fr)
		}
	}
	if len(out) < n {
		t.Fatalf("stream ended with %d/%d frames (%v)", len(out), n, sc.Err())
	}
	return out
}

// The live tail streams Server-Sent Events whose decide records carry
// what `stacctl watch` filters on (object, permission, server, served
// verdict); /debug/watch is gone, and Drain ends the stream.
func TestWatchSSEStreamsAndFilters(t *testing.T) {
	c, _ := newCoalition(t)
	h, ts := newDebugHTTP(t, c)

	resp, err := http.Get(ts.URL + "/debug/journal?cursor=" + strconv.FormatUint(math.MaxUint64, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	waitTails(t, h, 1)

	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Request(sub, "delete", "f-s1", RequestContext{Store: store}); err == nil {
		t.Fatal("uncovered op granted")
	}
	if _, err := srv.Request(sub, model.OpRead, "missing", RequestContext{Store: store}); err == nil {
		t.Fatal("unknown resource granted")
	}

	var got []AuditEntry
	sc := bufio.NewScanner(resp.Body)
	for len(got) < 3 {
		for _, fr := range readFrames(t, sc, 1) {
			if fr.Kind == journal.KindRecord {
				got = append(got, AuditFromRecord(*fr.Record))
			}
		}
	}
	for i, want := range []struct {
		granted bool
		perm    string
		reason  string
	}{{true, "p-read", ""}, {false, "", "no active role"}, {false, "p-read", "unknown resource"}} {
		e := got[i]
		if e.Granted != want.granted || e.Perm != want.perm || e.Object != "o1" || e.Server != "s1" ||
			!strings.Contains(e.Reason, want.reason) {
			t.Fatalf("decision %d = %+v, want %+v", i, e, want)
		}
	}

	// The journal-backed watch replaced /debug/watch.
	gone, err := http.Get(ts.URL + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/watch = %d, want 404", gone.StatusCode)
	}

	// Drain terminates the stream (Shutdown would otherwise hang on the
	// in-flight SSE handler) and the tail stops counting.
	drained := make(chan struct{})
	go func() { h.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on SSE handler")
	}
	waitTails(t, h, 0)
}

func TestBudgetSamplerFeedsSeries(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	policy := `
user o1
role r
permission p read * @ * {
    duration 60s
    scheme global
}
grant r p
assign o1 r
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.AddServer("s1")
	srv.HostResource("f", []byte("x"))
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Depart(sub)

	h := NewDebugServer(c, nil, nil, DebugConfig{Registry: obs.NewRegistry()})
	h.StartBudgetSampler(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		clk.Advance(1)
		sts := c.Engine.SampleBudgets(-1)
		if len(sts) == 1 && len(sts[0].Series) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never fed the series")
		}
		time.Sleep(time.Millisecond)
	}
	h.Drain()
}
