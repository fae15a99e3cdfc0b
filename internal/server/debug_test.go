package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
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

// openWatch attaches a /debug/watch stream and waits until the
// coalition counts it, so every later decision lies past its cursor.
func openWatch(t *testing.T, c *Coalition, url string, want int) *http.Response {
	t.Helper()
	resp, err := http.Get(url + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	for deadline := time.Now().Add(2 * time.Second); c.Watchers() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("watchers = %d, want %d", c.Watchers(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return resp
}

// A watch stream counts as a watcher while it is attached, follows
// the decision log from where it connected, and stops counting once
// the client goes away.
func TestWatchDecisionsDeliversEntries(t *testing.T) {
	c, _ := newCoalition(t)
	_, ts := newDebugHTTP(t, c)
	grantOnce(t, c) // logged before the stream connects: not delivered
	resp := openWatch(t, c, ts.URL, 1)

	grantOnce(t, c)
	events := readSSEEvents(t, bufio.NewScanner(resp.Body), 1, 5*time.Second)
	e := events[0]
	if !e.Granted || e.Object != "o1" || e.Server != "s1" || e.DecisionID == "" {
		t.Fatalf("entry = %+v", e)
	}
	srv, _ := c.Server("s1")
	if records, _ := srv.Audit(); len(records) != 2 || records[1].DecisionID != e.DecisionID {
		t.Fatalf("streamed %s, log holds %+v", e.DecisionID, records)
	}

	resp.Body.Close()
	for deadline := time.Now().Add(2 * time.Second); c.Watchers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("watchers after disconnect = %d", c.Watchers())
		}
		time.Sleep(time.Millisecond)
	}
	// Deciding with nobody watching must not block.
	grantOnce(t, c)
}

// A watcher that falls more than the log's capacity behind loses the
// evicted decisions: they are counted as dropped, exactly the cursor
// gap, and the stream resumes with the oldest retained decision.
func TestWatchDecisionsDropsOnFullBuffer(t *testing.T) {
	c, _ := newCoalition(t)
	h := NewDebugServer(c, nil, nil, DebugConfig{Registry: obs.NewRegistry()})
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.handleWatch(rec, httptest.NewRequest(http.MethodGet, "/debug/watch", nil))
	}()
	for deadline := time.Now().Add(2 * time.Second); c.Watchers() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("watcher never attached")
		}
		time.Sleep(time.Millisecond)
	}
	// Decisions logged faster than the watcher polls: holding the log's
	// lock over the whole burst keeps the watcher from reading any of
	// it until the oldest entries are gone.
	const extra = 5
	c.auditMu.Lock()
	for i := 0; i < decisionLogCapacity+extra; i++ {
		c.decisions.Append(AuditEntry{DecisionID: fmt.Sprintf("d-%d", i), Server: "s1"})
	}
	c.auditMu.Unlock()
	h.Drain()
	<-done

	if d := c.WatchDropped(); d != extra {
		t.Fatalf("dropped = %d, want %d", d, extra)
	}
	events := readSSEEvents(t, bufio.NewScanner(strings.NewReader(rec.Body.String())), decisionLogCapacity, 5*time.Second)
	if first, last := events[0].DecisionID, events[len(events)-1].DecisionID; first != fmt.Sprintf("d-%d", extra) ||
		last != fmt.Sprintf("d-%d", decisionLogCapacity+extra-1) {
		t.Fatalf("stream ran %s..%s", first, last)
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

// errWriter always fails, simulating an unwritable audit sink (disk
// full, rotated-away file, dead pipe).
type errWriter struct{ err error }

func (w errWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestReadyzAuditSinkDegradeAndRecover(t *testing.T) {
	c, _ := newCoalition(t)
	if h := c.Readiness(); !h.OK {
		t.Fatalf("initial readiness = %+v", h)
	}

	c.SetAuditSink(errWriter{errors.New("disk full")})
	grantOnce(t, c) // decision lost → sticky error
	h := c.Readiness()
	if h.OK {
		t.Fatalf("readiness with failing sink = %+v", h)
	}
	found := false
	for _, ck := range h.Checks {
		if ck.Name == "audit_sink" {
			found = true
			if ck.OK || !strings.Contains(ck.Detail, "disk full") {
				t.Fatalf("audit_sink check = %+v", ck)
			}
		}
	}
	if !found {
		t.Fatalf("no audit_sink check: %+v", h.Checks)
	}
	if _, _, errs := c.AuditSinkStatus(); errs != 1 {
		t.Fatalf("sink errors = %d", errs)
	}
	if v := c.Engine.Obs().CounterValue("stac_audit_sink_errors_total", ""); v != 1 {
		t.Fatalf("sink error counter = %d", v)
	}

	// Replacing the sink clears the sticky error: readiness recovers.
	var buf strings.Builder
	c.SetAuditSink(&buf)
	if h := c.Readiness(); !h.OK {
		t.Fatalf("readiness after sink replacement = %+v", h)
	}
	grantOnce(t, c)
	if !strings.Contains(buf.String(), "\"granted\":true") {
		t.Fatalf("sink content = %q", buf.String())
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
	c.SetAuditSink(errWriter{errors.New("down")})
	grantOnce(t, c)
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
	h := NewDebugServer(c, daemons, nil, DebugConfig{Registry: reg, Heartbeat: 50 * time.Millisecond})
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
	if code, _ := get("/debug/budgets"); code != 200 {
		t.Fatalf("budgets = %d", code)
	}
	if code, _ := get("/debug/budgets?tail=bogus"); code != 400 {
		t.Fatalf("bad tail = %d", code)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "stac_authz_granted_total 1") {
		t.Fatalf("metrics = %d %q", code, body)
	}

	// readyz flips to 503 over HTTP when the sink degrades.
	c.SetAuditSink(errWriter{errors.New("gone")})
	grantOnce(t, c)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d", code)
	}
}

// readSSEEvents collects up to n "data:" payloads from an SSE body.
func readSSEEvents(t *testing.T, body *bufio.Scanner, n int, deadline time.Duration) []AuditEntry {
	t.Helper()
	done := time.After(deadline)
	var out []AuditEntry
	lines := make(chan string)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(lines)
		for body.Scan() {
			select {
			case lines <- body.Text():
			case <-stop:
				return
			}
		}
	}()
	for len(out) < n {
		select {
		case ln, ok := <-lines:
			if !ok {
				return out
			}
			if data, found := strings.CutPrefix(ln, "data: "); found {
				var e AuditEntry
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatalf("bad SSE payload %q: %v", data, err)
				}
				out = append(out, e)
			}
		case <-done:
			t.Fatalf("timed out with %d/%d events", len(out), n)
		}
	}
	return out
}

func TestWatchSSEStreamsAndFilters(t *testing.T) {
	c, _ := newCoalition(t)
	h, ts := newDebugHTTP(t, c)

	resp, err := http.Get(ts.URL + "/debug/watch?verdict=grant&object=o1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	// Wait until the handler has subscribed before deciding.
	deadline := time.Now().Add(2 * time.Second)
	for c.Watchers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	// A denial must be filtered out by verdict=grant.
	if _, err := srv.Request(sub, "delete", "f-s1", RequestContext{Store: store}); err == nil {
		t.Fatal("uncovered op granted")
	}
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}

	events := readSSEEvents(t, bufio.NewScanner(resp.Body), 2, 5*time.Second)
	for _, e := range events {
		if !e.Granted || e.Object != "o1" {
			t.Fatalf("filtered stream leaked %+v", e)
		}
	}

	// A bad filter is rejected up front.
	bad, err := http.Get(ts.URL + "/debug/watch?verdict=maybe")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad verdict = %d", bad.StatusCode)
	}

	// Drain terminates the stream (Shutdown would otherwise hang on the
	// in-flight SSE handler) and unsubscribes the watcher.
	drained := make(chan struct{})
	go func() { h.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on SSE handler")
	}
	for deadline := time.Now().Add(2 * time.Second); c.Watchers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("watchers after drain = %d", c.Watchers())
		}
		time.Sleep(time.Millisecond)
	}
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
