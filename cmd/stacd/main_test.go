package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/server"
)

const testPolicy = `
user device-1
role worker
permission p-read read * @ *
grant worker p-read
assign device-1 worker
`

func writePolicy(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.stac")
	if err := os.WriteFile(path, []byte(testPolicy), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStartServesTCPEndToEnd(t *testing.T) {
	var out strings.Builder
	daemons, err := start(options{
		policyPath: writePolicy(t),
		servers:    "s1,s2",
		listen:     "127.0.0.1:0",
		key:        "test-key",
		issueCreds: true,
		resources:  resourceFlags{"s1:fileA=hello", "s2:fileB=world"},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(daemons)

	// Parse the printed address and credential lines.
	addrs := map[string]string{}
	var cred proof.Credential
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		fields := strings.SplitN(line, " ", 3)
		switch {
		case fields[0] == "credential":
			if err := json.Unmarshal([]byte(fields[2]), &cred); err != nil {
				t.Fatalf("credential line %q: %v", line, err)
			}
		case len(fields) == 2:
			addrs[fields[0]] = fields[1]
		}
	}
	if len(addrs) != 2 || cred.Object != "device-1" {
		t.Fatalf("output parse: addrs=%v cred=%+v\n%s", addrs, cred, out.String())
	}

	// A TCP client authenticates with the printed credential and reads
	// the hosted resource.
	cl, err := server.Dial(addrs["s1"])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	data, err := cl.Access(model.OpRead, "fileA", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("data = %q", data)
	}
}

func TestStartErrors(t *testing.T) {
	cases := []struct {
		name string
		opts options
	}{
		{"missing policy file", options{policyPath: "/nonexistent/policy", servers: "s1", listen: "127.0.0.1:0"}},
		{"bad resource spec", options{servers: "s1", listen: "127.0.0.1:0", resources: resourceFlags{"nocolon"}}},
		{"bad resource content", options{servers: "s1", listen: "127.0.0.1:0", resources: resourceFlags{"s1:noequals"}}},
		{"unknown resource server", options{servers: "s1", listen: "127.0.0.1:0", resources: resourceFlags{"s9:x=y"}}},
		{"duplicate server", options{servers: "s1,s1", listen: "127.0.0.1:0"}},
		{"bad listen address", options{servers: "s1", listen: "256.256.256.256:bad"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			daemons, err := start(tc.opts, &strings.Builder{})
			if err == nil {
				shutdown(daemons)
				t.Fatal("start succeeded")
			}
		})
	}
}

func TestStartServesMetricsEndpoints(t *testing.T) {
	var out strings.Builder
	app, err := start(options{
		policyPath:  writePolicy(t),
		servers:     "s1",
		listen:      "127.0.0.1:0",
		key:         "test-key",
		metricsAddr: "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(app)

	var metricsAddr string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics "); ok {
			metricsAddr = rest
		}
	}
	if metricsAddr == "" {
		t.Fatalf("no metrics line in output:\n%s", out.String())
	}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /metrics speaks the Prometheus text format and exposes the
	// engine's pre-registered decision counters.
	body, ct := get("/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE stac_authz_granted_total counter",
		"stac_authz_denied_total{reason=",
		"# TYPE stac_authz_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/vars carries the expvar JSON mirror.
	body, _ = get("/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["stac"]; !ok {
		t.Fatal("/debug/vars has no stac group")
	}

	// pprof answers on the standard paths.
	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestResourceFlags(t *testing.T) {
	var r resourceFlags
	if err := r.Set("a:b=c"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("d:e=f"); err != nil {
		t.Fatal(err)
	}
	if r.String() != "a:b=c,d:e=f" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestDaemonConfigFromFlags(t *testing.T) {
	opts := options{
		readTimeout:  time.Minute,
		writeTimeout: 5 * time.Second,
		maxConns:     7,
		maxLineBytes: 4096,
	}
	cfg := opts.daemonConfig()
	want := server.DaemonConfig{
		ReadTimeout:  time.Minute,
		WriteTimeout: 5 * time.Second,
		MaxConns:     7,
		MaxLineBytes: 4096,
	}
	if cfg != want {
		t.Fatalf("daemonConfig = %+v, want %+v", cfg, want)
	}
}

func TestStartAppliesTransportLimits(t *testing.T) {
	var out strings.Builder
	daemons, err := start(options{
		policyPath:   writePolicy(t),
		servers:      "s1",
		listen:       "127.0.0.1:0",
		key:          "test-key",
		maxLineBytes: 256,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(daemons)
	addr := strings.Fields(strings.TrimSpace(out.String()))[1]
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := `{"type":"info","token":"` + strings.Repeat("x", 1024) + `"}` + "\n"
	if _, err := conn.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "256-byte limit") {
		t.Fatalf("oversized request reply = %q", reply)
	}
}

const ceilingPolicy = `
user device-1
role worker
permission p-doc read doc @ * {
    spatial count(0, 2, sigma[r=doc])
}
grant worker p-doc
assign device-1 worker
`

// The observability listener serves the span ring on /debug/trace and
// resolves decision IDs on /debug/explain, with every decision also
// landing in the -audit-log JSONL file.
func TestStartServesTraceAndExplainEndpoints(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "policy.stac")
	if err := os.WriteFile(policy, []byte(ceilingPolicy), 0o600); err != nil {
		t.Fatal(err)
	}
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	var out strings.Builder
	app, err := start(options{
		policyPath:  policy,
		servers:     "s1",
		listen:      "127.0.0.1:0",
		key:         "test-key",
		issueCreds:  true,
		metricsAddr: "127.0.0.1:0",
		trace:       true,
		auditLog:    auditPath,
		resources:   resourceFlags{"s1:doc=payload"},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(app)

	var s1Addr, metricsAddr string
	var cred proof.Credential
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "s1 "):
			s1Addr = strings.TrimPrefix(line, "s1 ")
		case strings.HasPrefix(line, "metrics "):
			metricsAddr = strings.TrimPrefix(line, "metrics ")
		case strings.HasPrefix(line, "credential "):
			blob := strings.SplitN(line, " ", 3)[2]
			if err := json.Unmarshal([]byte(blob), &cred); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Two grants, then a count-ceiling denial, all under one trace.
	cl, err := server.Dial(s1Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTracer(1).NewContext()
	cl.SetTrace(tc)
	for i := 0; i < 2; i++ {
		if _, err := cl.Access(model.OpRead, "doc", "", nil); err != nil {
			t.Fatalf("grant %d: %v", i+1, err)
		}
	}
	_, err = cl.Access(model.OpRead, "doc", "", nil)
	se, ok := err.(*server.ServerError)
	if !ok || se.DecisionID == "" {
		t.Fatalf("denial error = %v", err)
	}

	// /debug/trace?id= exports the itinerary as Chrome trace events.
	resp, err := http.Get("http://" + metricsAddr + "/debug/trace?id=" + tc.Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", resp.StatusCode, body)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"wire.access", "authorize", "prefix_eval"} {
		if !names[want] {
			t.Fatalf("trace export lacks %q span (have %v)", want, names)
		}
	}

	// /debug/explain resolves the denial to its violated clause.
	resp, err = http.Get("http://" + metricsAddr + "/debug/explain?id=" + se.DecisionID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/explain status %d: %s", resp.StatusCode, body)
	}
	var entry server.AuditEntry
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatalf("/debug/explain not JSON: %v", err)
	}
	if entry.Granted || entry.Explanation == nil ||
		!strings.Contains(entry.Explanation.Detail, "count 3 exceeds ceiling 2") {
		t.Fatalf("explain entry = %s", body)
	}
	if entry.TraceID != tc.Trace.String() {
		t.Fatalf("explain trace = %q, want %q", entry.TraceID, tc.Trace)
	}

	// Missing and unknown IDs answer 400 / 404.
	if resp, err = http.Get("http://" + metricsAddr + "/debug/explain"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing id status = %d", resp.StatusCode)
	}
	if resp, err = http.Get("http://" + metricsAddr + "/debug/explain?id=d-ffffffffffffffff"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", resp.StatusCode)
	}

	// The audit log carries one JSON line per decision.
	shutdown(app)
	app.daemons = nil // idempotent deferred shutdown
	app.metricsSrv = nil
	app.auditFile = nil
	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("audit log has %d lines, want 3:\n%s", len(lines), data)
	}
	var last server.AuditEntry
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Granted || last.DecisionID != se.DecisionID {
		t.Fatalf("audit tail = %+v, want denial %s", last, se.DecisionID)
	}

	// After Shutdown the metrics port no longer accepts connections.
	if _, err := http.Get("http://" + metricsAddr + "/metrics"); err == nil {
		t.Fatal("metrics listener still serving after shutdown")
	}
}

// The observability listener serves the fleet-telemetry endpoints:
// versioned snapshots, health probes and the SSE decision watch — and
// shutdown drains an attached watcher instead of hanging on it.
func TestStartServesFleetEndpoints(t *testing.T) {
	var out strings.Builder
	app, err := start(options{
		policyPath:           writePolicy(t),
		servers:              "s1",
		listen:               "127.0.0.1:0",
		key:                  "test-key",
		issueCreds:           true,
		metricsAddr:          "127.0.0.1:0",
		resources:            resourceFlags{"s1:fileA=hello"},
		budgetSampleInterval: time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(app)

	var s1Addr, metricsAddr string
	var cred proof.Credential
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "s1 "):
			s1Addr = strings.TrimPrefix(line, "s1 ")
		case strings.HasPrefix(line, "metrics "):
			metricsAddr = strings.TrimPrefix(line, "metrics ")
		case strings.HasPrefix(line, "credential "):
			if err := json.Unmarshal([]byte(strings.SplitN(line, " ", 3)[2]), &cred); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Attach a watcher before deciding anything.
	watchResp, err := http.Get("http://" + metricsAddr + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	if ct := watchResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/debug/watch content type = %q", ct)
	}
	watchLines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(watchResp.Body)
		for sc.Scan() {
			watchLines <- sc.Text()
		}
		close(watchLines)
	}()

	cl, err := server.Dial(s1Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Access(model.OpRead, "fileA", "", nil); err != nil {
		t.Fatal(err)
	}

	// The watcher receives the grant as an SSE decision event.
	deadline := time.After(5 * time.Second)
	var event string
	for event == "" {
		select {
		case line, ok := <-watchLines:
			if !ok {
				t.Fatal("watch stream closed before the decision")
			}
			if strings.HasPrefix(line, "data: ") {
				event = strings.TrimPrefix(line, "data: ")
			}
		case <-deadline:
			t.Fatal("no decision event on /debug/watch")
		}
	}
	var entry server.AuditEntry
	if err := json.Unmarshal([]byte(event), &entry); err != nil {
		t.Fatalf("watch event %q: %v", event, err)
	}
	if !entry.Granted || entry.Object != "device-1" {
		t.Fatalf("watch entry = %+v", entry)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/debug/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/debug/snapshot status %d", code)
	}
	var snap server.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != server.SnapshotVersion || snap.Grants != 1 ||
		len(snap.Conns) != 1 || snap.Conns[0].Inflight != 1 || snap.Watchers != 1 {
		t.Fatalf("snapshot = %s", body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	code, body = get("/readyz")
	if code != http.StatusOK || !strings.Contains(string(body), "policy_loaded") {
		t.Fatalf("/readyz = %d %s", code, body)
	}
	if code, _ := get("/debug/budgets"); code != http.StatusOK {
		t.Fatalf("/debug/budgets status %d", code)
	}

	// Shutdown with the watcher still attached: Drain must release the
	// SSE handler so http.Server.Shutdown completes promptly.
	done := make(chan struct{})
	go func() { shutdown(app); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on attached watcher")
	}
	for {
		if _, ok := <-watchLines; !ok {
			break
		}
	}
	app.daemons = nil // idempotent deferred shutdown
	app.metricsSrv = nil
	app.debug = nil
	app.auditFile = nil
}

func TestStartWiresRecorderShadowAndCoverage(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "decisions.wal")
	// A policy WITH a spatial clause, so coverage has cells to count.
	covPolicy := "user device-1\nrole worker\npermission p-read read * @ * {\n    spatial count(0, 5, sigma[op=read])\n}\ngrant worker p-read\nassign device-1 worker\n"
	covPath := filepath.Join(dir, "policy.stac")
	if err := os.WriteFile(covPath, []byte(covPolicy), 0o600); err != nil {
		t.Fatal(err)
	}
	// Candidate policy without the read permission: every grant flips.
	shadowPath := filepath.Join(dir, "shadow.stac")
	if err := os.WriteFile(shadowPath, []byte("user device-1\nrole worker\nassign device-1 worker\n"), 0o600); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	app, err := start(options{
		policyPath:     covPath,
		servers:        "s1",
		listen:         "127.0.0.1:0",
		key:            "test-key",
		issueCreds:     true,
		resources:      resourceFlags{"s1:fileA=hello"},
		metricsAddr:    "127.0.0.1:0",
		record:         true,
		recordCapacity: 128,
		recordWAL:      walPath,
		shadowPolicy:   shadowPath,
		cost:           true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(app)

	var addr, metricsAddr string
	var cred proof.Credential
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics "); ok {
			metricsAddr = rest
		} else if rest, ok := strings.CutPrefix(line, "s1 "); ok {
			addr = rest
		} else if rest, ok := strings.CutPrefix(line, "credential device-1 "); ok {
			if err := json.Unmarshal([]byte(rest), &cred); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Access(model.OpRead, "fileA", "", nil); err != nil {
		t.Fatalf("shadow policy changed the served verdict: %v", err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	// The flip and the recorder's activity surface on /metrics, along
	// with the Go runtime self-telemetry.
	body := get("/metrics")
	for _, want := range []string{"stac_shadow_flip_total 1", "stac_recorder_records_total", "stac_go_goroutines"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// /debug/cost lists the served policy's clause census and cost
	// profile, one row per clause; the root's outcome tallies split
	// its evaluations.
	var costRep cost.Report
	if err := json.Unmarshal([]byte(get("/debug/cost")), &costRep); err != nil {
		t.Fatalf("/debug/cost not JSON: %v", err)
	}
	if len(costRep.Clauses) == 0 || costRep.Amplification.PrefixEvals == 0 {
		t.Fatalf("/debug/cost report = %+v", costRep)
	}
	if root := costRep.Clauses[0]; root.Evals == 0 || root.Satisfied+root.Violated+root.Pending != root.Evals {
		t.Fatalf("/debug/cost root row = %+v, want evals split by outcome", root)
	}

	// /debug/snapshot carries the v2 fields.
	var snap server.Snapshot
	if err := json.Unmarshal([]byte(get("/debug/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 6 || snap.ShadowDigest == "" || snap.ShadowFlips != 1 ||
		snap.Recorder == nil || snap.Recorder.Total == 0 || snap.Runtime.Goroutines < 1 {
		t.Fatalf("snapshot versioned fields = %+v", snap)
	}
	// v5: the cost section mirrors /debug/cost.
	if snap.Cost == nil || len(snap.Cost.Clauses) == 0 {
		t.Fatalf("snapshot cost section = %+v", snap.Cost)
	}
	if len(snap.Perf.Stripes) < 34 || len(snap.Perf.Exemplars) == 0 {
		t.Fatalf("snapshot perf section = %+v", snap.Perf)
	}
	// v4: HLC reading plus journal tail state (recorder is on).
	if snap.HLC == "" || snap.HLCWallUnix == 0 {
		t.Fatalf("snapshot HLC fields = %q/%g", snap.HLC, snap.HLCWallUnix)
	}
	if snap.Journal == nil {
		t.Fatal("snapshot missing journal tail state")
	}

	// The WAL on disk replays deterministically through a fresh engine.
	shutdown(app)
	app.daemons, app.metricsSrv, app.debug, app.walFile = nil, nil, nil, nil
	wal, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	recs, err := record.ReadAll(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("WAL empty")
	}
	res, err := core.Replay(covPolicy, recs, core.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() || res.Decisions == 0 {
		t.Fatalf("replay = %+v", res)
	}
}

// TestPerfExemplarResolvesThroughExplain drives a live daemon, forces
// decisions through the engine, and asserts the tail-latency exemplars
// published on /debug/perf and /metrics carry decision IDs that
// resolve through /debug/explain — the exemplar-to-trace walkthrough
// of E15, end to end.
func TestPerfExemplarResolvesThroughExplain(t *testing.T) {
	var out strings.Builder
	app, err := start(options{
		policyPath:  writePolicy(t),
		servers:     "s1",
		listen:      "127.0.0.1:0",
		key:         "test-key",
		issueCreds:  true,
		resources:   resourceFlags{"s1:fileA=hello"},
		metricsAddr: "127.0.0.1:0",
		// A 1ns target every decision misses: the SLO gauges must show
		// a saturated burn rate.
		sloTarget:    time.Nanosecond,
		sloObjective: 0.9,
		// Isolated registry: sibling tests' engines share obs.Default,
		// and their exemplars would not resolve in THIS daemon's audit.
		registry: obs.NewRegistry(),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(app)

	var addr, metricsAddr string
	var cred proof.Credential
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics "); ok {
			metricsAddr = rest
		} else if rest, ok := strings.CutPrefix(line, "s1 "); ok {
			addr = rest
		} else if rest, ok := strings.CutPrefix(line, "credential device-1 "); ok {
			if err := json.Unmarshal([]byte(rest), &cred); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	// The first decision pays cold-path costs (lazily built session
	// state), so it lands in a slow bucket and claims an exemplar; the
	// follow-ups spread over the faster buckets.
	for i := 0; i < 20; i++ {
		if _, err := cl.Access(model.OpRead, "fileA", "", nil); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	var perfView struct {
		Engine core.PerfStats `json:"engine"`
	}
	if err := json.Unmarshal([]byte(get("/debug/perf")), &perfView); err != nil {
		t.Fatalf("/debug/perf not JSON: %v", err)
	}
	if len(perfView.Engine.Exemplars) == 0 {
		t.Fatal("/debug/perf has no decision exemplars after 20 decisions")
	}
	// Every retained exemplar names a decision the audit window can
	// explain.
	for _, ex := range perfView.Engine.Exemplars {
		if ex.DecisionID == "" {
			t.Fatalf("exemplar without decision ID: %+v", ex)
		}
		var entry server.AuditEntry
		if err := json.Unmarshal([]byte(get("/debug/explain?id="+ex.DecisionID)), &entry); err != nil {
			t.Fatalf("explain %s: %v", ex.DecisionID, err)
		}
		if entry.DecisionID != ex.DecisionID || !entry.Granted {
			t.Fatalf("explain %s = %+v", ex.DecisionID, entry)
		}
	}
	if perfView.Engine.SLO.BurnRate < 9.9 {
		t.Fatalf("SLO burn rate = %g, want ~10 with every decision over a 1ns target",
			perfView.Engine.SLO.BurnRate)
	}

	// /metrics carries the per-stripe wait histograms, the exemplar
	// annotations on the decision histogram, and the SLO gauges.
	body := get("/metrics")
	for _, want := range []string{
		`stac_lock_wait_seconds_bucket{stripe="policy"`,
		`stac_lock_wait_seconds_bucket{stripe="shard_`,
		`# {decision_id="d-`,
		"stac_slo_burn_rate",
		"stac_shard_object_imbalance_ratio",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
