package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/server"
	"stac/internal/temporal"
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
	// Lock contention is the runtime's mutex profile, and per-stage
	// time the stage family: no lock-stripe or per-stage authz family.
	for _, gone := range []string{"stac_lock_", "stac_authz_prefix_eval_seconds", "stac_authz_static_check_seconds"} {
		if strings.Contains(body, gone) {
			t.Fatalf("/metrics still exports %q", gone)
		}
	}
	// /debug/perf is gone: the snapshot carries the perf section.
	resp, err := http.Get("http://" + metricsAddr + "/debug/perf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/perf status %d, want 404", resp.StatusCode)
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

// -mutex-profile-fraction and -block-profile-rate feed the runtime
// profiles /debug/pprof/mutex and /debug/pprof/block serve. The
// runtime has no getter for the block rate, so the test blocks once on
// a recognisable frame and finds it in the block profile; both rates
// go back to their previous values (the block rate to 0, the
// runtime's default, which nothing else in this package changes).
func TestStartAppliesProfileRates(t *testing.T) {
	prevMutex := runtime.SetMutexProfileFraction(-1)
	t.Cleanup(func() {
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
	})
	app, err := start(options{
		servers:       "s1",
		listen:        "127.0.0.1:0",
		key:           "test-key",
		mutexFraction: 3,
		blockRate:     1,
	}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(app)
	if got := runtime.SetMutexProfileFraction(-1); got != 3 {
		t.Fatalf("mutex profile fraction = %d, want 3", got)
	}
	blockOnChannel()
	records := make([]runtime.BlockProfileRecord, 64)
	for {
		n, ok := runtime.BlockProfile(records)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.BlockProfileRecord, 2*n)
	}
	for _, r := range records {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".blockOnChannel") {
				return
			}
			if !more {
				break
			}
		}
	}
	t.Fatal("block profile holds no blockOnChannel event: -block-profile-rate not applied")
}

// blockOnChannel parks the caller on a channel receive for a few
// milliseconds, under a frame name the block-profile test looks for.
//
//go:noinline
func blockOnChannel() {
	ch := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(ch)
	}()
	<-ch
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
// landing in the -record-wal file: `stacctl explain -wal` and
// `explain -addr` print the same transcript for the denial.
func TestStartServesTraceAndExplainEndpoints(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "policy.stac")
	if err := os.WriteFile(policy, []byte(ceilingPolicy), 0o600); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "decisions.wal")
	var out strings.Builder
	app, err := start(options{
		policyPath:  policy,
		servers:     "s1",
		listen:      "127.0.0.1:0",
		key:         "test-key",
		issueCreds:  true,
		metricsAddr: "127.0.0.1:0",
		trace:       true,
		recordWAL:   walPath,
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

	// The WAL carries one decide record per decision, and its
	// projection of the denial renders the transcript /debug/explain
	// does, byte for byte: the -wal and -addr paths of `stacctl explain`.
	shutdown(app)
	app.daemons = nil // idempotent deferred shutdown
	app.metricsSrv = nil
	app.walFile = nil
	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := record.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var decides []record.Record
	for _, r := range recs {
		if r.Kind == record.KindDecide {
			decides = append(decides, r)
		}
	}
	if len(decides) != 3 {
		t.Fatalf("WAL has %d decide records, want 3", len(decides))
	}
	last := server.AuditFromRecord(decides[2])
	if last.Granted || last.DecisionID != se.DecisionID {
		t.Fatalf("WAL tail = %+v, want denial %s", last, se.DecisionID)
	}
	var fromWAL, fromAddr strings.Builder
	last.WriteTranscript(&fromWAL)
	entry.WriteTranscript(&fromAddr)
	if fromWAL.String() != fromAddr.String() {
		t.Fatalf("explain -wal transcript:\n%s\ndiffers from explain -addr:\n%s", fromWAL.String(), fromAddr.String())
	}
	if !strings.Contains(fromWAL.String(), "violated clause: count(0, 2,") {
		t.Fatalf("transcript lacks the violated clause:\n%s", fromWAL.String())
	}

	// After Shutdown the metrics port no longer accepts connections.
	if _, err := http.Get("http://" + metricsAddr + "/metrics"); err == nil {
		t.Fatal("metrics listener still serving after shutdown")
	}
}

// The observability listener serves the fleet-telemetry endpoints:
// versioned snapshots, health probes and the live decision-log tail —
// and shutdown drains an attached tail instead of hanging on it.
func TestStartServesFleetEndpoints(t *testing.T) {
	var out strings.Builder
	app, err := start(options{
		policyPath:  writePolicy(t),
		servers:     "s1",
		listen:      "127.0.0.1:0",
		key:         "test-key",
		issueCreds:  true,
		metricsAddr: "127.0.0.1:0",
		resources:   resourceFlags{"s1:fileA=hello"},
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

	// Attach a live tail of the decision log before deciding anything.
	watchResp, err := http.Get("http://" + metricsAddr + "/debug/journal?poll=50ms&cursor=" + strconv.FormatUint(math.MaxUint64, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	if ct := watchResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/debug/journal content type = %q", ct)
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

	// The tail receives the grant as one decide record.
	deadline := time.After(5 * time.Second)
	var event, data string
	for data == "" {
		select {
		case line, ok := <-watchLines:
			if !ok {
				t.Fatal("journal stream closed before the decision")
			}
			if name, found := strings.CutPrefix(line, "event: "); found {
				event = name
			}
			if payload, found := strings.CutPrefix(line, "data: "); found && event == "record" {
				data = payload
			}
		case <-deadline:
			t.Fatal("no decide record on /debug/journal")
		}
	}
	var rec record.Record
	if err := json.Unmarshal([]byte(data), &rec); err != nil {
		t.Fatalf("journal record %q: %v", data, err)
	}
	if rec.Kind != record.KindDecide || !rec.Granted || rec.Object != "device-1" || rec.DecisionID == "" {
		t.Fatalf("journal record = %+v", rec)
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
		len(snap.Conns) != 1 || snap.Conns[0].Inflight != 1 || snap.Journal == nil || snap.Journal.ActiveTails != 1 {
		t.Fatalf("snapshot = %s", body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	code, body = get("/readyz")
	if code != http.StatusOK || !strings.Contains(string(body), "policy_loaded") {
		t.Fatalf("/readyz = %d %s", code, body)
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

	// /debug/snapshot carries the v2 fields.
	var snap server.Snapshot
	if err := json.Unmarshal([]byte(get("/debug/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 11 || snap.ShadowDigest == "" || snap.ShadowFlips != 1 ||
		snap.Recorder == nil || snap.Recorder.Total == 0 || snap.Runtime.Goroutines < 1 {
		t.Fatalf("snapshot versioned fields = %+v", snap)
	}
	// v5: the cost section lists the served policy's clause census and
	// cost profile, one row per clause; the root's outcome tallies
	// split its evaluations.
	if snap.Cost == nil || len(snap.Cost.Clauses) == 0 {
		t.Fatalf("snapshot cost section = %+v", snap.Cost)
	}
	if root := snap.Cost.Clauses[0]; root.Evals == 0 || root.Satisfied+root.Violated+root.Pending != root.Evals {
		t.Fatalf("snapshot cost root row = %+v, want evals split by outcome", root)
	}
	if len(snap.Perf.ShardObjects) != 32 || len(snap.Perf.Exemplars) == 0 {
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
// published in the snapshot's perf section and on /metrics carry
// decision IDs that
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

	var snap server.Snapshot
	if err := json.Unmarshal([]byte(get("/debug/snapshot")), &snap); err != nil {
		t.Fatalf("/debug/snapshot not JSON: %v", err)
	}
	if len(snap.Perf.Exemplars) == 0 {
		t.Fatal("snapshot perf has no decision exemplars after 20 decisions")
	}
	// Every retained exemplar names a decision the audit window can
	// explain.
	for _, ex := range snap.Perf.Exemplars {
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
	if snap.Perf.SLO.BurnRate < 9.9 {
		t.Fatalf("SLO burn rate = %g, want ~10 with every decision over a 1ns target",
			snap.Perf.SLO.BurnRate)
	}

	// /metrics carries the exemplar annotations on the decision
	// histogram, the SLO gauges and the object imbalance gauge.
	body := get("/metrics")
	for _, want := range []string{
		`# {decision_id="d-`,
		"stac_slo_burn_rate",
		"stac_shard_object_imbalance_ratio",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// escapePolicy's user IDs are ones json.Marshal escapes: HTML
// characters and a control character. idle holds no role. (U+2028
// cannot reach a user ID: the policy loader splits a line into fields
// on Unicode white space, which includes it; the wire codec's own tests
// cover its escape. A byte that is not UTF-8 cannot either: the loader
// rejects such a policy.)
const escapePolicy = "user w<0>\nuser a&b\nuser esc\x1bape\nuser idle\n" +
	"role worker\nrole auditor\npermission p-read read * @ *\ngrant worker p-read\n" +
	"assign w<0> worker\nassign w<0> auditor\nassign a&b worker\nassign esc\x1bape auditor\n"

// Each credential line is, byte for byte, json.Marshal of the
// credential stacd issues for that user, decodes to one that verifies
// under the key, and the lines come in the RBAC's Users() order.
func TestCredentialLinesAreJSONMarshalBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "escape.stac")
	if err := os.WriteFile(path, []byte(escapePolicy), 0o600); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	app, err := start(options{policyPath: path, servers: "s1", listen: "127.0.0.1:0", key: "test-key", issueCreds: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	shutdown(app)

	// The same policy in a fresh engine gives the users, their roles
	// and, through a signer of the same key, the expected credentials.
	e := core.NewEngine(temporal.NewSimClock(0))
	if err := core.LoadPolicyString(e, escapePolicy); err != nil {
		t.Fatal(err)
	}
	signer := proof.NewSigner([]byte("test-key"))
	users := e.RBAC.Users()
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		rest, ok := strings.CutPrefix(line, "credential ")
		if !ok {
			continue
		}
		user, blob, _ := strings.Cut(rest, " ")
		got = append(got, user)
		var names []string
		for _, r := range e.RBAC.AuthorizedRoles(rbac.UserID(user)) {
			names = append(names, string(r))
		}
		want, err := json.Marshal(signer.IssueCredential(model.ObjectID(user), user+"@coalition", names))
		if err != nil {
			t.Fatal(err)
		}
		if blob != string(want) {
			t.Fatalf("credential line of %q:\n got %s\nwant %s", user, blob, want)
		}
		var cred proof.Credential
		if err := json.Unmarshal([]byte(blob), &cred); err != nil {
			t.Fatalf("credential line of %q: %v", user, err)
		}
		if err := signer.VerifyCredential(cred); err != nil {
			t.Fatalf("credential of %q: %v", user, err)
		}
	}
	if len(got) != len(users) || len(users) != 4 {
		t.Fatalf("credential lines for %q, want one per user of %q", got, users)
	}
	for i, u := range users {
		if got[i] != string(u) {
			t.Fatalf("credential lines for %q, want Users() order %q", got, users)
		}
	}
}
