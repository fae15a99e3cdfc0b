package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
)

// syncBuffer is a race-safe audit sink for tests.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	b := &syncBuffer{mu: make(chan struct{}, 1)}
	b.mu <- struct{}{}
	return b
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.String()
}

// Every decision lands in the JSONL sink as one parseable line whose
// denial entries carry the violated clause and its window state.
func TestAuditSinkWritesJSONL(t *testing.T) {
	c, _ := newCoalition(t)
	sink := newSyncBuffer()
	c.SetAuditSink(sink)
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Depart(sub)
	store := proof.NewStore(c.Signer)
	// Two grants to rsw exhaust the count(0,2) window; the third denies.
	for i := 0; i < 2; i++ {
		if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
			t.Fatalf("grant %d: %v", i+1, err)
		}
	}
	if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err == nil {
		t.Fatal("3rd rsw access granted")
	}

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink has %d lines, want 3:\n%s", len(lines), sink.String())
	}
	var entries []AuditEntry
	for i, line := range lines {
		var e AuditEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if e.DecisionID == "" {
			t.Fatalf("line %d lacks decision_id: %s", i, line)
		}
		if e.Object != "o1" || e.Server != "s1" || e.Resource != "rsw" {
			t.Fatalf("line %d fields: %+v", i, e)
		}
		entries = append(entries, e)
	}
	deny := entries[2]
	if deny.Granted || deny.DenyReason != "spatial_violated" {
		t.Fatalf("denial entry = %+v", deny)
	}
	x := deny.Explanation
	if x == nil || x.Clause == "" || !strings.Contains(x.Detail, "exceeds ceiling 2") {
		t.Fatalf("denial explanation = %+v", x)
	}
	if len(x.Counts) == 0 || x.Counts[0].Observed != 3 {
		t.Fatalf("denial counts = %+v", x.Counts)
	}
}

// Coalition.Explain resolves a decision ID to its retained record
// across servers; unknown IDs miss.
func TestCoalitionExplainLookup(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s2")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Depart(sub)
	if _, err := srv.Request(sub, model.OpRead, "f-s2", RequestContext{}); err != nil {
		t.Fatal(err)
	}
	records, _ := srv.Audit()
	if len(records) != 1 || records[0].DecisionID == "" {
		t.Fatalf("audit records = %+v", records)
	}
	id := records[0].DecisionID
	rec, ok := c.Explain(id)
	if !ok || rec.DecisionID != id || rec.Server != "s2" {
		t.Fatalf("Explain(%s) = %+v, %v", id, rec, ok)
	}
	if _, ok := c.Explain("d-0000000000000000"); ok {
		t.Fatal("unknown decision explained")
	}
	if _, ok := c.Explain(""); ok {
		t.Fatal("empty decision explained")
	}
}

// rawConn speaks the JSON-lines protocol directly so tests can observe
// the wire response verbatim.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawConn) send(req wireRequest) wireResponse {
	r.t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		r.t.Fatal(err)
	}
	return r.sendRaw(append(b, '\n'))
}

func (r *rawConn) sendRaw(line []byte) wireResponse {
	r.t.Helper()
	if _, err := r.conn.Write(line); err != nil {
		r.t.Fatal(err)
	}
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := r.br.ReadBytes('\n')
	if err != nil {
		r.t.Fatal(err)
	}
	var resp wireResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		r.t.Fatalf("reply not JSON: %v\n%s", err, reply)
	}
	return resp
}

// An access reply echoes the request's trace context and names the
// decision; an idempotent replay echoes the retry's trace while
// keeping the original decision ID.
func TestTCPTraceEchoAndDecisionID(t *testing.T) {
	c, _ := newCoalition(t)
	tracer := obs.NewTracer(256)
	c.Engine.SetTracer(tracer)
	addrs := startDaemons(t, c)
	rc := dialRaw(t, addrs["s1"])

	credential := cred(c, "o1", "owner", "traveler")
	auth := rc.send(wireRequest{Type: "auth", Credential: &credential})
	if !auth.OK {
		t.Fatalf("auth failed: %s", auth.Error)
	}

	tc := tracer.NewContext()
	resp := rc.send(wireRequest{Type: "access", Token: auth.Token, Op: "read",
		Resource: "f-s1", ID: "req-1", Trace: tc.String()})
	if !resp.OK {
		t.Fatalf("access failed: %s", resp.Error)
	}
	if resp.Trace != tc.String() {
		t.Fatalf("trace echo = %q, want %q", resp.Trace, tc.String())
	}
	if resp.DecisionID == "" {
		t.Fatal("no decision_id in reply")
	}

	// Replay under a fresh trace: same verdict and decision ID, the
	// retry's trace echoed.
	tc2 := tracer.NewContext()
	replay := rc.send(wireRequest{Type: "access", Token: auth.Token, Op: "read",
		Resource: "f-s1", ID: "req-1", Trace: tc2.String()})
	if !replay.OK || replay.DecisionID != resp.DecisionID {
		t.Fatalf("replay = %+v, want decision %s", replay, resp.DecisionID)
	}
	if replay.Trace != tc2.String() {
		t.Fatalf("replay trace echo = %q, want %q", replay.Trace, tc2.String())
	}

	// The daemon recorded the span chain under the request's trace:
	// wire.access → server.request → authorize.
	spans := tracer.Store().Trace(tc.Trace)
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"wire.access", "server.request", "authorize"} {
		if !names[want] {
			t.Fatalf("trace %s lacks %q span (have %v)", tc.Trace, want, names)
		}
	}
}

// Structured rejects for oversized and malformed requests still echo
// the trace context mined from the raw bytes.
func TestTCPStructuredRejectsEchoTrace(t *testing.T) {
	c, _ := newCoalition(t)
	tracer := obs.NewTracer(16)
	c.Engine.SetTracer(tracer)
	tc := tracer.NewContext()

	srv, _ := c.Server("s1")
	d := NewDaemonWith(srv, DaemonConfig{MaxLineBytes: 256})
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })

	// Oversized: the trace field sits inside the first 256 bytes, so
	// the reject can still be correlated.
	rc := dialRaw(t, addr)
	big := `{"type":"access","trace":"` + tc.String() + `","payload":"` +
		strings.Repeat("x", 512) + `"}` + "\n"
	resp := rc.sendRaw([]byte(big))
	if resp.OK || !strings.Contains(resp.Error, "256-byte limit") {
		t.Fatalf("oversize reply = %+v", resp)
	}
	if resp.Trace != tc.String() {
		t.Fatalf("oversize trace echo = %q, want %q", resp.Trace, tc.String())
	}

	// Malformed JSON: same story.
	rc2 := dialRaw(t, addr)
	resp = rc2.sendRaw([]byte(`{"type":"access","trace":"` + tc.String() + `",,,` + "\n"))
	if resp.OK || !strings.Contains(resp.Error, "malformed request") {
		t.Fatalf("malformed reply = %+v", resp)
	}
	if resp.Trace != tc.String() {
		t.Fatalf("malformed trace echo = %q, want %q", resp.Trace, tc.String())
	}

	// A garbage trace field is dropped rather than echoed.
	rc3 := dialRaw(t, addr)
	resp = rc3.sendRaw([]byte(`{"type":"access","trace":"not-a-trace",,,` + "\n"))
	if resp.Trace != "" {
		t.Fatalf("garbage trace echoed: %q", resp.Trace)
	}
}

// The typed client error carries the decision ID and trace ID of a
// denial, so callers can hand them straight to `stacctl explain`.
func TestClientServerErrorCarriesCorrelationIDs(t *testing.T) {
	c, _ := newCoalition(t)
	tracer := obs.NewTracer(256)
	c.Engine.SetTracer(tracer)
	addrs := startDaemons(t, c)
	cl, err := Dial(addrs["s1"])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	tc := tracer.NewContext()
	cl.SetTrace(tc)
	for i := 0; i < 2; i++ {
		if _, err := cl.Access(model.OpRead, "rsw", "", nil); err != nil {
			t.Fatalf("grant %d: %v", i+1, err)
		}
	}
	_, err = cl.Access(model.OpRead, "rsw", "", nil)
	if err == nil {
		t.Fatal("3rd rsw access granted")
	}
	se, ok := err.(*ServerError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if se.DecisionID == "" {
		t.Fatalf("denial error lacks decision id: %+v", se)
	}
	if se.TraceID != tc.Trace.String() {
		t.Fatalf("denial trace id = %q, want %q", se.TraceID, tc.Trace)
	}
	// The decision the error names is explainable server-side, and the
	// explanation pinpoints the counting clause.
	rec, ok := c.Explain(se.DecisionID)
	if !ok {
		t.Fatalf("decision %s not explainable", se.DecisionID)
	}
	x := rec.Explanation
	if x == nil || !strings.Contains(x.Detail, "exceeds ceiling 2") {
		t.Fatalf("explanation = %+v", x)
	}
}
