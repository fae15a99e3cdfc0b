package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/temporal"
)

// syncBuffer is a race-safe WAL for tests.
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

// attachWAL gives the coalition a decision log whose WAL is w, as
// `stacd -record-wal` does: replay inputs included, metrics in the
// engine's registry.
func attachWAL(c *Coalition, w io.Writer) {
	c.Engine.SetRecorder(record.New(record.Config{WAL: w, Registry: c.Engine.Obs()}))
}

// Every decision lands in the WAL as one decide record whose
// projection — what `stacctl explain -wal` renders — carries, for a
// denial, the violated clause and its window state.
func TestWALDecideRecordsProjectToAuditEntries(t *testing.T) {
	c, _ := newCoalition(t)
	wal := newSyncBuffer()
	attachWAL(c, wal)
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

	recs, err := record.ReadAll(strings.NewReader(wal.String()))
	if err != nil {
		t.Fatalf("WAL does not decode: %v\n%s", err, wal.String())
	}
	var entries []AuditEntry
	for _, r := range recs {
		if r.Kind == record.KindDecide {
			entries = append(entries, AuditFromRecord(r))
		}
	}
	if len(entries) != 3 {
		t.Fatalf("WAL has %d decide records, want 3:\n%s", len(entries), wal.String())
	}
	for i, e := range entries {
		if e.DecisionID == "" {
			t.Fatalf("decide record %d lacks decision_id: %+v", i, e)
		}
		if e.Object != "o1" || e.Server != "s1" || e.Resource != "rsw" {
			t.Fatalf("decide record %d fields: %+v", i, e)
		}
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

// Every record reaches the WAL in the recorder's order: with three
// servers deciding for concurrent clients of distinct objects, the WAL
// decodes to exactly the ring's records, seq contiguous from 1. The
// recorder's lock alone orders the two; no coalition-wide lock sits on
// the decision path.
func TestWALOrderUnderConcurrentServers(t *testing.T) {
	servers := []model.ServerID{"s1", "s2", "s3"}
	const perServer, accesses = 3, 8
	objects := len(servers) * perServer
	var pol strings.Builder
	pol.WriteString("role traveler\npermission p-doc read doc @ * {\n    spatial count(0, 5, sigma[r=doc])\n}\ngrant traveler p-doc\n")
	for i := 0; i < objects; i++ {
		fmt.Fprintf(&pol, "user o%d\nassign o%d traveler\n", i, i)
	}
	c := NewCoalition(temporal.NewSimClock(0), key)
	if err := core.LoadPolicyString(c.Engine, pol.String()); err != nil {
		t.Fatal(err)
	}
	for _, id := range servers {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		srv.HostResource("doc", []byte("doc at "+id))
	}
	wal := newSyncBuffer()
	attachWAL(c, wal)
	addrs := startDaemons(t, c)

	// tour authenticates obj at addr, reads doc accesses times (the
	// reads past the count ceiling are denied) and departs.
	tour := func(obj, addr string) error {
		cl, err := Dial(addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		if err := cl.Auth(cred(c, obj, "owner", "traveler")); err != nil {
			return err
		}
		for i := 0; i < accesses; i++ {
			if _, err := cl.Access(model.OpRead, "doc", "", nil); err != nil && !errors.Is(err, ErrDenied) {
				return fmt.Errorf("%s access %d: %w", obj, i, err)
			}
		}
		return cl.Depart()
	}
	errs := make(chan error, objects)
	var wg sync.WaitGroup
	for i := 0; i < objects; i++ {
		obj, addr := fmt.Sprintf("o%d", i), addrs[servers[i%len(servers)]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- tour(obj, addr)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	ring := c.Engine.Recorder().Records()
	if st := c.Engine.Recorder().Status(); st.Total != uint64(len(ring)) || st.WALDegraded {
		t.Fatalf("recorder status = %+v with %d records retained; want every record retained and the WAL whole", st, len(ring))
	}
	logged, err := record.ReadAll(strings.NewReader(wal.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(ring) {
		t.Fatalf("WAL holds %d records, ring %d", len(logged), len(ring))
	}
	decides := 0
	for i, r := range ring {
		if r.Seq != uint64(i+1) {
			t.Fatalf("ring record %d has seq %d", i, r.Seq)
		}
		want, _ := json.Marshal(r)
		got, _ := json.Marshal(logged[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("WAL record %d differs from the ring's:\nWAL:  %s\nring: %s", i, got, want)
		}
		if r.Kind == record.KindDecide {
			decides++
		}
	}
	if decides != objects*accesses {
		t.Fatalf("%d decide records, want %d", decides, objects*accesses)
	}
}
