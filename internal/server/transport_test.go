package server

// Tests for the robustness layer of the TCP transport: message size
// caps, connection caps, deadlines, graceful drain and idempotent
// retry. The protocol-level behaviour is covered in tcp_test.go.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
)

// startDaemonWith exposes one server with explicit limits.
func startDaemonWith(t *testing.T, c *Coalition, id model.ServerID, cfg DaemonConfig) (*Daemon, string) {
	t.Helper()
	srv, err := c.Server(id)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemonWith(srv, cfg)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, addr
}

// rawRoundTrip sends one raw line and decodes the single-line reply.
func rawRoundTrip(t *testing.T, conn net.Conn, line []byte) wireResponse {
	t.Helper()
	if _, err := conn.Write(line); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	var wr wireResponse
	if err := json.Unmarshal(resp, &wr); err != nil {
		t.Fatalf("decode reply %q: %v", resp, err)
	}
	return wr
}

func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open, want server-side close")
	}
}

func TestTCPOversizedRequestStructuredError(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{MaxLineBytes: 512})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := append([]byte(`{"type":"info","token":"`+strings.Repeat("x", 2048)+`"}`), '\n')
	wr := rawRoundTrip(t, conn, big)
	if wr.OK || !strings.Contains(wr.Error, "512-byte limit") {
		t.Fatalf("oversized request reply = %+v", wr)
	}
	expectClosed(t, conn)
}

func TestTCPMalformedRequestStructuredError(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wr := rawRoundTrip(t, conn, []byte("this is not json\n"))
	if wr.OK || !strings.Contains(wr.Error, "malformed request") {
		t.Fatalf("malformed request reply = %+v", wr)
	}
	expectClosed(t, conn)
}

func TestTCPMaxConnsQueuesExcessClients(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{MaxConns: 1})

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Info(); err != nil {
		t.Fatal(err)
	}

	// The second client connects (TCP backlog) but is not served
	// until the first disconnects.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	served := make(chan error, 1)
	go func() {
		_, _, err := c2.Info()
		served <- err
	}()
	select {
	case err := <-served:
		t.Fatalf("second client served while the cap was full: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("second client after slot freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second client never served after slot freed")
	}
}

func TestTCPReadTimeoutDisconnectsIdleClient(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{ReadTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must hang up on its own.
	expectClosed(t, conn)
}

func TestDaemonCloseDrainsIdleConnections(t *testing.T) {
	c, _ := newCoalition(t)
	d, addr := startDaemonWith(t, c, "s1", DaemonConfig{}) // no deadlines configured
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	// The client now idles with an open authenticated connection;
	// Close must still return promptly, departing the subject.
	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
}

func TestTCPIdempotentRetryDoesNotDoubleConsume(t *testing.T) {
	c, _ := newCoalition(t)
	d, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	// The policy caps rsw reads at 2 coalition-wide. Replaying one
	// logical request must burn only one of them.
	id := NewRequestID()
	if _, err := cl.AccessID(id, model.OpRead, "rsw", "", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.AccessID(id, model.OpRead, "rsw", "", nil); err != nil {
			t.Fatalf("idempotent replay %d: %v", i, err)
		}
	}
	// One audited decision so far: replays short-circuit the engine.
	if _, total := d.srv.Audit(); total != 1 {
		t.Fatalf("audited decisions after replays = %d, want 1", total)
	}
	// The second unit of the budget is still available...
	if _, err := cl.Access(model.OpRead, "rsw", "", nil); err != nil {
		t.Fatalf("second distinct access: %v", err)
	}
	// ...and the third distinct access is denied; the denial is also
	// replayed verbatim.
	id3 := NewRequestID()
	_, err = cl.AccessID(id3, model.OpRead, "rsw", "", nil)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("third distinct access = %v, want denial", err)
	}
	_, err2 := cl.AccessID(id3, model.OpRead, "rsw", "", nil)
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("replayed denial differs: %v vs %v", err, err2)
	}
	if _, total := d.srv.Audit(); total != 3 {
		t.Fatalf("audited decisions = %d, want 3", total)
	}
	// Exactly two proofs were ever issued for the ceiling of two.
	granted := 0
	records, _ := d.srv.Audit()
	for _, r := range records {
		if r.Granted {
			granted++
		}
	}
	if granted != 2 {
		t.Fatalf("granted = %d, want 2", granted)
	}
}

func TestServerErrorTyping(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// An application-level verdict is not transient and matches the
	// sentinel through the wire boundary.
	err = cl.Auth(cred(c, "unknown-object", "owner", "traveler"))
	if err == nil {
		t.Fatal("unknown object authenticated")
	}
	if IsTransient(err) {
		t.Fatalf("auth verdict classified transient: %v", err)
	}
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("auth verdict does not match ErrAuthFailed: %v", err)
	}
	// A torn connection is transient.
	cl.conn.Close()
	_, _, err = cl.Info()
	if err == nil || !IsTransient(err) {
		t.Fatalf("transport failure not transient: %v", err)
	}
}

// The dedup window is a fixed ring of the last dedupWindow request
// IDs. Overflowing it evicts the oldest, so a retry of that ID is
// decided afresh, while a retry of the newest replays its reply.
func TestDedupRingEviction(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	d, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	access := func(i int) {
		t.Helper()
		if _, err := cl.AccessID(fmt.Sprintf("r%d", i), model.OpRead, "f-s1", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= dedupWindow; i++ {
		access(i)
	}
	d.mu.Lock()
	retained := d.seen.Len()
	d.mu.Unlock()
	if retained != dedupWindow {
		t.Fatalf("dedup cache retained %d entries, want the window of %d", retained, dedupWindow)
	}

	srv, _ := c.Server("s1")
	hits := func() int64 { return reg.CounterValue("stac_server_dedup_hits_total", obs.Label("server", "s1")) }
	g0, _ := srv.Counters()
	access(0) // evicted: decided afresh
	if g1, _ := srv.Counters(); g1 != g0+1 || hits() != 0 {
		t.Fatalf("retry of the oldest ID: grants %d → %d, dedup hits %d; want a fresh decision", g0, g1, hits())
	}
	access(dedupWindow) // retained: replayed
	if g2, _ := srv.Counters(); g2 != g0+1 || hits() != 1 {
		t.Fatalf("retry of the newest ID: grants %d → %d, dedup hits %d; want a replay", g0, g2, hits())
	}
}

// A retry replays its original reply member for member: a grant (data
// and proof), a count-ceiling denial and a served "unknown resource"
// error, each retried under its request ID from a second connection of
// the object. Only trace (the retry's) and have (the new token's log)
// may differ.
func TestDedupReplayMatchesOriginalReply(t *testing.T) {
	c, _ := newCoalition(t)
	tracer := obs.NewTracer(256)
	c.Engine.SetTracer(tracer)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	cr := cred(c, "o1", "owner", "traveler")
	first := dialRaw(t, addr)
	tok := first.auth(cr)

	// exchange sends req on rc and returns the reply's members, raw.
	exchange := func(rc *rawConn, req wireRequest) map[string]json.RawMessage {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.conn.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
		_ = rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := rc.br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var members map[string]json.RawMessage
		if err := json.Unmarshal(line, &members); err != nil {
			t.Fatalf("reply not a JSON object: %v\n%s", err, line)
		}
		return members
	}
	// A full-history client: every access carries the proofs the
	// original accesses were granted.
	var carried []proof.Proof
	access := func(rc *rawConn, tok, id string, res model.ResourceID, tc obs.TraceContext) map[string]json.RawMessage {
		t.Helper()
		return exchange(rc, wireRequest{Type: "access", Token: tok, Op: string(model.OpRead), Resource: string(res),
			Proofs: carried, ID: id, Trace: tc.String()})
	}
	original := func(tok, id string, res model.ResourceID, tc obs.TraceContext) map[string]json.RawMessage {
		t.Helper()
		m := access(first, tok, id, res, tc)
		if raw, ok := m["proof"]; ok {
			var p proof.Proof
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			carried = append(carried, p)
		}
		return m
	}

	cases := []struct {
		id   string
		res  model.ResourceID
		want []string // members the original reply must have
	}{
		{"grant", "f-s1", []string{"ok", "data", "proof", "decision_id", "hlc"}},
		{"unknown", "missing", []string{"ok", "error", "decision_id", "hlc"}},
		{"ceiling", "rsw", []string{"ok", "error", "decision_id", "hlc"}},
	}
	orig := make(map[string]map[string]json.RawMessage)
	for _, tc := range cases {
		if tc.id == "ceiling" {
			// Two rsw grants reach count(0, 2, sigma[r=rsw]).
			original(tok, "", "rsw", obs.TraceContext{})
			original(tok, "", "rsw", obs.TraceContext{})
		}
		m := original(tok, tc.id, tc.res, tracer.NewContext())
		for _, k := range tc.want {
			if _, ok := m[k]; !ok {
				t.Fatalf("%s: reply %v lacks %q", tc.id, m, k)
			}
		}
		orig[tc.id] = m
	}
	if got := string(orig["unknown"]["error"]); !strings.Contains(got, "unknown shared resource") {
		t.Fatalf("unknown-resource reply error = %s", got)
	}
	if got := string(orig["ceiling"]["error"]); !strings.Contains(got, "denied") || !strings.Contains(got, "count") {
		t.Fatalf("ceiling reply error = %s", got)
	}
	decided := auditTotal(t, c, "s1")

	second := dialRaw(t, addr)
	tok2 := second.auth(cr)
	for _, tc := range cases {
		retry := tracer.NewContext()
		m := access(second, tok2, tc.id, tc.res, retry)
		if got, want := string(m["trace"]), `"`+retry.String()+`"`; got != want {
			t.Fatalf("%s: replay trace %s, want the retry's %s", tc.id, got, want)
		}
		for _, k := range []string{"trace", "have"} {
			delete(m, k)
			delete(orig[tc.id], k)
		}
		if !reflect.DeepEqual(m, orig[tc.id]) {
			t.Fatalf("%s: replay differs from the original reply\nreplay   %s\noriginal %s", tc.id, replyJSON(m), replyJSON(orig[tc.id]))
		}
	}
	if got := auditTotal(t, c, "s1"); got != decided {
		t.Fatalf("the retries reached the engine: %d decisions, want %d", got, decided)
	}
	if hits := reg.CounterValue("stac_server_dedup_hits_total", obs.Label("server", "s1")); hits != int64(len(cases)) {
		t.Fatalf("dedup hits %d, want %d", hits, len(cases))
	}
}

// replyJSON renders a reply's members in key order.
func replyJSON(m map[string]json.RawMessage) string {
	b, _ := json.Marshal(m)
	return string(b)
}

// The dedup window holds each entry once, as a (key, retry record)
// slot of its ring, and its map holds only the slot's index. A map that
// held the records themselves would spend about two 128-byte slots per
// entry at the load Go's maps keep.
func TestDedupEntryFitsMapSlot(t *testing.T) {
	c, _ := newCoalition(t)
	srv, err := c.Server("s1")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(srv)
	w := reflect.ValueOf(d.seen).Elem()
	if elem := w.FieldByName("m").Type().Elem(); elem.Size() > 8 {
		t.Fatalf("dedup window map element %s is %d bytes, want at most 8", elem, elem.Size())
	}
	if slot := w.FieldByName("slots").Type().Elem(); slot.Size() > 128 {
		t.Fatalf("dedup window slot %s is %d bytes, want at most 128", slot, slot.Size())
	}
}
