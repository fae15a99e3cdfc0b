package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
)

// Hostile-client tests: raw TCP abuse against a live daemon. Every
// hostile exchange must end in a structured reject (never a hang, never
// a bare close without an answer), the per-reason reject counters must
// account for it, and the daemon must come back to its goroutine
// baseline afterwards — a misbehaving client must not be able to pin
// server resources.

// startHostileDaemon boots one coalition server behind a daemon with a
// deliberately small line cap and a private metrics registry.
func startHostileDaemon(t *testing.T) (addr string, c *Coalition, reg *obs.Registry) {
	t.Helper()
	c, _ = newCoalition(t)
	reg = obs.NewRegistry()
	srv, err := c.Server("s1")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemonWith(srv, DaemonConfig{
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
		MaxLineBytes: 4096,
		Obs:          reg,
	})
	addr, err = d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return addr, c, reg
}

// rawExchange writes one raw frame and returns the single response
// line (or fails the test on a hang).
func rawExchange(t *testing.T, addr string, frame []byte) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reject line came back: %v", err)
	}
	return line
}

func rejectCount(reg *obs.Registry, reason string) int64 {
	return reg.CounterValue("stac_server_rejects_total",
		obs.Labels(obs.Label("reason", reason), obs.Label("server", "s1")))
}

func TestHostileMalformedFrame(t *testing.T) {
	addr, _, reg := startHostileDaemon(t)
	for i, frame := range []string{
		"{\"type\":\"access\",\"op\":\n", // truncated JSON
		"not json at all\n",
		"[1,2,3]\n", // valid JSON, wrong shape
	} {
		line := rawExchange(t, addr, []byte(frame))
		var resp struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("frame %d: reject not JSON: %q", i, line)
		}
		if !strings.Contains(resp.Error, "malformed") {
			t.Fatalf("frame %d: error = %q, want malformed reject", i, resp.Error)
		}
	}
	if got := rejectCount(reg, "malformed"); got != 3 {
		t.Fatalf("malformed rejects = %d, want 3", got)
	}
	if got := rejectCount(reg, "oversize"); got != 0 {
		t.Fatalf("oversize rejects = %d, want 0", got)
	}
}

func TestHostileOversizeLine(t *testing.T) {
	addr, _, reg := startHostileDaemon(t)
	line := append(bytes.Repeat([]byte("a"), 4096+512), '\n')
	resp := rawExchange(t, addr, line)
	if !strings.Contains(resp, "exceeds") {
		t.Fatalf("oversize response = %q, want byte-limit reject", resp)
	}
	if got := rejectCount(reg, "oversize"); got != 1 {
		t.Fatalf("oversize rejects = %d, want 1", got)
	}
}

// TestHostileReplayFlood floods one idempotency key: the daemon must
// decide once and answer every retry from the dedup cache.
func TestHostileReplayFlood(t *testing.T) {
	addr, c, reg := startHostileDaemon(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.Server("s1")
	g0, _ := srv.Counters()
	const flood = 500
	for i := 0; i < flood; i++ {
		if _, err := cl.AccessID("flood-key", model.OpRead, "f-s1", "", nil); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	if got := reg.CounterValue("stac_server_dedup_hits_total",
		obs.Label("server", "s1")); got != flood-1 {
		t.Fatalf("dedup hits = %d, want %d", got, flood-1)
	}
	if g1, _ := srv.Counters(); g1-g0 != 1 {
		t.Fatalf("grants advanced by %d, want 1 (flood must not re-decide)", g1-g0)
	}
}

// TestHostileNoGoroutineLeak hammers the daemon with a mixed hostile
// barrage, then requires the process to return to its goroutine
// baseline: per-connection handlers must fully drain after rejects.
func TestHostileNoGoroutineLeak(t *testing.T) {
	addr, _, _ := startHostileDaemon(t)
	baseline := runtime.NumGoroutine()
	oversize := append(bytes.Repeat([]byte("x"), 4096+512), '\n')
	for i := 0; i < 50; i++ {
		rawExchange(t, addr, []byte("garbage\n"))
		rawExchange(t, addr, oversize)
		// A connection dropped with no frame at all.
		if conn, err := net.DialTimeout("tcp", addr, 2*time.Second); err == nil {
			conn.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d, baseline %d: handlers leaked after hostile barrage",
		runtime.NumGoroutine(), baseline)
}

// TestHostileRejectKeepsServing makes sure a reject on one connection
// does not poison the listener for well-behaved clients.
func TestHostileRejectKeepsServing(t *testing.T) {
	addr, c, _ := startHostileDaemon(t)
	rawExchange(t, addr, []byte("junk\n"))
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
		t.Fatalf("well-behaved access after hostile reject: %v", err)
	}
}

// emfileListener's Accept fails with EMFILE, as in a process out of
// file descriptors, until fails runs out; then it accepts as the
// listener it wraps.
type emfileListener struct {
	net.Listener
	fails atomic.Int64
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// serveEMFILE serves s1 of a fresh coalition on a loopback listener
// whose first fails Accepts fail with EMFILE.
func serveEMFILE(t *testing.T, fails int64) (*Daemon, string, *obs.Registry) {
	t.Helper()
	c, _ := newCoalition(t)
	srv, err := c.Server("s1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &emfileListener{Listener: ln}
	fl.fails.Store(fails)
	reg := obs.NewRegistry()
	d := NewDaemonWith(srv, DaemonConfig{ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second, Obs: reg})
	addr := d.Serve(fl)
	t.Cleanup(func() { _ = d.Close() })
	return d, addr, reg
}

// A failed Accept that is not the listener's close must not stop the
// daemon accepting: it retries after a backoff, counts the failure as a
// reject, and Close does not wait the backoff out.
func TestAcceptRetriesFailedAccept(t *testing.T) {
	d, addr, reg := serveEMFILE(t, 2)
	if line := rawExchange(t, addr, []byte("{\"type\":\"info\"}\n")); !strings.Contains(line, `"ok":true`) {
		t.Fatalf("info after two failed accepts = %q", line)
	}
	if n := rejectCount(reg, "accept"); n != 2 {
		t.Fatalf("accept rejects = %d, want 2", n)
	}
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Close took %v", el)
	}

	// Accepts that never stop failing: after 8 failures the loop waits
	// 640 ms (5 ms doubling), and Close must end that wait at once.
	d, _, reg = serveEMFILE(t, 1<<40)
	deadline := time.Now().Add(10 * time.Second)
	for rejectCount(reg, "accept") < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("accept rejects = %d after 10s, want 8", rejectCount(reg, "accept"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	start = time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("Close waited out the accept backoff: %v", el)
	}
}
