package server

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
)

// Tests for the connection workers: a worker goroutine serves one
// connection after another, keeping its stack and buffers, while every
// connection's session state stays its own.

// workerDaemon starts a daemon on s1 of a fresh coalition whose
// connection workers are counted as they start.
func workerDaemon(t *testing.T, cfg DaemonConfig) (d *Daemon, c *Coalition, addr string, workers *atomic.Int64) {
	t.Helper()
	c, _ = newCoalition(t)
	srv, err := c.Server("s1")
	if err != nil {
		t.Fatal(err)
	}
	d = NewDaemonWith(srv, cfg)
	workers = new(atomic.Int64)
	d.onWorker = func() { workers.Add(1) }
	addr, err = d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, c, addr, workers
}

// waitReleased polls until the daemon serves no connection: a closed
// client's connection is released once its worker notices the close.
func waitReleased(t *testing.T, reg *obs.Registry) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.GaugeValue("stac_server_inflight_connections", obs.Label("server", "s1")) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a closed connection was never released")
		}
		time.Sleep(time.Millisecond)
	}
}

// Fifty sequential hops (dial, auth, an access declaring a program,
// depart, close) are served by at most two workers, and nothing of a
// connection survives into the next one its worker serves: an
// undeparted token is departed when its connection drops, another
// connection cannot use it, and a connection rejected for an oversize
// or garbage line leaves its worker serving the next one correctly.
func TestConnectionWorkersPersist(t *testing.T) {
	reg := obs.NewRegistry()
	_, c, addr, workers := workerDaemon(t, DaemonConfig{MaxLineBytes: 4096, Obs: reg})
	const program = "read f-s1 @ s1; read rsw @ s1"
	oversize := append(bytes.Repeat([]byte("x"), 4096+512), '\n')
	for i := 0; i < 50; i++ {
		switch i % 10 {
		case 3:
			if line := rawExchange(t, addr, []byte("garbage\n")); !strings.Contains(line, "malformed request") {
				t.Fatalf("hop %d: garbage answered %q", i, line)
			}
			waitReleased(t, reg)
		case 7:
			if line := rawExchange(t, addr, oversize); !strings.Contains(line, "exceeds 4096-byte limit") {
				t.Fatalf("hop %d: oversize line answered %q", i, line)
			}
			waitReleased(t, reg)
		case 5:
			// A arrives, taking o1's log the last hop parked, accesses,
			// and drops without departing.
			a := dialRaw(t, addr)
			tokA := a.auth(cred(c, "o1", "owner", "traveler"))
			if resp := a.access(tokA, "f-s1", 0, "", nil); !resp.OK {
				t.Fatalf("hop %d: A's access: %s", i, resp.Error)
			}
			if got := handoffGauge(reg); got != 0 {
				t.Fatalf("hop %d: %d proofs parked while A is resident", i, got)
			}
			_ = a.conn.Close()
			// The drop departed A's token: its one-proof log is parked
			// for o1's next arrival.
			waitHandoff(t, reg, 1)
			waitReleased(t, reg)
			b := dialRaw(t, addr)
			if resp := b.access(tokA, "f-s1", 0, "", nil); resp.OK || resp.Error != "access: unknown or expired token" {
				t.Fatalf("hop %d: B presenting A's token got ok=%v %q", i, resp.OK, resp.Error)
			}
			// B's own arrival adopts the log A's drop parked.
			if tokB := b.auth(cred(c, "o1", "owner", "traveler")); tokB == tokA {
				t.Fatalf("hop %d: B was issued A's token", i)
			}
			waitHandoff(t, reg, 0)
			_ = b.conn.Close()
			waitReleased(t, reg)
		}
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
			t.Fatalf("hop %d: auth: %v", i, err)
		}
		data, err := cl.Access(model.OpRead, "f-s1", program, nil)
		if err != nil {
			t.Fatalf("hop %d: access: %v", i, err)
		}
		if string(data) != "content of s1" {
			t.Fatalf("hop %d: read %q", i, data)
		}
		if n := len(cl.Proofs()); n != 1 {
			t.Fatalf("hop %d: %d proofs carried, want 1", i, n)
		}
		if err := cl.Depart(); err != nil {
			t.Fatalf("hop %d: depart: %v", i, err)
		}
		_ = cl.Close()
		// The next dial may still race this worker back to idle; waiting
		// for the release leaves it that one narrow window.
		waitReleased(t, reg)
	}
	if n := workers.Load(); n > 2 {
		t.Fatalf("%d workers served 50 sequential hops, want at most 2", n)
	}
	if got := rejectCount(reg, "malformed"); got != 5 {
		t.Fatalf("malformed rejects = %d, want 5", got)
	}
	if got := rejectCount(reg, "oversize"); got != 5 {
		t.Fatalf("oversize rejects = %d, want 5", got)
	}
}

// Close wakes and drains the workers parked waiting for a connection
// at once, not when their idle period runs out.
func TestDaemonCloseDrainsIdleWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	d, _, addr, workers := workerDaemon(t, DaemonConfig{Obs: reg})
	const n = 4
	// Two rounds of n concurrent connections, each closed after the
	// round: the second round's connections go to the first round's
	// parked workers.
	for round := 0; round < 2; round++ {
		var conns []*Client
		for i := 0; i < n; i++ {
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.Info(); err != nil {
				t.Fatal(err)
			}
			conns = append(conns, cl)
		}
		for _, cl := range conns {
			_ = cl.Close()
		}
		waitReleased(t, reg)
	}
	if got := workers.Load(); got < n || got > n+1 {
		t.Fatalf("%d workers served two rounds of %d concurrent connections", got, n)
	}
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= workerIdle/4 {
		t.Fatalf("Close took %v: it waited out the idle workers' %v", took, workerIdle)
	}
	// A worker has called wg.Done in its deferred return but may not
	// have exited yet; it is gone within moments, well inside its idle
	// period.
	deadline := start.Add(workerIdle / 4)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d %v after Close, baseline %d: idle workers not drained",
				runtime.NumGoroutine(), time.Since(start), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// A connection served by a reused worker reads from its own socket
// only: a line a previous connection left unread in the worker's
// buffer is never served to the next one.
func TestConnectionWorkerDropsUnreadInput(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, addr, workers := workerDaemon(t, DaemonConfig{Obs: reg})
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Garbage then a valid line in one write: the daemon rejects the
		// first and closes, leaving the second buffered.
		resp := rawRoundTrip(t, conn, []byte("garbage\n{\"type\":\"info\"}\n"))
		if resp.OK || !strings.HasPrefix(resp.Error, "malformed request") {
			t.Fatalf("round %d: garbage answered ok=%v %q", i, resp.OK, resp.Error)
		}
		_ = conn.Close()
		waitReleased(t, reg)
		next := dialRaw(t, addr)
		if resp := next.send(wireRequest{Type: "audit"}); !resp.OK || resp.Server != "" {
			t.Fatalf("round %d: the next connection's audit answered ok=%v server=%q %q",
				i, resp.OK, resp.Server, resp.Error)
		}
		_ = next.conn.Close()
		waitReleased(t, reg)
	}
	if n := workers.Load(); n > 2 {
		t.Fatalf("%d workers served 10 sequential connections, want at most 2", n)
	}
}
