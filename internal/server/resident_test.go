package server

// Tests for the resident verified history: the daemon keeps each
// token's verified carried proofs, and a Client sends only the proofs
// after the daemon's cursor. Decisions must be exactly those of a
// client that sends its complete history on every access; hostile or
// stale cursors must be refused before anything is decided.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
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

// The raw wire client (rawConn, in trace_audit_test.go) sends exactly
// the request it is given, so these tests control the cursor.

func (r *rawConn) auth(c proof.Credential) string {
	r.t.Helper()
	resp := r.send(wireRequest{Type: "auth", Credential: &c})
	if !resp.OK {
		r.t.Fatalf("auth: %s", resp.Error)
	}
	return resp.Token
}

// access sends one read of res after the given cursor.
func (r *rawConn) access(token string, res model.ResourceID, base int, head string, ps []proof.Proof) wireResponse {
	r.t.Helper()
	return r.send(wireRequest{Type: "access", Token: token, Op: string(model.OpRead),
		Resource: string(res), Base: base, Head: head, Proofs: ps})
}

func residentGauge(reg *obs.Registry) int64 {
	return reg.GaugeValue("stac_server_resident_proofs", obs.Label("server", "s1"))
}

func carriedCount(reg *obs.Registry, outcome string) int64 {
	return reg.CounterValue("stac_server_carried_proofs_total",
		obs.Labels(obs.Label("outcome", outcome), obs.Label("server", "s1")))
}

// waitGauge polls the resident gauge until it reads want: a dropped
// connection departs its tokens after the handler notices the close.
func waitGauge(t *testing.T, reg *obs.Registry, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for residentGauge(reg) != want {
		if time.Now().After(deadline) {
			t.Fatalf("stac_server_resident_proofs = %d, want %d", residentGauge(reg), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func auditTotal(t *testing.T, c *Coalition, id model.ServerID) int {
	t.Helper()
	srv, err := c.Server(id)
	if err != nil {
		t.Fatal(err)
	}
	_, total := srv.Audit()
	return total
}

// --- equivalence with full-history clients -------------------------------

// equivPolicy mixes count ceilings that deny within a few hops with a
// conditional ceiling and a server-scoped one.
const equivPolicy = `
user o1
role traveler
permission p-a read ra @ * {
    spatial count(0, 3, sigma[r=ra])
}
permission p-b read rb @ * {
    spatial count(0, 4, sigma[r=rb]) and count(0, 5, sigma[s=s1])
}
permission p-c read rc @ * {
    spatial [read ra @ *] -> count(0, 2, sigma[r=rc])
}
grant traveler p-a
grant traveler p-b
grant traveler p-c
assign o1 traveler
`

type equivHop struct {
	server model.ServerID
	fresh  bool // the carried history is dropped before the hop
	reads  []model.ResourceID
}

func equivItinerary(seed int64) []equivHop {
	rng := rand.New(rand.NewSource(seed))
	servers := []model.ServerID{"s1", "s2", "s3"}
	resources := []model.ResourceID{"ra", "rb", "rc"}
	hops := make([]equivHop, 8+rng.Intn(5))
	for i := range hops {
		h := equivHop{server: servers[rng.Intn(len(servers))], fresh: i > 0 && rng.Intn(5) == 0}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			h.reads = append(h.reads, resources[rng.Intn(len(resources))])
		}
		hops[i] = h
	}
	return hops
}

// hopFunc performs one hop's reads at addr carrying the given
// history, and returns each read's error text ("" for a grant) and the
// history carried onwards.
type hopFunc func(t *testing.T, addr string, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof)

// deltaHop is the production Client: full history on the first read
// of a hop, then only the suffix after the daemon's cursor.
func deltaHop(t *testing.T, addr string, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof) {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ImportProofs(carried)
	if err := cl.Auth(cr); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, res := range reads {
		_, err := cl.Access(model.OpRead, res, "", nil)
		switch {
		case err == nil:
			out = append(out, "")
		case IsTransient(err):
			t.Fatal(err)
		default:
			out = append(out, err.Error())
		}
	}
	carried = cl.Proofs()
	if err := cl.Depart(); err != nil {
		t.Fatal(err)
	}
	return out, carried
}

// fullHop is a client from before the history cursor: it sends its
// complete history on every read and never sends a base.
func fullHop(t *testing.T, addr string, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof) {
	t.Helper()
	rc := dialRaw(t, addr)
	tok := rc.auth(cr)
	carried = carried[:len(carried):len(carried)]
	var out []string
	for _, res := range reads {
		resp := rc.access(tok, res, 0, "", carried)
		out = append(out, resp.Error)
		if resp.Proof != nil {
			carried = append(carried, *resp.Proof)
		}
	}
	if resp := rc.send(wireRequest{Type: "depart", Token: tok}); !resp.OK {
		t.Fatalf("depart: %s", resp.Error)
	}
	return out, carried
}

// equivRun is everything a run leaves behind that must not depend on
// how the client ships its history.
type equivRun struct {
	verdicts []string
	audit    []AuditEntry
	records  []record.Record
	wal      []byte
}

func runEquivItinerary(t *testing.T, hops []equivHop, runHop hopFunc) equivRun {
	t.Helper()
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	if err := core.LoadPolicyString(c.Engine, equivPolicy); err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 4096, WAL: &wal, Registry: reg}))
	addrs := map[model.ServerID]string{}
	var daemons []*Daemon
	for _, id := range []model.ServerID{"s1", "s2", "s3"} {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []model.ResourceID{"ra", "rb", "rc"} {
			srv.HostResource(r, []byte(r))
		}
		d := NewDaemonWith(srv, DaemonConfig{Obs: reg})
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		daemons = append(daemons, d)
		addrs[id] = addr
	}
	cr := cred(c, "o1", "owner", "traveler")
	var run equivRun
	var carried []proof.Proof
	for _, h := range hops {
		if h.fresh {
			carried = nil
		}
		var verdicts []string
		verdicts, carried = runHop(t, addrs[h.server], cr, carried, h.reads)
		run.verdicts = append(run.verdicts, verdicts...)
		clk.Advance(1)
	}
	// Closing the daemons waits for every handler, so the stream is
	// complete and no longer written while it is read.
	for _, d := range daemons {
		_ = d.Close()
	}
	for _, srv := range c.Servers() {
		recs, _ := srv.Audit()
		for _, r := range recs {
			e := r.Entry()
			e.DecisionID, e.TraceID, e.HLC = "", "", ""
			run.audit = append(run.audit, e)
		}
	}
	recs, err := record.ReadAll(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		r.DecisionID, r.TraceID, r.HLC = "", "", ""
		run.records = append(run.records, r)
	}
	run.wal = wal.Bytes()
	return run
}

func TestResidentHistoryMatchesFullHistoryClient(t *testing.T) {
	grants, denies := 0, 0
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			hops := equivItinerary(seed)
			delta := runEquivItinerary(t, hops, deltaHop)
			full := runEquivItinerary(t, hops, fullHop)
			if !reflect.DeepEqual(delta.verdicts, full.verdicts) {
				t.Fatalf("verdicts differ:\ndelta %q\nfull  %q", delta.verdicts, full.verdicts)
			}
			for _, v := range delta.verdicts {
				if v == "" {
					grants++
				} else {
					denies++
				}
			}
			if !reflect.DeepEqual(delta.audit, full.audit) {
				t.Fatalf("audit entries (reasons, explanations) differ:\ndelta %+v\nfull  %+v", delta.audit, full.audit)
			}
			if len(delta.records) != len(full.records) {
				t.Fatalf("decision records: %d delta vs %d full", len(delta.records), len(full.records))
			}
			for i := range delta.records {
				if !reflect.DeepEqual(delta.records[i], full.records[i]) {
					t.Fatalf("record %d differs:\ndelta %+v\nfull  %+v", i, delta.records[i], full.records[i])
				}
			}
			// The delta run's stream still replays bit-identically.
			res, err := core.Replay(equivPolicy, delta.records, core.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Deterministic() {
				t.Fatalf("replay divergences: %v", res.Divergences)
			}
		})
	}
	if grants == 0 || denies == 0 {
		t.Fatalf("itineraries made %d grants and %d denials; the comparison needs both", grants, denies)
	}
}

// --- cursor mismatches ----------------------------------------------------

func TestResidentCursorMismatchRefusedBeforeDeciding(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	rc := dialRaw(t, addr)
	tok := rc.auth(cred(c, "o1", "owner", "traveler"))

	var held []proof.Proof
	grant := func(base int, head string, ps []proof.Proof) {
		t.Helper()
		resp := rc.access(tok, "f-s1", base, head, ps)
		if !resp.OK {
			t.Fatalf("access(base %d): %s", base, resp.Error)
		}
		held = append(held, *resp.Proof)
		if resp.Have != len(held) {
			t.Fatalf("have = %d, want %d", resp.Have, len(held))
		}
	}
	grant(0, "", nil)
	grant(1, held[0].Sig, nil)

	// Each case's cursor is taken against the resident log of len(held)
	// proofs; a correct head is the signature of proof base-1.
	for _, tc := range []struct {
		name      string
		base      func() int
		wrongHead bool
	}{
		{"stale base", func() int { return len(held) - 1 }, false},
		{"wrong head", func() int { return len(held) }, true},
		{"base beyond the log", func() int { return len(held) + 5 }, false},
		{"negative base", func() int { return -1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, head := tc.base(), "not-a-signature"
			if !tc.wrongHead && base > 0 && base <= len(held) {
				head = held[base-1].Sig
			}
			before := auditTotal(t, c, "s1")
			resp := rc.access(tok, "f-s1", base, head, nil)
			if resp.OK || !strings.HasPrefix(resp.Error, msgCursorMismatch) {
				t.Fatalf("reply = %+v, want %q", resp, msgCursorMismatch)
			}
			if resp.DecisionID != "" || resp.Have != 0 {
				t.Fatalf("mismatch reply carries decision %q, have %d", resp.DecisionID, resp.Have)
			}
			if got := auditTotal(t, c, "s1"); got != before {
				t.Fatalf("audit total %d -> %d: a mismatch reached the engine", before, got)
			}
			if g := residentGauge(reg); g != 0 {
				t.Fatalf("resident gauge = %d after a mismatch, want the log dropped", g)
			}
			// The full history is always accepted again.
			grant(0, "", held)
		})
	}
}

func TestResidentClientRecoversFromMismatch(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// A stale cursor on the client side...
	cl.mu.Lock()
	cl.acked = 1
	cl.mu.Unlock()
	before := auditTotal(t, c, "s1")
	if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
		t.Fatalf("access after a stale cursor: %v", err)
	}
	// ...and a daemon that lost the log: another connection of the
	// same token sends a bad cursor, which drops it.
	rc := dialRaw(t, addr)
	if resp := rc.access(cl.token, "f-s1", 99, "", nil); !strings.HasPrefix(resp.Error, msgCursorMismatch) {
		t.Fatalf("bad cursor reply = %+v", resp)
	}
	if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
		t.Fatalf("access after the log was dropped: %v", err)
	}
	if got := auditTotal(t, c, "s1") - before; got != 2 {
		t.Fatalf("decisions = %d, want 2 (one per access, none per mismatch)", got)
	}
	cl.mu.Lock()
	acked, n := cl.acked, len(cl.proofs)
	cl.mu.Unlock()
	if acked != n || n != 5 || residentGauge(reg) != 5 {
		t.Fatalf("acked %d, proofs %d, resident %d: want all 5 resident", acked, n, residentGauge(reg))
	}
	// A transport error leaves the daemon's state unknown: the cursor
	// falls back to the full history.
	cl.conn.Close()
	if _, err := cl.Access(model.OpRead, "f-s1", "", nil); !IsTransient(err) {
		t.Fatalf("access on a closed connection = %v, want a transport error", err)
	}
	cl.mu.Lock()
	acked = cl.acked
	cl.mu.Unlock()
	if acked != 0 {
		t.Fatalf("acked = %d after a transport error, want 0", acked)
	}
}

// TestResidentRequestRacingDepartIsRefused replays the interleaving in
// which an access looks its token up just before a depart removes it,
// and takes the session lock just after: it must not decide on the
// departed subject, nor leave a resident log behind.
func TestResidentRequestRacingDepartIsRefused(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	d, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	rc := dialRaw(t, addr)
	tok := rc.auth(cred(c, "o1", "owner", "traveler"))
	if resp := rc.access(tok, "f-s1", 0, "", nil); !resp.OK {
		t.Fatal(resp.Error)
	}
	d.mu.Lock()
	s := d.subjects[tok]
	d.mu.Unlock()
	if !d.depart(tok) {
		t.Fatal("depart found no session")
	}
	d.mu.Lock()
	d.subjects[tok] = s // the stale lookup
	d.mu.Unlock()
	before := auditTotal(t, c, "s1")
	resp := rc.access(tok, "f-s1", 0, "", nil)
	if resp.OK || !strings.Contains(resp.Error, "unknown or expired token") {
		t.Fatalf("access on a departed session = %+v", resp)
	}
	if auditTotal(t, c, "s1") != before || residentGauge(reg) != 0 {
		t.Fatalf("departed session decided (+%d) or kept %d proofs resident",
			auditTotal(t, c, "s1")-before, residentGauge(reg))
	}
	// Undo the stale entry, or the connection's close would depart the
	// subject a second time.
	d.mu.Lock()
	delete(d.subjects, tok)
	d.mu.Unlock()
}

// --- hostile deltas and replays ------------------------------------------

func TestResidentForgedDeltaProofRejected(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	rc := dialRaw(t, addr)
	tok := rc.auth(cred(c, "o1", "owner", "traveler"))
	first := rc.access(tok, "rsw", 0, "", nil)
	if !first.OK {
		t.Fatal(first.Error)
	}
	p1 := *first.Proof
	// A genuine proof of another rsw read, tampered to name f-s1.
	forged := c.Signer.Issue(model.Access{Object: "o1", Op: model.OpRead, Resource: "rsw", Server: "s2"}, 0)
	forged.Access.Resource = "f-s1"
	before := auditTotal(t, c, "s1")
	resp := rc.access(tok, "rsw", 1, p1.Sig, []proof.Proof{forged})
	if resp.OK || !strings.Contains(resp.Error, "carried proof rejected") {
		t.Fatalf("forged delta reply = %+v", resp)
	}
	if resp.Have != 0 || residentGauge(reg) != 0 || auditTotal(t, c, "s1") != before {
		t.Fatalf("after a forged delta: have %d, resident %d, decisions +%d; want the log dropped and no decision",
			resp.Have, residentGauge(reg), auditTotal(t, c, "s1")-before)
	}
	// The old cursor is gone with the log...
	if resp := rc.access(tok, "rsw", 1, p1.Sig, nil); !strings.HasPrefix(resp.Error, msgCursorMismatch) {
		t.Fatalf("cursor into a dropped log = %+v", resp)
	}
	// ...and the next full history succeeds and counts only p1: the
	// rsw ceiling of 2 admits exactly one more read.
	if resp := rc.access(tok, "rsw", 0, "", []proof.Proof{p1}); !resp.OK || resp.Have != 2 {
		t.Fatalf("full history after the reject = %+v", resp)
	}
}

// TestResidentDeltaDuplicatesCollapse re-sends resident proofs inside
// deltas: they must collapse into the resident copies, as duplicates
// inside one full history always did, so a count ceiling never sees
// one access twice.
func TestResidentDeltaDuplicatesCollapse(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	rc := dialRaw(t, addr)
	tok := rc.auth(cred(c, "o1", "owner", "traveler"))
	first := rc.access(tok, "rsw", 0, "", nil)
	if !first.OK {
		t.Fatal(first.Error)
	}
	p1 := *first.Proof
	// The rsw ceiling is 2: with p1 counted once, one more read fits.
	second := rc.access(tok, "rsw", 1, p1.Sig, []proof.Proof{p1, p1})
	if !second.OK || second.Have != 2 {
		t.Fatalf("read re-sending p1 = %+v, want a grant on a history of one rsw read", second)
	}
	if v, r := carriedCount(reg, "verified"), carriedCount(reg, "resident"); v != 0 || r != 3 {
		t.Fatalf("carried proofs verified %d, resident %d; want 0 and 3", v, r)
	}
	third := rc.access(tok, "rsw", 2, second.Proof.Sig, []proof.Proof{p1, *second.Proof})
	if third.OK || !strings.Contains(third.Error, "denied") {
		t.Fatalf("third rsw read = %+v, want the ceiling denial", third)
	}
}

func TestResidentDedupReplayReportsCurrentToken(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	cr := cred(c, "o1", "owner", "traveler")

	// First connection: two rsw reads (the ceiling), the reply to the
	// second lost with the connection.
	rc := dialRaw(t, addr)
	tok := rc.auth(cr)
	r0 := rc.access(tok, "rsw", 0, "", nil)
	if !r0.OK {
		t.Fatal(r0.Error)
	}
	lost := rc.send(wireRequest{Type: "access", ID: "x", Token: tok, Op: string(model.OpRead),
		Resource: "rsw", Base: 1, Head: r0.Proof.Sig})
	if !lost.OK || lost.Have != 2 {
		t.Fatalf("second read = %+v", lost)
	}
	rc.conn.Close()
	waitGauge(t, reg, 0)

	// The device reconnects carrying only the first proof and retries.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ImportProofs([]proof.Proof{*r0.Proof})
	if err := cl.Auth(cr); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AccessID("x", model.OpRead, "rsw", "", nil); err != nil {
		t.Fatalf("replayed read: %v", err)
	}
	cl.mu.Lock()
	acked, n := cl.acked, len(cl.proofs)
	cl.mu.Unlock()
	// The recorded reply said have 2; the new token holds nothing.
	if acked != 0 || n != 2 {
		t.Fatalf("after the replay: acked %d, proofs %d; want 0 and 2", acked, n)
	}
	verified := carriedCount(reg, "verified")
	// The next read decides on the full history: both reads count.
	_, err = cl.Access(model.OpRead, "rsw", "", nil)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("third rsw read = %v, want the ceiling denial", err)
	}
	if got := carriedCount(reg, "verified") - verified; got != 2 {
		t.Fatalf("verified %d proofs, want the full history of 2", got)
	}
}

// --- old daemons ----------------------------------------------------------

// TestResidentClientAgainstDaemonWithoutHave puts a relay between a
// Client and a daemon that strips have from every reply, as a daemon
// from before the history cursor would: the client must keep sending
// its complete history.
func TestResidentClientAgainstDaemonWithoutHave(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	up, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	local, relay := net.Pipe()
	var mu sync.Mutex
	var sent [][2]int // base, proofs of each access
	go func() {
		defer relay.Close()
		in, out := bufio.NewReader(relay), bufio.NewReader(up)
		for {
			line, err := in.ReadBytes('\n')
			if err != nil {
				return
			}
			var req wireRequest
			if json.Unmarshal(line, &req) == nil && req.Type == "access" {
				mu.Lock()
				sent = append(sent, [2]int{req.Base, len(req.Proofs)})
				mu.Unlock()
			}
			if _, err := up.Write(line); err != nil {
				return
			}
			reply, err := out.ReadBytes('\n')
			if err != nil {
				return
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(reply, &fields); err != nil {
				return
			}
			delete(fields, "have")
			b, _ := json.Marshal(fields)
			if _, err := relay.Write(append(b, '\n')); err != nil {
				return
			}
		}
	}()
	cl := NewClient(local, ClientConfig{})
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}}
	if !reflect.DeepEqual(sent, want) {
		t.Fatalf("accesses sent (base, proofs) = %v, want full histories %v", sent, want)
	}
}

// --- concurrency and accounting -------------------------------------------

// TestResidentConcurrentSameToken drives one token from several
// connections at once. Each connection's cursor keeps going stale
// under the others' grants; every access must still decide exactly
// once, and the accounting must balance.
func TestResidentConcurrentSameToken(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	owner, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	const conns, reads = 4, 15
	clients := []*Client{owner}
	for len(clients) < conns {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.token = owner.token
		clients = append(clients, cl)
	}
	before := auditTotal(t, c, "s1")
	var wg sync.WaitGroup
	errs := make(chan error, conns*reads)
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
					errs <- err
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := auditTotal(t, c, "s1") - before; got != conns*reads {
		t.Fatalf("decisions = %d, want %d", got, conns*reads)
	}
	if err := owner.Depart(); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, reg, 0)
}

func TestResidentCountersAndGauge(t *testing.T) {
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
	cr := cred(c, "o1", "owner", "traveler")
	var carried []proof.Proof
	for i := 0; i < 4; i++ {
		carried = append(carried, c.Signer.Issue(model.Access{Object: "o1", Op: model.OpRead, Resource: "f-s2", Server: "s2"}, float64(i)))
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ImportProofs(carried)
	if err := cl.Auth(cr); err != nil {
		t.Fatal(err)
	}
	// Three reads: the full history of 4 (all verified), then cursors
	// at 5 and 6 (all resident, nothing re-sent).
	for i := 0; i < 3; i++ {
		if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if v, r := carriedCount(reg, "verified"), carriedCount(reg, "resident"); v != 4 || r != 5+6 {
		t.Fatalf("carried proofs verified %d, resident %d; want 4 and 11", v, r)
	}
	if g := residentGauge(reg); g != 7 {
		t.Fatalf("resident gauge = %d, want 7", g)
	}
	var text bytes.Buffer
	obs.WritePrometheus(&text, reg)
	for _, want := range []string{
		`stac_server_resident_proofs{server="s1"} 7`,
		`stac_server_carried_proofs_total{outcome="verified",server="s1"} 4`,
		`stac_server_carried_proofs_total{outcome="resident",server="s1"} 11`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, text.String())
		}
	}
	if err := cl.Depart(); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, reg, 0)

	// A dropped connection frees its log too.
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl2.ImportProofs(carried)
	if err := cl2.Auth(cr); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Access(model.OpRead, "f-s1", "", nil); err != nil {
		t.Fatal(err)
	}
	if g := residentGauge(reg); g != 5 {
		t.Fatalf("resident gauge = %d, want 5", g)
	}
	cl2.Close()
	waitGauge(t, reg, 0)
}
