package server

// Tests for the resident verified history: the daemon keeps each
// token's verified carried proofs, and a Client sends only the proofs
// after the daemon's cursor. Decisions must be exactly those of a
// client that sends its complete history on every access; hostile or
// stale cursors must be refused before anything is decided.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
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
// history, each under the trace context tc (none when it is zero), and
// returns each read's error text ("" for a grant) and the history
// carried onwards.
type hopFunc func(t *testing.T, addr string, tc obs.TraceContext, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof)

// deltaHop is the production Client, importing its history before Auth
// as agent.RemoteRuntime does: the first read opens at the log adopted
// from the previous hop (or sends the full history when the history
// does not extend it), then only the suffix after the daemon's cursor.
func deltaHop(t *testing.T, addr string, tc obs.TraceContext, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof) {
	return clientHop(t, addr, tc, cr, carried, reads, false)
}

// lateImportHop is deltaHop importing its history after Auth, as the
// bench and stacload agents do.
func lateImportHop(t *testing.T, addr string, tc obs.TraceContext, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof) {
	return clientHop(t, addr, tc, cr, carried, reads, true)
}

func clientHop(t *testing.T, addr string, tc obs.TraceContext, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID, late bool) ([]string, []proof.Proof) {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTrace(tc)
	if !late {
		cl.ImportProofs(carried)
	}
	if err := cl.Auth(cr); err != nil {
		t.Fatal(err)
	}
	if late {
		cl.ImportProofs(carried)
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
func fullHop(t *testing.T, addr string, tc obs.TraceContext, cr proof.Credential, carried []proof.Proof, reads []model.ResourceID) ([]string, []proof.Proof) {
	t.Helper()
	rc := dialRaw(t, addr)
	tok := rc.auth(cr)
	carried = carried[:len(carried):len(carried)]
	var out []string
	for _, res := range reads {
		resp := rc.send(wireRequest{Type: "access", Token: tok, Op: string(model.OpRead),
			Resource: string(res), Proofs: carried, Trace: tc.String()})
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
	// verified is how many carried proofs the daemons HMAC-verified,
	// which is what the client's shipping may change.
	verified int64
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
		verdicts, carried = runHop(t, addrs[h.server], obs.TraceContext{}, cr, carried, h.reads)
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
		for _, e := range recs {
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
	for _, id := range []string{"s1", "s2", "s3"} {
		run.verified += reg.CounterValue("stac_server_carried_proofs_total",
			obs.Labels(obs.Label("outcome", "verified"), obs.Label("server", id)))
	}
	return run
}

func TestResidentHistoryMatchesFullHistoryClient(t *testing.T) {
	grants, denies := 0, 0
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			hops := equivItinerary(seed)
			full := runEquivItinerary(t, hops, fullHop)
			for _, v := range full.verdicts {
				if v == "" {
					grants++
				} else {
					denies++
				}
			}
			for _, client := range []struct {
				name string
				hop  hopFunc
			}{{"delta", deltaHop}, {"late import", lateImportHop}} {
				delta := runEquivItinerary(t, hops, client.hop)
				if !reflect.DeepEqual(delta.verdicts, full.verdicts) {
					t.Fatalf("verdicts differ:\n%s %q\nfull  %q", client.name, delta.verdicts, full.verdicts)
				}
				if !reflect.DeepEqual(delta.audit, full.audit) {
					t.Fatalf("audit entries (reasons, explanations) differ:\n%s %+v\nfull  %+v", client.name, delta.audit, full.audit)
				}
				if len(delta.records) != len(full.records) {
					t.Fatalf("decision records: %d %s vs %d full", len(delta.records), client.name, len(full.records))
				}
				for i := range delta.records {
					if !reflect.DeepEqual(delta.records[i], full.records[i]) {
						t.Fatalf("record %d differs:\n%s %+v\nfull  %+v", i, client.name, delta.records[i], full.records[i])
					}
				}
				// The delta run's stream still replays bit-identically.
				res, err := core.Replay(equivPolicy, delta.records, core.ReplayOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Deterministic() {
					t.Fatalf("%s replay divergences: %v", client.name, res.Divergences)
				}
				// Every carried proof was issued on an earlier hop, and a
				// reset drops the whole history, so with the logs following
				// the hops nothing is left to verify.
				if delta.verified != 0 || full.verified == 0 {
					t.Fatalf("carried proofs verified: %d by the %s client, %d by the full one; want 0 and more",
						delta.verified, client.name, full.verified)
				}
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

// TestResidentDedupReplayReportsCurrentToken loses the reply to a
// ceiling-reaching read with its connection, then retries it from a new
// token carrying only the first proof. The replayed reply's have must
// describe the new token's log: the log the lost connection parked when
// the token adopted it, nothing when another session took it first.
func TestResidentDedupReplayReportsCurrentToken(t *testing.T) {
	for _, tc := range []struct {
		name string
		// taken has another session of the object adopt the parked log
		// before the device reconnects.
		taken bool
		// acked is the device's cursor after the replay, and verified
		// the proofs the third read HMAC-verifies.
		acked, verified int64
	}{
		{name: "adopts the parked log", acked: 2, verified: 0},
		{name: "nothing parked", taken: true, acked: 0, verified: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newCoalition(t)
			reg := obs.NewRegistry()
			_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: reg})
			cr := cred(c, "o1", "owner", "traveler")

			// First connection: two rsw reads (the ceiling), the reply to
			// the second lost with the connection.
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
			if tc.taken {
				waitHandoff(t, reg, 2)
				if got := dialRaw(t, addr).send(wireRequest{Type: "auth", Credential: &cr}); got.Have != 2 {
					t.Fatalf("auth of the other session = %+v, want the parked log", got)
				}
			}

			// The device reconnects carrying only the first proof and
			// retries.
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
			if int64(acked) != tc.acked || n != 2 {
				t.Fatalf("after the replay: acked %d, proofs %d; want %d and 2", acked, n, tc.acked)
			}
			verified := carriedCount(reg, "verified")
			// The next read decides on both reads, resident or resent.
			_, err = cl.Access(model.OpRead, "rsw", "", nil)
			if !errors.Is(err, ErrDenied) {
				t.Fatalf("third rsw read = %v, want the ceiling denial", err)
			}
			if got := carriedCount(reg, "verified") - verified; got != tc.verified {
				t.Fatalf("verified %d proofs, want %d", got, tc.verified)
			}
		})
	}
}

// --- old daemons ----------------------------------------------------------

// TestResidentClientAgainstDaemonWithoutHave puts a relay between a
// Client and a daemon that strips have and head from every reply, as a
// daemon from before the history cursor would: across a hop, the client
// must keep sending its complete history.
func TestResidentClientAgainstDaemonWithoutHave(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	strip := func(fields map[string]json.RawMessage) {
		delete(fields, "have")
		delete(fields, "head")
	}
	var sent [][2]int // base, proofs of each access
	var carried []proof.Proof
	for hop := 0; hop < 2; hop++ {
		cl, reqs := relayClient(t, addr, nil, strip)
		cl.ImportProofs(carried)
		if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := cl.Access(model.OpRead, "f-s1", "", nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Depart(); err != nil {
			t.Fatal(err)
		}
		carried = cl.Proofs()
		for _, req := range reqs() {
			if req.Type == "access" {
				sent = append(sent, [2]int{req.Base, len(req.Proofs)})
			}
		}
	}
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

// --- monitor states on the resident log ----------------------------------

// monitorTourExtra is defined mid-tour: a permission the object only
// meets after its log has already carried states for the others.
const monitorTourExtra = `
permission p-d read rd @ * {
    spatial count(0, 1, sigma[r=rd]) or [read rc @ s2] >> [read rd @ *]
}
grant traveler p-d
`

// TestResidentMonitorTourMatchesReplay drives one object through a tour
// whose decisions run on the monitor states its resident log keeps: the
// log is handed off between daemons, one hop resends the whole history
// from base 0 on every read, a permission is defined mid-tour, and a
// shadow policy decides every access on the same log. The verdicts,
// reasons and explanations must equal core.Replay of the recorded
// stream, the shadow's live flips core.ShadowDiff's, and the kept states
// must have done the work: the decisions' prefix_eval spans step under
// a third of the entries a scan of every decision's history would.
func TestResidentMonitorTourMatchesReplay(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	if err := core.LoadPolicyString(c.Engine, equivPolicy); err != nil {
		t.Fatal(err)
	}
	c.Engine.EnableCostProfiling()
	// Every request carries one sampled trace, so each decision renders
	// its prefix_eval span with the entries its evaluation stepped.
	tracer := obs.NewTracer(4096)
	c.Engine.SetTracer(tracer)
	tc := tracer.NewContext()
	shadowSrc := strings.Replace(equivPolicy, "count(0, 3, sigma[r=ra])", "count(0, 2, sigma[r=ra])", 1)
	if err := c.SetShadowPolicy(shadowSrc); err != nil {
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
		for _, r := range []model.ResourceID{"ra", "rb", "rc", "rd"} {
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
	hops := []struct {
		server model.ServerID
		hop    hopFunc
		define bool // monitorTourExtra is loaded before the hop
		reads  []model.ResourceID
	}{
		{"s1", deltaHop, false, []model.ResourceID{"ra", "rb", "rc", "ra"}},
		{"s2", deltaHop, false, []model.ResourceID{"rc", "rb", "ra", "rb"}},
		{"s3", fullHop, false, []model.ResourceID{"rb", "ra", "rc"}},
		{"s1", lateImportHop, true, []model.ResourceID{"rd", "rb", "rd", "ra"}},
		{"s2", deltaHop, false, []model.ResourceID{"rc", "rd", "rb", "rb", "rd"}},
		{"s3", deltaHop, false, []model.ResourceID{"rb", "rc", "rd", "ra"}},
		{"s1", deltaHop, false, []model.ResourceID{"ra", "rb", "rc", "rd", "rb", "rc"}},
		{"s2", deltaHop, false, []model.ResourceID{"rc", "rd", "rb", "ra", "rd", "rb"}},
	}
	var verdicts []string
	var carried []proof.Proof
	for _, h := range hops {
		if h.define {
			if err := core.LoadPolicyString(c.Engine, monitorTourExtra); err != nil {
				t.Fatal(err)
			}
		}
		var v []string
		v, carried = h.hop(t, addrs[h.server], tc, cr, carried, h.reads)
		verdicts = append(verdicts, v...)
		clk.Advance(1)
	}
	for _, d := range daemons {
		_ = d.Close()
	}
	grants := 0
	for _, v := range verdicts {
		if v == "" {
			grants++
		}
	}
	if grants == 0 || grants == len(verdicts) {
		t.Fatalf("tour made %d grants of %d decisions; the comparison needs both verdicts", grants, len(verdicts))
	}

	recs, err := record.ReadAll(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Replay(equivPolicy+monitorTourExtra, recs, core.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != len(verdicts) || !res.Deterministic() {
		t.Fatalf("replayed %d of %d decisions, divergences: %v", res.Decisions, len(verdicts), res.Divergences)
	}
	diff, err := core.ShadowDiff(shadowSrc, recs, core.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, flips := c.ShadowInfo(); flips == 0 || int(flips) != len(diff.Flips) {
		t.Fatalf("live shadow flips %d, offline diff %d; want equal and nonzero", flips, len(diff.Flips))
	}

	// A scan would step each decision's whole history plus the access.
	scan := int64(0)
	for _, r := range recs {
		if r.Kind == record.KindDecide {
			scan += int64(r.HistoryBase + len(r.History) + 1)
		}
	}
	evals, stepped := 0, int64(0)
	for _, sp := range tracer.Store().Trace(tc.Trace) {
		if sp.Name != "prefix_eval" {
			continue
		}
		evals++
		for _, a := range sp.Attrs {
			if a.Key == "entries" {
				n, err := strconv.Atoi(a.Value)
				if err != nil {
					t.Fatal(err)
				}
				stepped += int64(n)
			}
		}
	}
	t.Logf("%d decisions (%d grants): %d entries stepped, a scan's %d", len(verdicts), grants, stepped, scan)
	if evals != len(verdicts) || stepped >= scan/3 {
		t.Fatalf("%d evaluations stepped %d entries: want %d stepping under a third of a scan's %d",
			evals, stepped, len(verdicts), scan)
	}
}
