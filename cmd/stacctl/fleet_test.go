package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/federate"
	"stac/internal/server"
	"stac/internal/temporal"
)

func TestParseMembers(t *testing.T) {
	ms, err := parseMembers("m1=127.0.0.1:9100, m2=https://example:9200, 127.0.0.1:9300")
	if err != nil {
		t.Fatal(err)
	}
	want := []federate.Member{
		{Name: "m1", BaseURL: "http://127.0.0.1:9100"},
		{Name: "m2", BaseURL: "https://example:9200"},
		{Name: "127.0.0.1:9300", BaseURL: "http://127.0.0.1:9300"},
	}
	if len(ms) != len(want) {
		t.Fatalf("members = %+v", ms)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("member %d = %+v, want %+v", i, ms[i], want[i])
		}
	}
	if _, err := parseMembers(" , "); err == nil {
		t.Fatal("empty member list accepted")
	}
}

// fleetMember is one simulated coalition daemon: its own engine and
// clock, one server exposed over TCP, and a debug listener — the
// process boundary the federate poller is built for.
type fleetMember struct {
	name     string
	c        *server.Coalition
	clk      *temporal.SimClock
	daemon   *server.Daemon
	addr     string // TCP daemon address
	debug    *server.DebugServer
	debugURL string
}

func (m *fleetMember) member() federate.Member {
	return federate.Member{Name: m.name, BaseURL: m.debugURL}
}

// startFleet brings up n members sharing one signing key (so one
// credential roams across all of them), each hosting resource "f"
// under the given policy.
func startFleet(t *testing.T, n int, key []byte, policy string) []*fleetMember {
	t.Helper()
	fleet := make([]*fleetMember, n)
	for i := range fleet {
		m := &fleetMember{name: fmt.Sprintf("m%d", i+1)}
		m.clk = temporal.NewSimClock(0)
		m.c = server.NewCoalition(m.clk, key)
		if err := core.LoadPolicyString(m.c.Engine, policy); err != nil {
			t.Fatal(err)
		}
		m.c.Engine.SetObs(obs.NewRegistry())
		srv, err := m.c.AddServer(model.ServerID("s" + fmt.Sprint(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		srv.HostResource("f", []byte("content at "+m.name))
		m.daemon = server.NewDaemon(srv)
		addr, err := m.daemon.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m.addr = addr
		m.debug = server.NewDebugServer(m.c, []*server.Daemon{m.daemon}, nil,
			server.DebugConfig{Registry: m.c.Engine.Obs(), Heartbeat: 50 * time.Millisecond})
		ts := httptest.NewServer(m.debug.Mux())
		m.debugURL = ts.URL
		t.Cleanup(func() {
			m.debug.Drain()
			ts.Close()
			_ = m.daemon.Close()
		})
		fleet[i] = m
	}
	return fleet
}

// TestFleetTourTopAndWatch is the fleet acceptance scenario: a mobile
// object roams a 3-daemon coalition over TCP while (a) the federate
// poller merges all three snapshots, (b) `stacctl top` shows the
// temporal budget burning down, and (c) `stacctl watch` streams the
// eventual budget-exhaustion denial whose decision ID resolves via
// /debug/explain on the denying member.
func TestFleetTourTopAndWatch(t *testing.T) {
	const policy = `
user o1
role roamer
permission p read * @ * {
    duration 12s
    scheme global
}
grant roamer p
assign o1 roamer
`
	key := []byte("fleet-e2e-key")
	fleet := startFleet(t, 3, key, policy)
	members := make([]federate.Member, len(fleet))
	for i, m := range fleet {
		members[i] = m.member()
	}

	// Attach the watch stream BEFORE the tour so it sees everything;
	// filter to denials — the grants must not leak through.
	var watchOut bytes.Buffer
	watchDone := make(chan error, 1)
	watchCtx, cancelWatch := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelWatch()
	go func() {
		watchDone <- runWatch(watchCtx, &watchOut, nil, members, watchQuery{verdict: "deny"}, 1)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		subscribed := 0
		for _, m := range fleet {
			subscribed += m.c.Watchers()
		}
		if subscribed == len(fleet) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchers never attached")
		}
		time.Sleep(time.Millisecond)
	}

	// One credential roams the whole fleet (shared signing key).
	cred := fleet[0].c.Signer.IssueCredential("o1", "owner@coalition", []string{"roamer"})

	// visit performs one TCP hop: authenticate, read, stay 5 s, depart.
	visit := func(m *fleetMember) error {
		cl, err := server.Dial(m.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Auth(cred); err != nil {
			t.Fatal(err)
		}
		_, accessErr := cl.Access(model.OpRead, "f", "", nil)
		m.clk.Advance(5)
		if err := cl.Depart(); err != nil && accessErr == nil {
			t.Fatal(err)
		}
		return accessErr
	}

	poller := federate.NewPoller(members, federate.Config{ExhaustionHorizon: 1e-9})
	topAt := func() string {
		var buf bytes.Buffer
		if err := runTop(&buf, poller, 0, 1, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// Round 1: one granted visit per member, 5 s of budget each.
	for _, m := range fleet {
		if err := visit(m); err != nil {
			t.Fatalf("round 1 visit %s: %v", m.name, err)
		}
	}
	top1 := topAt()
	if !strings.Contains(top1, "fleet: 3/3 members up") {
		t.Fatalf("top after round 1:\n%s", top1)
	}
	if !strings.Contains(top1, "o1/p") || !strings.Contains(top1, "global") {
		t.Fatalf("top missing budget row:\n%s", top1)
	}
	if !strings.Contains(top1, "3 decisions (3 grants, 0 denies)") {
		t.Fatalf("top counters:\n%s", top1)
	}

	// Round 2: budgets burn to 10 s consumed on every member — the
	// merged view must show consumption strictly increasing.
	for _, m := range fleet {
		if err := visit(m); err != nil {
			t.Fatalf("round 2 visit %s: %v", m.name, err)
		}
	}
	top2 := topAt()
	c1, c2 := topBudgetConsumed(t, top1), topBudgetConsumed(t, top2)
	if !(c2 > c1) {
		t.Fatalf("budget not burning down: consumed %g then %g\ntop1:\n%s\ntop2:\n%s", c1, c2, top1, top2)
	}

	// Round 3 at m1: the visit starts at 10 s consumed (granted), ends
	// at 15 s > 12 s — the next request is the exhaustion denial.
	if err := visit(fleet[0]); err != nil {
		t.Fatalf("round 3 visit m1: %v", err)
	}
	denyErr := visit(fleet[0])
	if denyErr == nil {
		t.Fatal("budget never exhausted")
	}
	var se *server.ServerError
	if !errors.As(denyErr, &se) || se.DecisionID == "" {
		t.Fatalf("denial error = %v (no decision ID)", denyErr)
	}

	// The watch stream delivered exactly that denial.
	select {
	case err := <-watchDone:
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never saw the denial")
	}
	line := strings.TrimSpace(watchOut.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("watch emitted more than the one denial:\n%s", line)
	}
	if !strings.Contains(line, "[m1]") || !strings.Contains(line, "DENY") ||
		!strings.Contains(line, "reason=temporal_exhausted") ||
		!strings.Contains(line, "decision="+se.DecisionID) {
		t.Fatalf("watch line = %q (want the %s denial)", line, se.DecisionID)
	}

	// The streamed decision ID resolves on the denying member's
	// /debug/explain — same decision, full budget arithmetic.
	raw, err := httpGet(fleet[0].debugURL + "/debug/explain?id=" + se.DecisionID)
	if err != nil {
		t.Fatal(err)
	}
	var entry server.AuditEntry
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.DecisionID != se.DecisionID || entry.Granted || entry.DenyReason != "temporal_exhausted" {
		t.Fatalf("explain entry = %+v", entry)
	}
	if entry.Explanation == nil || entry.Explanation.Temporal == nil ||
		entry.Explanation.Temporal.Consumed < 12 {
		t.Fatalf("explanation = %+v", entry.Explanation)
	}

	// The merged fleet view reflects the denial and flags exhaustion.
	view := federate.NewPoller(members, federate.Config{ExhaustionHorizon: 60}).Poll(context.Background())
	if view.Global.Denies != 1 || view.Global.Members != 3 {
		t.Fatalf("fleet view = %+v", view.Global)
	}
	found := false
	for _, a := range view.Anomalies {
		if a.Kind == "budget-exhaustion" && a.Subject == "o1/p" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exhaustion anomaly: %+v", view.Anomalies)
	}
}

// topBudgetConsumed extracts the CONSUMED column of the o1/p row from
// rendered top output.
func topBudgetConsumed(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "o1/p") {
			continue
		}
		fields := strings.Fields(line)
		// o1/p <scheme> <consumed>s <remain>s <rate> <eta> <members>
		if len(fields) < 3 {
			break
		}
		var v float64
		if _, err := fmt.Sscanf(fields[2], "%gs", &v); err != nil {
			t.Fatalf("bad consumed field %q in %q", fields[2], line)
		}
		return v
	}
	t.Fatalf("no o1/p budget row in top output:\n%s", out)
	return 0
}

// TestTopFlagsDeadClauses: `top` reads the dead-clause census off the
// fleet's per-clause cost rows.
func TestTopFlagsDeadClauses(t *testing.T) {
	rows := func(rootEvals int64) *cost.Report {
		return &cost.Report{Clauses: []cost.ClauseCost{
			{Perm: "p-read", Path: "", Clause: "count(0, 2, sigma[op=read]) or [read f @ s1]",
				Evals: rootEvals, Satisfied: rootEvals, Decisive: rootEvals},
			{Perm: "p-read", Path: "l", Clause: "count(0, 2, sigma[op=read])", Evals: rootEvals, Satisfied: rootEvals},
		}}
	}
	v := federate.NewPoller(nil, federate.Config{}).Merge([]federate.MemberState{
		{Member: federate.Member{Name: "m1"}, Reachable: true,
			Snapshot: server.Snapshot{Version: server.SnapshotVersion, Decisions: 3, Grants: 3, Cost: rows(3)}},
		{Member: federate.Member{Name: "m2"}, Reachable: true,
			Snapshot: server.Snapshot{Version: server.SnapshotVersion, Decisions: 2, Grants: 2, Cost: rows(2)}},
	})
	var buf bytes.Buffer
	renderTop(&buf, v)
	out := buf.String()
	for _, want := range []string{
		"coverage: 2 clause(s) tracked, 1 dead",
		"dead p-read l: count(0, 2, sigma[op=read]) (evaluated 5, never decisive)",
		"dead-clause",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("top output missing %q:\n%s", want, out)
		}
	}
}
