package federate

import (
	"context"
	"net/http/httptest"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/temporal"
)

func reachable(name string, snap server.Snapshot) MemberState {
	snap.Version = server.SnapshotVersion
	return MemberState{Member: Member{Name: name}, Reachable: true, Snapshot: snap}
}

func TestMergeGlobalRollupAndUnreachable(t *testing.T) {
	p := NewPoller(nil, Config{})
	v := p.Merge([]MemberState{
		reachable("a", server.Snapshot{
			PolicyDigest: "d1", Grants: 5, Denies: 1, Decisions: 6, Migrations: 2,
			Servers:  []server.ServerSnapshot{{ID: "s1", Grants: 5, Denies: 1}},
			Recorder: &record.Status{WALConfigured: true, WALDegraded: true, Errors: 1},
		}),
		reachable("b", server.Snapshot{
			PolicyDigest: "d1", Grants: 3, Denies: 0, Decisions: 3,
			Servers: []server.ServerSnapshot{{ID: "s2", Grants: 3}},
		}),
		{Member: Member{Name: "c"}, Err: "connection refused"},
	})
	if v.Global.Members != 2 || v.Global.Unreachable != 1 {
		t.Fatalf("global = %+v", v.Global)
	}
	if v.Global.Grants != 8 || v.Global.Denies != 1 || v.Global.Decisions != 9 || v.Global.Migrations != 2 ||
		v.Global.WALErrors != 1 {
		t.Fatalf("global = %+v", v.Global)
	}
	if len(v.PerServer) != 2 || v.PerServer[0].Member != "a" || v.PerServer[1].Server != "s2" {
		t.Fatalf("per-server = %+v", v.PerServer)
	}
	if len(v.Anomalies) != 1 || v.Anomalies[0].Kind != "unreachable" || v.Anomalies[0].Member != "c" {
		t.Fatalf("anomalies = %+v", v.Anomalies)
	}
}

func TestMergeBudgetSchemes(t *testing.T) {
	p := NewPoller(nil, Config{ExhaustionHorizon: 1}) // effectively off
	mk := func(scheme string, consumed, rate float64) core.BudgetStatus {
		return core.BudgetStatus{
			Object: "o1", Perm: "p", Scheme: scheme, Budget: 100,
			Consumed: consumed, Remaining: 100 - consumed, BurnRate: rate, ETA: -1,
		}
	}
	// Global scheme: consumption is one coalition-wide total — sum.
	v := p.Merge([]MemberState{
		reachable("a", server.Snapshot{PolicyDigest: "d", Budgets: []core.BudgetStatus{mk("global", 30, 1)}}),
		reachable("b", server.Snapshot{PolicyDigest: "d", Budgets: []core.BudgetStatus{mk("global", 20, 0.5)}}),
	})
	if len(v.Budgets) != 1 {
		t.Fatalf("budgets = %+v", v.Budgets)
	}
	b := v.Budgets[0]
	if b.Consumed != 50 || b.Remaining != 50 || b.BurnRate != 1.5 || b.Members != 2 {
		t.Fatalf("global rollup = %+v", b)
	}
	if eta := 50 / 1.5; b.ETA != eta {
		t.Fatalf("eta = %g, want %g", b.ETA, eta)
	}

	// Per-server scheme: budgets restart per server — keep the hottest.
	p2 := NewPoller(nil, Config{ExhaustionHorizon: 1})
	v = p2.Merge([]MemberState{
		reachable("a", server.Snapshot{PolicyDigest: "d", Budgets: []core.BudgetStatus{mk("per-server", 30, 1)}}),
		reachable("b", server.Snapshot{PolicyDigest: "d", Budgets: []core.BudgetStatus{mk("per-server", 20, 2)}}),
	})
	b = v.Budgets[0]
	if b.Consumed != 30 || b.BurnRate != 2 || b.Members != 2 {
		t.Fatalf("per-server rollup = %+v", b)
	}
}

func TestMergeAnomalies(t *testing.T) {
	p := NewPoller(nil, Config{ExhaustionHorizon: 60, DenySpikeRatio: 0.5, DenySpikeMin: 4})

	// Round 1 establishes history; divergent digests flag immediately.
	v := p.Merge([]MemberState{
		reachable("a", server.Snapshot{PolicyDigest: "digest-one-aaaa", Decisions: 10, Denies: 1}),
		reachable("b", server.Snapshot{PolicyDigest: "digest-two-bbbb", Decisions: 10, Denies: 1}),
	})
	if len(v.Anomalies) != 1 || v.Anomalies[0].Kind != "policy-divergence" {
		t.Fatalf("round 1 anomalies = %+v", v.Anomalies)
	}

	// Round 2: member b denies 5 of 6 new decisions → deny-spike; a
	// budget with a 30 s ETA → budget-exhaustion.
	v = p.Merge([]MemberState{
		reachable("a", server.Snapshot{PolicyDigest: "digest-one-aaaa", Decisions: 12, Denies: 1, Budgets: []core.BudgetStatus{{
			Object: "o9", Perm: "px", Scheme: "global", Budget: 100,
			Consumed: 70, Remaining: 30, BurnRate: 1, ETA: 30,
		}}}),
		reachable("b", server.Snapshot{PolicyDigest: "digest-one-aaaa", Decisions: 16, Denies: 6}),
	})
	kinds := map[string]Anomaly{}
	for _, a := range v.Anomalies {
		kinds[a.Kind] = a
	}
	if a, ok := kinds["deny-spike"]; !ok || a.Member != "b" {
		t.Fatalf("deny-spike missing: %+v", v.Anomalies)
	}
	if a, ok := kinds["budget-exhaustion"]; !ok || a.Subject != "o9/px" {
		t.Fatalf("budget-exhaustion missing: %+v", v.Anomalies)
	}
	if _, ok := kinds["policy-divergence"]; ok {
		t.Fatalf("digests agree but divergence flagged: %+v", v.Anomalies)
	}
}

// TestPollScrapesLiveDaemons runs two real coalitions behind real
// DebugServers and checks the poller merges them over HTTP.
func TestPollScrapesLiveDaemons(t *testing.T) {
	const policy = `
user o1
role r
permission p read * @ * {
    duration 100s
    scheme global
}
grant r p
assign o1 r
`
	key := []byte("fleet-key")
	mkMember := func(name string) (Member, *server.Coalition, *temporal.SimClock) {
		clk := temporal.NewSimClock(0)
		c := server.NewCoalition(clk, key)
		if err := core.LoadPolicyString(c.Engine, policy); err != nil {
			t.Fatal(err)
		}
		srv, err := c.AddServer(model.ServerID(name + "-srv"))
		if err != nil {
			t.Fatal(err)
		}
		srv.HostResource("f", []byte("x"))
		c.Engine.SetObs(obs.NewRegistry())
		h := server.NewDebugServer(c, nil, nil, server.DebugConfig{Registry: c.Engine.Obs()})
		ts := httptest.NewServer(h.Mux())
		t.Cleanup(func() { h.Drain(); ts.Close() })
		return Member{Name: name, BaseURL: ts.URL}, c, clk
	}

	ma, ca, clka := mkMember("a")
	mb, cb, _ := mkMember("b")

	// Burn budget on member a only.
	srv := ca.Servers()[0]
	sub, err := srv.Authenticate(ca.Signer.IssueCredential("o1", "owner", []string{"r"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Request(sub, model.OpRead, "f", server.RequestContext{Store: proof.NewStore(ca.Signer)}); err != nil {
		t.Fatal(err)
	}

	p := NewPoller([]Member{ma, mb, {Name: "ghost", BaseURL: "http://127.0.0.1:1"}}, Config{})
	v := p.Poll(context.Background())
	ca.Engine.SampleBudgets(0) // seed a's series for a second point
	clka.Advance(25)
	v = p.Poll(context.Background())

	if v.Global.Members != 2 || v.Global.Unreachable != 1 {
		t.Fatalf("global = %+v", v.Global)
	}
	if v.Global.Grants != 1 {
		t.Fatalf("grants = %d", v.Global.Grants)
	}
	if len(v.Budgets) != 1 {
		t.Fatalf("budgets = %+v", v.Budgets)
	}
	b := v.Budgets[0]
	if b.Object != "o1" || b.Perm != "p" || b.Consumed != 25 || b.Budget != 100 {
		t.Fatalf("budget rollup = %+v", b)
	}
	hasUnreachable := false
	for _, a := range v.Anomalies {
		if a.Kind == "unreachable" && a.Member == "ghost" {
			hasUnreachable = true
		}
	}
	if !hasUnreachable {
		t.Fatalf("anomalies = %+v", v.Anomalies)
	}
	_ = cb
}
