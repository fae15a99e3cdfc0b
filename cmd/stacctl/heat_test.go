package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/obs/cost"
	"stac/internal/obs/federate"
	"stac/internal/server"
)

// TestHeatRanksFleetClauses is the heat acceptance scenario: a roaming
// object drives spatially-constrained decisions across a 3-daemon
// coalition with cost profiling on, then (a) each member's snapshot
// serves a populated cost section, (b) the federate poller merges the
// snapshot v5 cost sections into fleet rollups, and (c) `stacctl heat`
// names the top-cost clauses fleet-wide.
func TestHeatRanksFleetClauses(t *testing.T) {
	const policy = `
user o1
role roamer
permission p-read read f @ * {
    spatial count(0, 64, sigma[op=read]) and ([read dep @ *] -> ([read dep @ *] >> [read f @ *]))
}
grant roamer p-read
assign o1 roamer
`
	key := []byte("heat-e2e-key")
	fleet := startFleet(t, 3, key, policy)
	members := make([]federate.Member, len(fleet))
	for i, m := range fleet {
		members[i] = m.member()
		// The production default: coverage and cost on, sharing one walk.
		m.c.Engine.EnableCostProfiling()
		m.c.Engine.EnableCostProfiling()
	}

	// One credential roams the fleet; every visit is a granted read
	// whose decision pays a prefix evaluation of the spatial clause.
	cred := fleet[0].c.Signer.IssueCredential("o1", "owner@coalition", []string{"roamer"})
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for _, m := range fleet {
			cl, err := server.Dial(m.addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Auth(cred); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Access(model.OpRead, "f", "", nil); err != nil {
				t.Fatalf("round %d visit %s: %v", round, m.name, err)
			}
			if err := cl.Depart(); err != nil {
				t.Fatal(err)
			}
			cl.Close()
		}
	}

	// --- Every member serves its cost profile in its snapshot. ---
	for _, m := range fleet {
		raw, err := httpGet(m.debugURL + "/debug/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		var snap server.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("%s /debug/snapshot: %v", m.name, err)
		}
		if snap.Cost == nil || len(snap.Cost.Clauses) == 0 {
			t.Fatalf("%s snapshot has no clause rows", m.name)
		}
		rep := snap.Cost
		var root *cost.ClauseCost
		for i := range rep.Clauses {
			if rep.Clauses[i].Path == "" {
				root = &rep.Clauses[i]
			}
		}
		if root == nil || root.Evals != rounds {
			t.Fatalf("%s root clause cell = %+v", m.name, root)
		}
		// The first eval is always sampled, so even a short run carries
		// wall time for the heat ranking.
		if root.SampledEvals == 0 || root.SampledNS <= 0 {
			t.Fatalf("%s root clause never sampled: %+v", m.name, root)
		}
	}

	// --- The federate poller merges the snapshot v5 cost sections. ---
	poller := federate.NewPoller(members, federate.Config{CostShareThreshold: 0.5})
	view := poller.Poll(context.Background())
	if view.Global.Members != 3 {
		t.Fatalf("fleet view = %+v", view.Global)
	}
	for _, st := range view.Members {
		if st.Snapshot.Cost == nil {
			t.Fatalf("member %s snapshot has no cost section", st.Name)
		}
	}
	var rootRollup *federate.CostRollup
	for i := range view.Cost {
		if view.Cost[i].Path == "" {
			rootRollup = &view.Cost[i]
		}
	}
	if rootRollup == nil {
		t.Fatalf("no root clause rollup: %+v", view.Cost)
	}
	if rootRollup.Members != 3 || rootRollup.Evals != 3*rounds {
		t.Fatalf("root rollup = %+v", rootRollup)
	}
	// One permission ⇒ its root owns all sampled root time.
	if rootRollup.Share < 0.99 {
		t.Fatalf("root clause share = %g, want ≈1", rootRollup.Share)
	}

	// --- `stacctl heat` names the top-cost clauses fleet-wide. ---
	var buf bytes.Buffer
	if err := runHeat(&buf, poller, 12, 0, 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fleet: 3/3 members up",
		"compile targets",
		"p-read",
		"count(0, 64, sigma[op=read])",
		"HOT: p-read/", // clause-cost-share anomaly at threshold 0.5
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("heat output missing %q:\n%s", want, out)
		}
	}
	// Rank 1 is a fully-decisive p-read clause: cost × decisiveness
	// ranks the clause that keeps deciding the verdict first, not
	// necessarily the root.
	rank1 := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "1 ") {
			rank1 = line
			break
		}
	}
	fields := strings.Fields(rank1)
	if len(fields) < 8 || fields[1] != "p-read" || fields[5] != fields[6] {
		t.Fatalf("rank-1 row = %q, want a fully-decisive p-read clause", rank1)
	}
}
