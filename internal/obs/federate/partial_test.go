package federate

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"stac/internal/obs/cost"
	"stac/internal/server"
)

// Partial-failure behaviour of the fleet poller: empty member sets,
// fully-unreachable fleets, and members running a NEWER snapshot
// schema (a deploy in flight) must all degrade to well-formed views,
// never errors.

func TestPollZeroMembers(t *testing.T) {
	p := NewPoller(nil, Config{})
	v := p.Poll(context.Background())
	if len(v.Members) != 0 || v.Global.Members != 0 || v.Global.Unreachable != 0 {
		t.Fatalf("empty fleet view = %+v", v.Global)
	}
	if len(v.Anomalies) != 0 {
		t.Fatalf("empty fleet produced anomalies: %+v", v.Anomalies)
	}
}

func TestPollAllMembersUnreachable(t *testing.T) {
	members := []Member{
		{Name: "a", BaseURL: "http://127.0.0.1:1"}, // reserved port: refused
		{Name: "b", BaseURL: "http://127.0.0.1:1"},
	}
	p := NewPoller(members, Config{})
	v := p.Poll(context.Background())
	if v.Global.Members != 0 || v.Global.Unreachable != 2 {
		t.Fatalf("global = %+v, want 0 members / 2 unreachable", v.Global)
	}
	if len(v.Anomalies) != 2 {
		t.Fatalf("anomalies = %+v, want one unreachable per member", v.Anomalies)
	}
	for _, a := range v.Anomalies {
		if a.Kind != "unreachable" || a.Detail == "" {
			t.Errorf("anomaly = %+v", a)
		}
	}
	if v.Global.Decisions != 0 || len(v.Budgets) != 0 || len(v.Cost) != 0 {
		t.Errorf("all-unreachable rollup carries data: %+v", v)
	}
}

func TestPollSkipsNewerSnapshotVersion(t *testing.T) {
	// A member from the future: snapshot version SnapshotVersion+1.
	future := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"version":%d,"grants":999,"decisions":999}`, server.SnapshotVersion+1)
	}))
	defer future.Close()
	// A contemporary member.
	now := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.Snapshot{
			Version: server.SnapshotVersion, PolicyDigest: "d1",
			Grants: 4, Denies: 1, Decisions: 5,
		})
	}))
	defer now.Close()

	p := NewPoller([]Member{
		{Name: "future", BaseURL: future.URL},
		{Name: "now", BaseURL: now.URL},
	}, Config{})
	v := p.Poll(context.Background())

	if v.Global.Members != 1 || v.Global.Skipped != 1 || v.Global.Unreachable != 0 {
		t.Fatalf("global = %+v, want 1 member / 1 skipped / 0 unreachable", v.Global)
	}
	// The future member's counters must NOT pollute the rollup.
	if v.Global.Grants != 4 || v.Global.Decisions != 5 {
		t.Fatalf("global counters = %+v, polluted by skipped member", v.Global)
	}
	var skew *Anomaly
	for i := range v.Anomalies {
		if v.Anomalies[i].Kind == "version-skew" {
			skew = &v.Anomalies[i]
		}
		if v.Anomalies[i].Kind == "unreachable" {
			t.Errorf("version skew reported as unreachable: %+v", v.Anomalies[i])
		}
	}
	if skew == nil || skew.Member != "future" {
		t.Fatalf("anomalies = %+v, want a version-skew entry for future", v.Anomalies)
	}
	for _, m := range v.Members {
		if m.Name == "future" && (!m.Skipped || m.Reachable) {
			t.Errorf("future member state = %+v, want skipped, not reachable", m)
		}
	}
}

// v5MemberSnapshot is member b of the coverage rollup as a snapshot
// v5 daemon serves it: cost rows without the satisfied/violated/pending
// tallies (v5 kept them out of the cost JSON) and, here, no coverage
// key, so the dead-clause census can only come from the cost rows.
const v5MemberSnapshot = `{
  "version": 5, "policy_digest": "d", "grants": 1, "decisions": 1, "shadow_flips": 1,
  "cost": {
    "clauses": [
      {"perm": "p-read", "path": "", "clause": "count(0, 2, sigma[r=rsw])",
       "evals": 1, "decisive": 1, "atoms": 1, "sampled_evals": 0, "sampled_ns": 0, "mean_ns": 0},
      {"perm": "p-read", "path": "l", "clause": "dead-subclause",
       "evals": 0, "decisive": 0, "atoms": 0, "sampled_evals": 0, "sampled_ns": 0, "mean_ns": 0}
    ],
    "amplification": {"prefix_evals": 1, "scan_evals": 1, "scan_entries": 1, "appends": 1,
      "evals_per_append": 1, "entries_per_scan": 1}
  }
}`

func TestMergeCoverageAndShadowRollup(t *testing.T) {
	cc := func(perm, path, clause string, evals, decisive int64) cost.ClauseCost {
		return cost.ClauseCost{Perm: perm, Path: path, Clause: clause,
			Evals: evals, Satisfied: evals, Decisive: decisive}
	}
	memberA := reachable("a", server.Snapshot{
		PolicyDigest: "d", Grants: 3, Decisions: 3, ShadowFlips: 2,
		Cost: &cost.Report{Clauses: []cost.ClauseCost{
			cc("p-read", "", "count(0, 2, sigma[r=rsw])", 3, 3),
			cc("p-read", "l", "dead-subclause", 0, 0),
		}},
	})
	memberB := reachable("b", server.Snapshot{
		PolicyDigest: "d", Grants: 1, Decisions: 1, ShadowFlips: 1,
		Cost: &cost.Report{Clauses: []cost.ClauseCost{
			cc("p-read", "", "count(0, 2, sigma[r=rsw])", 1, 1),
			cc("p-read", "l", "dead-subclause", 0, 0),
		}},
	})
	var v5 server.Snapshot
	if err := json.Unmarshal([]byte(v5MemberSnapshot), &v5); err != nil {
		t.Fatal(err)
	}
	memberBv5 := MemberState{Member: Member{Name: "b"}, Reachable: true, Snapshot: v5}

	for _, tc := range []struct {
		name    string
		members []MemberState
	}{
		{"current", []MemberState{memberA, memberB}},
		{"v5-member", []MemberState{memberA, memberBv5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewPoller(nil, Config{}).Merge(tc.members)
			if v.Global.ShadowFlips != 3 {
				t.Errorf("ShadowFlips = %d, want 3", v.Global.ShadowFlips)
			}
			if len(v.Cost) != 2 {
				t.Fatalf("clause rollup = %+v", v.Cost)
			}
			root := v.Cost[0]
			if root.Path != "" || root.Evals != 4 || root.Decisive != 4 || root.Members != 2 || root.Dead() {
				t.Errorf("root rollup = %+v", root)
			}
			dead := v.Cost[1]
			if dead.Path != "l" || !dead.Dead() {
				t.Errorf("dead rollup = %+v", dead)
			}
			var found bool
			for _, a := range v.Anomalies {
				if a.Kind == "dead-clause" {
					found = true
					if a.Subject != "p-read/l" {
						t.Errorf("dead-clause subject = %q", a.Subject)
					}
				}
			}
			if !found {
				t.Errorf("no dead-clause anomaly in %+v", v.Anomalies)
			}
		})
	}

	// An idle fleet (zero decisions) must not cry dead-clause.
	idle := NewPoller(nil, Config{}).Merge([]MemberState{
		reachable("a", server.Snapshot{PolicyDigest: "d",
			Cost: &cost.Report{Clauses: []cost.ClauseCost{cc("p-read", "", "c", 0, 0)}}}),
	})
	for _, a := range idle.Anomalies {
		if a.Kind == "dead-clause" {
			t.Errorf("idle fleet flagged dead clause: %+v", a)
		}
	}
}
