package federate

import (
	"encoding/json"
	"testing"

	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/obs/perf"
	"stac/internal/server"
)

func perfSnapshot(slo perf.SLOSnapshot, exemplars []obs.Exemplar) server.Snapshot {
	return server.Snapshot{
		PolicyDigest: "d",
		Perf: core.PerfStats{
			SLO:             slo,
			Exemplars:       exemplars,
			ObjectImbalance: 1.5,
		},
	}
}

// v8MemberSnapshot is member a of the perf rollup as a snapshot v8
// daemon serves it: its perf section still carries the lock stripes
// and the acquire imbalance, which a current poller ignores.
const v8MemberSnapshot = `{
  "version": 8, "policy_digest": "d",
  "perf": {
    "stripes": [
      {"stripe": "policy", "acquire": 100, "contended": 0, "r_acquire": 900, "r_contended": 10,
       "wait_count": 16, "wait_p50_s": 5e-8, "wait_p99_s": 1e-5, "hold_p99_s": 0},
      {"stripe": "shard_07", "acquire": 50, "contended": 40,
       "wait_count": 1, "wait_p50_s": 1e-3, "wait_p99_s": 2e-3, "hold_p99_s": 0}
    ],
    "shard_objects": [3, 0], "object_imbalance": 1.5, "acquire_imbalance": 2,
    "slo": {"target_ms": 5, "objective": 0.99, "total": 100, "over": 1,
      "over_fraction": 0.01, "burn_rate": 1},
    "exemplars": [
      {"value_s": 0.004, "bucket": 3, "le": 0.005, "decision_id": "d-fast"},
      {"value_s": 0.052, "bucket": 9, "le": 0.1, "decision_id": "d-slow", "trace_id": "t-slow"}
    ]
  }
}`

func TestMergePerfRollup(t *testing.T) {
	current := reachable("a", perfSnapshot(
		perf.SLOSnapshot{TargetMs: 5, Objective: 0.99, Total: 100, Over: 1, OverFraction: 0.01, BurnRate: 1},
		[]obs.Exemplar{
			{Value: 0.004, DecisionID: "d-fast"},
			{Value: 0.052, DecisionID: "d-slow", TraceID: "t-slow"},
		},
	))
	var v8 server.Snapshot
	if err := json.Unmarshal([]byte(v8MemberSnapshot), &v8); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		member MemberState
	}{
		{"current", current},
		{"v8-member", reachable("a", v8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewPoller(nil, Config{}).Merge([]MemberState{
				tc.member,
				{Member: Member{Name: "b"}, Err: "down"},
			})
			if len(v.Perf) != 1 {
				t.Fatalf("perf rows = %+v", v.Perf)
			}
			r := v.Perf[0]
			if r.Member != "a" {
				t.Fatalf("member: %+v", r)
			}
			if r.SlowestDecisionID != "d-slow" || r.SlowestTraceID != "t-slow" || r.Exemplars != 2 {
				t.Fatalf("slowest exemplar: %+v", r)
			}
			if r.SLOBurnRate != 1 || r.ObjectImbalance != 1.5 {
				t.Fatalf("slo/imbalance: %+v", r)
			}
			// Burn rate exactly 1: no anomaly (burn must EXCEED the
			// threshold).
			for _, a := range v.Anomalies {
				if a.Kind == "slo-burn" {
					t.Fatalf("burn rate 1.0 must not exceed threshold 1.0: %+v", v.Anomalies)
				}
			}
		})
	}
}

func TestMergePerfSLOBurnAnomaly(t *testing.T) {
	p := NewPoller(nil, Config{})
	v := p.Merge([]MemberState{
		reachable("hot", perfSnapshot(
			perf.SLOSnapshot{TargetMs: 5, Objective: 0.99, Total: 100, Over: 30, OverFraction: 0.3, BurnRate: 30},
			nil,
		)),
	})
	found := false
	for _, a := range v.Anomalies {
		if a.Kind == "slo-burn" && a.Member == "hot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("burn rate 30 did not flag: %+v", v.Anomalies)
	}
	if len(v.Perf) != 1 || v.Perf[0].SLOBurnRate != 30 {
		t.Fatalf("perf row: %+v", v.Perf)
	}
}
