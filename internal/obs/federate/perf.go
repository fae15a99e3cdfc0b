package federate

import (
	"fmt"
	"sort"

	"stac/internal/core"
)

// Fleet-level performance attribution: each member's snapshot carries
// its engine's shard imbalance, SLO burn rate and decision exemplars;
// the poller reduces those to one row per member — how evenly objects
// hash, how fast the latency budget is burning, and the single slowest
// replayable decision — so `stacctl top` can name the fleet bottleneck
// instead of a percentile. Lock contention is each member's runtime
// mutex profile (/debug/pprof/mutex).

// MemberPerfRollup is one member's hot-path health, reduced.
type MemberPerfRollup struct {
	Member string `json:"member"`
	// ObjectImbalance is the member's max/mean object population
	// across engine shards (1 = even).
	ObjectImbalance float64 `json:"object_imbalance"`
	// SLOBurnRate / SLOOverFraction mirror the member's SLO tracker
	// (zero when the member has no SLO attached).
	SLOBurnRate     float64 `json:"slo_burn_rate"`
	SLOOverFraction float64 `json:"slo_over_fraction"`
	// SlowestSeconds / SlowestDecisionID identify the member's slowest
	// retained decision exemplar — the request to replay first.
	SlowestSeconds    float64 `json:"slowest_s"`
	SlowestDecisionID string  `json:"slowest_decision_id,omitempty"`
	SlowestTraceID    string  `json:"slowest_trace_id,omitempty"`
	Exemplars         int     `json:"exemplars"`
}

// PerfRollup reduces one engine's perf section to its hot-path
// summary. Exported because cmd/stacload performs the same reduction
// per matrix cell.
func PerfRollup(member string, p core.PerfStats) MemberPerfRollup {
	r := MemberPerfRollup{
		Member:          member,
		ObjectImbalance: p.ObjectImbalance,
		SLOBurnRate:     p.SLO.BurnRate,
		SLOOverFraction: p.SLO.OverFraction,
		Exemplars:       len(p.Exemplars),
	}
	for _, e := range p.Exemplars {
		if e.Value > r.SlowestSeconds {
			r.SlowestSeconds = e.Value
			r.SlowestDecisionID = e.DecisionID
			r.SlowestTraceID = e.TraceID
		}
	}
	return r
}

// mergePerf appends per-member perf rollups to the view and flags
// burn-rate anomalies.
func (p *Poller) mergePerf(v *FleetView) {
	for _, st := range v.Members {
		if !st.Reachable || st.Skipped {
			continue
		}
		r := PerfRollup(st.Name, st.Snapshot.Perf)
		v.Perf = append(v.Perf, r)
		if r.SLOBurnRate > p.cfg.SLOBurnThreshold {
			v.Anomalies = append(v.Anomalies, Anomaly{
				Kind: "slo-burn", Member: st.Name,
				Subject: fmt.Sprintf("%.4gms target", st.Snapshot.Perf.SLO.TargetMs),
				Detail: fmt.Sprintf("burn rate %.3g (%.3g%% of decisions over target, budget %.3g%%)",
					r.SLOBurnRate, 100*r.SLOOverFraction, 100*(1-st.Snapshot.Perf.SLO.Objective)),
			})
		}
	}
	sort.Slice(v.Perf, func(i, j int) bool { return v.Perf[i].Member < v.Perf[j].Member })
}
