package federate

// Fleet-wide clause-cost rollup: merges each member's per-clause
// evaluation-cost profile (snapshot v5's cost section) into one
// coalition heat map, and flags the "clause cost share" anomaly — a
// single clause consuming most of the fleet's sampled evaluation
// time. That clause is, by construction, the first target for the
// SRAC compilation arc; `stacctl heat` renders this rollup.

import (
	"fmt"
	"sort"
)

// CostRollup is one SRAC clause's evaluation cost merged across the
// fleet.
type CostRollup struct {
	Perm   string `json:"perm"`
	Path   string `json:"path"`
	Clause string `json:"clause"`
	// Evals/Decisive/Atoms sum the members' tallies (see
	// cost.ClauseCost).
	Evals    int64 `json:"evals"`
	Decisive int64 `json:"decisive"`
	Atoms    int64 `json:"atoms"`
	// SampledNS sums the 1-in-64 sampled wall time across members;
	// MeanNS is SampledNS/SampledEvals.
	SampledEvals int64   `json:"sampled_evals"`
	SampledNS    int64   `json:"sampled_ns"`
	MeanNS       float64 `json:"mean_ns"`
	// Share is this clause's fraction of the fleet's total sampled
	// root-evaluation time — roots partition the evaluation work, so
	// shares of root clauses sum to 1 and an interior clause's share
	// is the slice of the total its subtree accounts for.
	Share float64 `json:"share"`
	// Members counts members reporting this clause.
	Members int `json:"members"`
}

// mergeCost folds each reachable member's cost profile into the fleet
// rollup and flags a clause whose share of the fleet's sampled
// evaluation time exceeds the configured threshold. Anomalies need
// decisions on the books: an idle fleet has no cost distribution to
// be skewed.
func (p *Poller) mergeCost(v *FleetView) {
	cells := make(map[string]*CostRollup)
	var totalRootNS int64
	for _, st := range v.Members {
		if !st.Reachable || st.Skipped || st.Snapshot.Cost == nil {
			continue
		}
		for _, cc := range st.Snapshot.Cost.Clauses {
			key := cc.Perm + "\x00" + cc.Path
			r, ok := cells[key]
			if !ok {
				r = &CostRollup{Perm: cc.Perm, Path: cc.Path, Clause: cc.Clause}
				cells[key] = r
			}
			r.Evals += cc.Evals
			r.Decisive += cc.Decisive
			r.Atoms += cc.Atoms
			r.SampledEvals += cc.SampledEvals
			r.SampledNS += cc.SampledNS
			r.Members++
			if cc.Path == "" {
				totalRootNS += cc.SampledNS
			}
		}
	}
	if len(cells) == 0 {
		return
	}
	for _, r := range cells {
		if r.SampledEvals > 0 {
			r.MeanNS = float64(r.SampledNS) / float64(r.SampledEvals)
		}
		if totalRootNS > 0 {
			r.Share = float64(r.SampledNS) / float64(totalRootNS)
		}
		v.Cost = append(v.Cost, *r)
	}
	sort.Slice(v.Cost, func(i, j int) bool {
		a, b := v.Cost[i], v.Cost[j]
		if a.Perm != b.Perm {
			return a.Perm < b.Perm
		}
		return a.Path < b.Path
	})
	if totalRootNS == 0 || v.Global.Decisions == 0 {
		return
	}
	// Flag the hottest root clause once it dominates: root shares
	// partition the fleet's evaluation time, so exactly the clause a
	// compilation pass should take first can exceed the threshold.
	var hot *CostRollup
	for i := range v.Cost {
		r := &v.Cost[i]
		if r.Path != "" {
			continue
		}
		if hot == nil || r.SampledNS > hot.SampledNS {
			hot = r
		}
	}
	if hot != nil && hot.Share > p.cfg.CostShareThreshold && hot.SampledEvals > 0 {
		v.Anomalies = append(v.Anomalies, Anomaly{
			Kind:    "clause-cost-share",
			Subject: hot.Perm + "/" + hot.Path,
			Detail: fmt.Sprintf("clause %q consumes %.0f%% of fleet evaluation time (%.3g ns/eval over %d member(s))",
				hot.Clause, hot.Share*100, hot.MeanNS, hot.Members),
		})
	}
}
