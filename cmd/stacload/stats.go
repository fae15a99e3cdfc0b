package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/federate"
	"stac/internal/obs/perf"
)

// The LOAD.json summary schema: one RunResult per matrix cell trial,
// diffable by cmd/benchdiff exactly like the ns/op bench summaries —
// throughput regressions gate CI the same way.

// LoadSchemaVersion is the schema version of a load summary document.
//
//	1: runs array only
//	2: host fingerprint header + optional per-cell perf section
//	   (lock contention, SLO burn, exemplars; the optional
//	   per-kind profile digest map it also carried is gone)
//	3: per-cell clause-cost section (mean root evaluation ns, re-walk
//	   amplification, hottest clauses) inside perf
//	4: CellPerf loses the stripe fields (hot_stripe, hot_contention,
//	   hot_wait_p99_s, acquire_imbalance) with the lock-stripe
//	   telemetry
//	5: CellCost loses evals_per_append and entries_per_scan with the
//	   re-walk amplification gauges
const LoadSchemaVersion = 5

// Summary is the document stacload emits.
type Summary struct {
	Schema int `json:"schema"`
	// Host fingerprints the machine the run was captured on, so
	// benchdiff can flag cross-machine comparisons.
	Host perf.HostInfo `json:"host"`
	// Note describes the run (host, flags) for humans reading the
	// artifact; benchdiff ignores it.
	Note string      `json:"note,omitempty"`
	Runs []RunResult `json:"runs"`
}

// RunResult aggregates one (scenario, system, trial) cell.
type RunResult struct {
	Scenario string `json:"scenario"`
	System   string `json:"system"`
	Trial    int    `json:"trial"`

	// Ops counts measured decision round trips (grants + denies).
	Ops         int     `json:"ops"`
	Grants      int     `json:"grants"`
	Denies      int     `json:"denies"`
	Rejects     int     `json:"rejects"`
	Transport   int     `json:"transport_errors"`
	Replays     int     `json:"replays,omitempty"`
	Itineraries int     `json:"itineraries"`
	DurationS   float64 `json:"duration_s"`

	// ThroughputOpsS is decisions per second over the trial box.
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	P50US          float64 `json:"p50_us"`
	P95US          float64 `json:"p95_us"`
	P99US          float64 `json:"p99_us"`
	MaxUS          float64 `json:"max_us"`

	// Peak process telemetry sampled from /debug/snapshot during the
	// trial (STAC) or in-process (baselines).
	MaxGoroutines int    `json:"max_goroutines,omitempty"`
	MaxHeapBytes  uint64 `json:"max_heap_bytes,omitempty"`

	// Perf is the hot-path attribution for systems that expose it
	// (STAC only): shard balance, SLO burn, the slowest replayable
	// decision exemplars and the clause-cost summary.
	Perf *CellPerf `json:"perf,omitempty"`
}

// CellPerf is one cell's performance attribution: the same rollup the
// fleet poller computes per member, plus the scenario's SLO target.
type CellPerf struct {
	federate.MemberPerfRollup
	SLOTargetMS float64 `json:"slo_target_ms,omitempty"`
	// SlowExemplars are the slowest retained decision exemplars of the
	// cell, each resolvable through the daemon's /debug/explain while
	// it lives (the IDs outlive the run in the summary for diffing).
	SlowExemplars []obs.Exemplar `json:"slow_exemplars,omitempty"`
	// Cost summarises the cell's per-clause evaluation-cost profile
	// (schema 3); benchdiff gates MeanRootNS like ns/op.
	Cost *CellCost `json:"cost,omitempty"`
}

// CellCost reduces the engine's cost profile to the numbers worth
// diffing per cell: how expensive one root policy evaluation is and the
// clauses the time actually went to.
type CellCost struct {
	// MeanRootNS is sampled root-clause wall time per sampled root
	// evaluation — the per-decision policy-evaluation price.
	MeanRootNS float64 `json:"mean_root_ns"`
	// TopClauses are the hottest clauses by sampled time (at most 5).
	TopClauses []cost.ClauseCost `json:"clauses,omitempty"`
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// nearest-rank; 0 on empty input.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// aggregate folds the workers of one trial into a RunResult.
func aggregate(scenario, sys string, trial int, elapsedS float64, workers []workerStats, peakG int, peakHeap uint64) RunResult {
	r := RunResult{
		Scenario: scenario, System: sys, Trial: trial,
		DurationS:     elapsedS,
		MaxGoroutines: peakG, MaxHeapBytes: peakHeap,
	}
	var lat []float64
	for i := range workers {
		w := &workers[i]
		r.Grants += w.grants
		r.Denies += w.denies
		r.Rejects += w.rejects + w.hostileRejects
		r.Transport += w.transport
		r.Replays += w.replays
		r.Itineraries += w.itineraries
		lat = append(lat, w.latUS...)
	}
	r.Ops = r.Grants + r.Denies
	if elapsedS > 0 {
		r.ThroughputOpsS = float64(r.Ops) / elapsedS
	}
	sort.Float64s(lat)
	r.P50US = percentile(lat, 50)
	r.P95US = percentile(lat, 95)
	r.P99US = percentile(lat, 99)
	if n := len(lat); n > 0 {
		r.MaxUS = lat[n-1]
	}
	return r
}

// renderTable prints the per-cell comparison table.
func renderTable(w io.Writer, runs []RunResult) {
	fmt.Fprintf(w, "%-14s %-8s %5s %9s %12s %9s %9s %9s %7s %7s %7s %6s\n",
		"scenario", "system", "trial", "ops", "ops/s", "p50us", "p95us", "p99us",
		"grant", "deny", "reject", "terr")
	for _, r := range runs {
		fmt.Fprintf(w, "%-14s %-8s %5d %9d %12.1f %9.1f %9.1f %9.1f %7d %7d %7d %6d\n",
			r.Scenario, r.System, r.Trial, r.Ops, r.ThroughputOpsS,
			r.P50US, r.P95US, r.P99US, r.Grants, r.Denies, r.Rejects, r.Transport)
	}
}
