package core

import (
	"stac/internal/obs"
	"stac/internal/obs/perf"
)

// This file is the engine's side of the perf subsystem: it snapshots
// shard population, SLO health and decision exemplars, and publishes
// the derived gauges so a /metrics scrape carries them. Lock contention
// is the runtime's mutex and block profiles' (/debug/pprof).

// PerfStats is a point-in-time view of the engine's hot-path health.
type PerfStats struct {
	// ShardObjects is the object population per shard; ObjectImbalance
	// is max/mean over it (1.0 = perfectly even hash).
	ShardObjects    []int64 `json:"shard_objects"`
	ObjectImbalance float64 `json:"object_imbalance"`
	// SLO is the attached latency objective's health; zero when no SLO
	// is set.
	SLO perf.SLOSnapshot `json:"slo"`
	// Exemplars are the retained decision-latency exemplars.
	Exemplars []obs.Exemplar `json:"exemplars,omitempty"`
}

// PerfStats snapshots shard balance, SLO health and decision
// exemplars.
func (e *Engine) PerfStats() PerfStats {
	st := PerfStats{
		ShardObjects: make([]int64, numShards),
		SLO:          e.SLOSnapshot(),
		Exemplars:    e.DecisionExemplars(),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		st.ShardObjects[i] = int64(len(sh.objs))
		sh.mu.RUnlock()
	}
	st.ObjectImbalance = imbalanceRatio(st.ShardObjects)
	return st
}

// imbalanceRatio returns max/mean over per-shard counts — 1.0 means a
// perfectly balanced hash, numShards means every hit lands on one
// shard. Returns 0 when the counts are empty or all zero.
func imbalanceRatio(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, max int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(counts)) / float64(sum)
}

// PublishPerf refreshes the derived perf gauges in the engine's
// registry — callers (the daemon's /metrics handler) invoke it per
// scrape, mirroring obs.PublishRuntime.
func (e *Engine) PublishPerf() {
	st := e.PerfStats()
	r := e.met.Load().reg
	r.FloatGauge("stac_shard_object_imbalance_ratio", "",
		"Max/mean object population across engine shards (1 = even).").Set(st.ObjectImbalance)
	if st.SLO.TargetMs > 0 {
		r.FloatGauge("stac_slo_burn_rate", "",
			"Latency SLO error-budget burn rate (1 = consuming exactly the budget).").Set(st.SLO.BurnRate)
		r.FloatGauge("stac_slo_over_fraction", "",
			"Fraction of decisions over the SLO latency target.").Set(st.SLO.OverFraction)
	}
}
