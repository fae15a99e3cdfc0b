package core

import (
	"stac/internal/obs"
	"stac/internal/obs/perf"
)

// This file is the engine's side of the perf subsystem: it snapshots
// the instrumented lock stripes (policy and the 32 object shards, plus
// the cost collector's stripes when profiling is on) and shard
// population, derives imbalance ratios, and publishes the derived
// gauges so a /metrics scrape carries them alongside the per-stripe
// wait/hold histograms the stripes feed directly.

// PerfStats is a point-in-time view of the engine's hot-path health.
type PerfStats struct {
	// Stripes holds one snapshot per instrumented lock stripe: policy,
	// shard_00..shard_31, and (when profiling is on) the cost-collector
	// stripes.
	Stripes []perf.LockSnapshot `json:"stripes"`
	// ShardObjects is the object population per shard; ObjectImbalance
	// is max/mean over it (1.0 = perfectly even hash), and
	// AcquireImbalance the same ratio over shard-lock acquisitions.
	ShardObjects     []int64 `json:"shard_objects"`
	ObjectImbalance  float64 `json:"object_imbalance"`
	AcquireImbalance float64 `json:"acquire_imbalance"`
	// SLO is the attached latency objective's health; zero when no SLO
	// is set.
	SLO perf.SLOSnapshot `json:"slo"`
	// Exemplars are the retained decision-latency exemplars.
	Exemplars []obs.Exemplar `json:"exemplars,omitempty"`
}

// PerfStats snapshots the lock stripes, shard balance, SLO health and
// decision exemplars.
func (e *Engine) PerfStats() PerfStats {
	st := PerfStats{
		Stripes:      make([]perf.LockSnapshot, 0, numShards+1),
		ShardObjects: make([]int64, numShards),
		SLO:          e.SLOSnapshot(),
		Exemplars:    e.DecisionExemplars(),
	}
	st.Stripes = append(st.Stripes, e.policyMu.Stats().Snapshot())
	acquires := make([]int64, 0, numShards)
	for i := range e.shards {
		sh := &e.shards[i]
		snap := sh.mu.Stats().Snapshot()
		st.Stripes = append(st.Stripes, snap)
		acquires = append(acquires, snap.Acquire+snap.RAcquire)
		sh.mu.RLock()
		st.ShardObjects[i] = int64(len(sh.objs))
		sh.mu.RUnlock()
	}
	if col := e.costC.Load(); col != nil {
		for _, s := range col.LockStats() {
			st.Stripes = append(st.Stripes, s.Snapshot())
		}
	}
	st.ObjectImbalance = perf.ImbalanceRatio(st.ShardObjects)
	st.AcquireImbalance = perf.ImbalanceRatio(acquires)
	return st
}

// PublishPerf refreshes the derived perf gauges in the engine's
// registry — callers (the daemon's /metrics handler) invoke it per
// scrape, mirroring obs.PublishRuntime.
func (e *Engine) PublishPerf() {
	st := e.PerfStats()
	r := e.met.Load().reg
	r.FloatGauge("stac_shard_object_imbalance_ratio", "",
		"Max/mean object population across engine shards (1 = even).").Set(st.ObjectImbalance)
	r.FloatGauge("stac_shard_acquire_imbalance_ratio", "",
		"Max/mean lock acquisitions across engine shards (1 = even).").Set(st.AcquireImbalance)
	if st.SLO.TargetMs > 0 {
		r.FloatGauge("stac_slo_burn_rate", "",
			"Latency SLO error-budget burn rate (1 = consuming exactly the budget).").Set(st.SLO.BurnRate)
		r.FloatGauge("stac_slo_over_fraction", "",
			"Fraction of decisions over the SLO latency target.").Set(st.SLO.OverFraction)
	}
}
