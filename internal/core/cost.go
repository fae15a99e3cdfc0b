package core

// Per-clause evaluation profiling: with the profiler enabled, every
// spatial prefix evaluation's own per-node records are folded — each
// clause's outcome (the coverage tallies), decisiveness and work (leaf
// evals, 1-in-64 sampled wall time) — into an obs/cost.Collector keyed
// by (perm, clause path). The report's clause rows are the one
// per-clause table: the snapshot's cost section serves it, the
// federate poller folds it across the coalition (clause heat and the
// dead-clause census alike), replay and shadow diff report it as
// coverage, and `stacctl heat` ranks it.

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"stac/internal/obs/cost"
	"stac/internal/srac"
	"stac/internal/sral"
)

// EnableCostProfiling turns on per-clause evaluation profiling — cost
// and clause coverage alike — pre-seeding a cell for every clause of
// every registered permission (so never-evaluated clauses appear with
// zero counts). Call before serving traffic. Later calls keep the
// running collector.
func (e *Engine) EnableCostProfiling() {
	if e.costC.Load() != nil {
		return
	}
	col := cost.New()
	e.policyMu.RLock()
	specs := make([]PermSpec, 0, len(e.specs))
	for _, ps := range e.specs {
		specs = append(specs, ps)
	}
	e.policyMu.RUnlock()
	for _, ps := range specs {
		seedCost(col, ps)
	}
	// Publish last, after seeding: the collector pointer is the
	// enabled flag the decision path reads.
	e.costC.Store(col)
}

// EnableCoverage is EnableCostProfiling: the clause-coverage tallies
// are columns of the per-clause cost rows.
//
// Deprecated: call EnableCostProfiling. The repository benchmark
// module still calls this name.
func (e *Engine) EnableCoverage() { e.EnableCostProfiling() }

// CostEnabled reports whether evaluation profiling (cost and coverage)
// is on.
func (e *Engine) CostEnabled() bool { return e.costC.Load() != nil }

// CostReport snapshots the per-clause cost profile (zero report when
// profiling is off).
func (e *Engine) CostReport() cost.Report {
	col := e.costC.Load()
	if col == nil {
		return cost.Report{}
	}
	return col.Report()
}

func seedCost(col *cost.Collector, ps PermSpec) {
	if ps.Spatial == nil {
		return
	}
	srac.WalkPaths(ps.Spatial, func(path string, c srac.Constraint) {
		col.Seed(string(ps.Perm.ID), path, srac.String(c))
	})
}

// nodeEvalPool recycles the per-decision evaluation records and
// costSamplePool the per-decision sample buffers: each slice is alive
// only for one decision, so pooling keeps the decision path free of a
// per-decision allocation.
var (
	nodeEvalPool = sync.Pool{
		New: func() any {
			s := make([]srac.NodeEval, 0, 32)
			return &s
		},
	}
	costSamplePool = sync.Pool{
		New: func() any {
			s := make([]cost.NodeSample, 0, 32)
			return &s
		},
	}
)

func outcomeOf(s srac.Status) cost.Outcome {
	switch s {
	case srac.Satisfied:
		return cost.Satisfied
	case srac.Violated:
		return cost.Violated
	default:
		return cost.Pending
	}
}

// costClauseResolver names lazily created cells from the policy's
// unstamped constraint, so one row covers every requesting object.
func costClauseResolver(unstamped srac.Constraint) func(string) string {
	return func(path string) string {
		if c, ok := srac.SubclauseAt(unstamped, path); ok {
			return srac.String(c)
		}
		return ""
	}
}

// costScan profiles one prefix evaluation: it folds the decision's
// own evaluation records — each clause's outcome, its subtree's leaf
// count and, when the caller sampled this evaluation for timing, its
// wall time — plus the decisive clause into the per-clause cells. The
// profiler runs no walk of its own, so cost and coverage describe the
// very evaluation that decided. Decisive reads only the constraint's
// shape, which stamping does not change.
func costScan(col *cost.Collector, ps PermSpec, nodes []srac.NodeEval, sampled bool) {
	decisive := srac.Decisive(ps.Spatial, nodes)
	buf := costSamplePool.Get().(*[]cost.NodeSample)
	samples := (*buf)[:0]
	for i, n := range nodes {
		samples = append(samples, cost.NodeSample{
			Path: ps.paths[i], Outcome: outcomeOf(n.Status), Decisive: i == decisive,
			Atoms: n.Atoms, NS: n.NS,
		})
	}
	col.Record(string(ps.Perm.ID), sampled, samples, costClauseResolver(ps.Spatial))
	*buf = samples
	costSamplePool.Put(buf)
}

// ProgramDigest is the canonical digest of a declared SRAL program:
// sha256 over its concrete syntax, the program half of the
// static-check memo's key.
func ProgramDigest(p sral.Node) string {
	sum := sha256.Sum256([]byte(sral.String(p)))
	return hex.EncodeToString(sum[:])
}
