// Package cost profiles the evaluation cost of SRAC policy clauses.
//
// One coarse prefix-eval histogram cannot say WHERE a decision's
// evaluation time lands; this package can. A Collector aggregates, per
// (permission, clause-path) — the identity attribution keys on — how
// often each clause was evaluated and with what outcome
// (satisfied/violated/pending, the clause-coverage tallies), how often
// it was decisive, how many leaf evaluations (atoms) its subtree
// performed, and a 1-in-64 deterministically sampled cumulative
// wall-clock time. Its ClauseCost rows are the one per-clause table on
// every surface: the snapshot's cost.clauses, the federate rollup, and
// replay and shadow-diff coverage. Whole-decision numbers live
// elsewhere, each once: stage time (the static check, the prefix
// evaluation) on the request's stage ledger, and the history entries
// an evaluation consumed on its decision and its prefix_eval span.
//
// The package is stdlib-only and engine-agnostic: the engine
// translates its srac node costs into NodeSample values, so cost does
// not import the evaluator it measures.
package cost

import (
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// numStripes shards the clause-cell map by permission so hot
	// decide paths on different permissions don't serialize on one
	// mutex.
	numStripes = 8
	// sampleMask makes every 64th evaluation a timed one —
	// deterministic, not random, so runs are reproducible and the
	// steady-state overhead is a fixed 1/64 of the timing cost.
	sampleMask = 63
)

// Outcome is a clause's three-valued verdict in one prefix
// evaluation.
type Outcome uint8

// Clause outcomes, as the coverage tallies split evaluations.
const (
	Satisfied Outcome = iota
	Violated
	Pending
)

// NodeSample is one clause's outcome and work in a single prefix
// evaluation, translated from the evaluator's per-node records.
type NodeSample struct {
	Path     string
	Outcome  Outcome
	Decisive bool
	Atoms    int
	// NS is the subtree wall time of this evaluation; only meaningful
	// when the evaluation was sampled for timing.
	NS int64
}

type cell struct {
	clause       string
	evals        int64
	satisfied    int64
	violated     int64
	pending      int64
	decisive     int64
	atoms        int64
	sampledEvals int64
	sampledNS    int64
}

// entry is one clause cell addressed by its path; a permProfile keeps
// entries sorted by path, which for SRAC coverage paths is exactly
// pre-order. The evaluator records nodes in the same order, so
// Record is a linear merge of two sorted sequences — no per-node
// hashing on the decision path.
type entry struct {
	path string
	cell cell
}

type permProfile struct {
	entries []*entry
}

// at returns the cell for path, inserting a new one (named by clauseAt
// when given) at its sorted position on miss. from is a hint index
// into the sorted entries: callers merging a sorted node sequence pass
// their cursor so the common all-seeded case advances without search.
func (p *permProfile) at(path string, from *int, clauseAt func(string) string) *cell {
	i := *from
	for i < len(p.entries) && p.entries[i].path < path {
		i++
	}
	if i < len(p.entries) && p.entries[i].path == path {
		*from = i + 1
		return &p.entries[i].cell
	}
	e := &entry{path: path}
	if clauseAt != nil {
		e.cell.clause = clauseAt(path)
	}
	p.entries = append(p.entries, nil)
	copy(p.entries[i+1:], p.entries[i:])
	p.entries[i] = e
	*from = i + 1
	return &e.cell
}

type stripe struct {
	mu    sync.Mutex
	perms map[string]*permProfile
}

// Collector aggregates per-clause evaluation cost. The zero value is
// not usable; call New.
type Collector struct {
	stripes [numStripes]stripe
	// seq drives deterministic timing sampling across all
	// permissions. It starts at sampleMask so the very first
	// evaluation is sampled — short runs and tests get at least one
	// timed data point.
	seq atomic.Uint64
}

// New returns an empty collector.
func New() *Collector {
	c := &Collector{}
	for i := range c.stripes {
		c.stripes[i].perms = make(map[string]*permProfile)
	}
	c.seq.Store(sampleMask)
	return c
}

// SampleTick reports whether the next evaluation should be timed:
// true exactly once every 64 calls (and on the very first).
func (c *Collector) SampleTick() bool {
	return c.seq.Add(1)&sampleMask == 0
}

func (c *Collector) stripeFor(perm string) *stripe {
	// FNV-1a over the permission ID.
	h := uint32(2166136261)
	for i := 0; i < len(perm); i++ {
		h ^= uint32(perm[i])
		h *= 16777619
	}
	return &c.stripes[h%numStripes]
}

// Seed ensures a cell exists for (perm, path) with the given clause
// text, so clauses that never get evaluated still appear (with zero
// cost) in the report.
func (c *Collector) Seed(perm, path, clause string) {
	st := c.stripeFor(perm)
	st.mu.Lock()
	defer st.mu.Unlock()
	p, ok := st.perms[perm]
	if !ok {
		p = &permProfile{}
		st.perms[perm] = p
	}
	from := 0
	cl := p.at(path, &from, nil)
	if cl.clause == "" {
		cl.clause = clause
	}
}

// Record folds one evaluation's node samples into the per-clause
// cells. Nodes must be sorted by path — the pre-order the evaluator
// records them in — so the fold is a linear merge against the seeded
// cells.
// sampled says whether this evaluation carried timing (the caller's
// SampleTick result); clauseAt resolves a path to its clause text for
// cells created lazily (nil to leave them unnamed).
func (c *Collector) Record(perm string, sampled bool, nodes []NodeSample, clauseAt func(path string) string) {
	st := c.stripeFor(perm)
	st.mu.Lock()
	defer st.mu.Unlock()
	p, ok := st.perms[perm]
	if !ok {
		p = &permProfile{}
		st.perms[perm] = p
	}
	from := 0
	for i := range nodes {
		n := &nodes[i]
		cl := p.at(n.Path, &from, clauseAt)
		cl.evals++
		switch n.Outcome {
		case Satisfied:
			cl.satisfied++
		case Violated:
			cl.violated++
		default:
			cl.pending++
		}
		cl.atoms += int64(n.Atoms)
		if n.Decisive {
			cl.decisive++
		}
		if sampled {
			cl.sampledEvals++
			cl.sampledNS += n.NS
		}
	}
}

// ClauseCost is one clause's aggregated evaluation cost, in JSON form.
type ClauseCost struct {
	Perm   string `json:"perm"`
	Path   string `json:"path"`
	Clause string `json:"clause"`
	// Evals counts prefix evaluations that visited this clause;
	// Decisive counts the ones whose overall verdict was attributed to
	// it.
	Evals    int64 `json:"evals"`
	Decisive int64 `json:"decisive"`
	// Satisfied/Violated/Pending split Evals by the clause's own
	// outcome: the clause-coverage tallies.
	Satisfied int64 `json:"satisfied"`
	Violated  int64 `json:"violated"`
	Pending   int64 `json:"pending"`
	// Atoms is the cumulative leaf-evaluation count of the clause's
	// subtree.
	Atoms int64 `json:"atoms"`
	// SampledNS is cumulative subtree wall time over the SampledEvals
	// evaluations that carried timing (1 in 64, deterministic);
	// MeanNS is their ratio — the estimated cost of one evaluation of
	// this clause.
	SampledEvals int64   `json:"sampled_evals"`
	SampledNS    int64   `json:"sampled_ns"`
	MeanNS       float64 `json:"mean_ns"`
}

// Report is the collector's exported state: every clause's cost.
type Report struct {
	Clauses []ClauseCost `json:"clauses"`
}

// Report snapshots the collector. Clauses sort by permission then
// path.
func (c *Collector) Report() Report {
	var r Report
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		for perm, p := range st.perms {
			for _, e := range p.entries {
				cl := &e.cell
				cc := ClauseCost{
					Perm: perm, Path: e.path, Clause: cl.clause,
					Evals: cl.evals, Decisive: cl.decisive,
					Satisfied: cl.satisfied, Violated: cl.violated, Pending: cl.pending,
					Atoms: cl.atoms, SampledEvals: cl.sampledEvals, SampledNS: cl.sampledNS,
				}
				if cc.SampledEvals > 0 {
					cc.MeanNS = float64(cc.SampledNS) / float64(cc.SampledEvals)
				}
				r.Clauses = append(r.Clauses, cc)
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(r.Clauses, func(i, j int) bool {
		if r.Clauses[i].Perm != r.Clauses[j].Perm {
			return r.Clauses[i].Perm < r.Clauses[j].Perm
		}
		return r.Clauses[i].Path < r.Clauses[j].Path
	})
	return r
}
