package core

// SRAC clause coverage: per subformula of each permission's
// constraint, how often the clause was evaluated, what it evaluated
// to, and how often it was DECISIVE — the clause srac.Attribute blames
// the whole verdict on. Aggregated over traffic this exposes dead
// clauses (never evaluated, or never decisive) that a policy author
// can tighten or delete; /debug/coverage serves it and the federate
// poller folds it across the coalition. The tallies live in the cost
// profiler's cells (see cost.go) — one walk, one table — and this file
// projects them.

// ClauseCoverage is the exported per-clause tally (one row of
// /debug/coverage).
type ClauseCoverage struct {
	// Perm and Path address the clause; Clause is its concrete syntax
	// (from the policy's unstamped constraint, so rows are comparable
	// across objects and members).
	Perm   string `json:"perm"`
	Path   string `json:"path"`
	Clause string `json:"clause"`
	// Evaluated counts prefix evaluations that reached the clause;
	// Satisfied/Violated/Pending split them by outcome; Decisive
	// counts evaluations whose whole-constraint verdict was attributed
	// to this clause.
	Evaluated int64 `json:"evaluated"`
	Satisfied int64 `json:"satisfied"`
	Violated  int64 `json:"violated"`
	Pending   int64 `json:"pending"`
	Decisive  int64 `json:"decisive"`
}

// Dead reports whether the clause never decided anything: either no
// evaluation ever reached it, or it was never the decisive clause.
func (c ClauseCoverage) Dead() bool { return c.Decisive == 0 }

// EnableCoverage is EnableCostProfiling: coverage is a projection of
// the per-clause cost profiler.
//
// Deprecated: call EnableCostProfiling. The repository benchmark
// module still calls this name.
func (e *Engine) EnableCoverage() { e.EnableCostProfiling() }

// Coverage returns the per-clause tallies, sorted by permission then
// clause path (parents before children); nil when profiling is off.
func (e *Engine) Coverage() []ClauseCoverage {
	clauses := e.CostReport().Clauses
	if len(clauses) == 0 {
		return nil
	}
	out := make([]ClauseCoverage, len(clauses))
	for i, cc := range clauses {
		out[i] = ClauseCoverage{
			Perm:      cc.Perm,
			Path:      cc.Path,
			Clause:    cc.Clause,
			Evaluated: cc.Evals,
			Satisfied: cc.Satisfied,
			Violated:  cc.Violated,
			Pending:   cc.Pending,
			Decisive:  cc.Decisive,
		}
	}
	return out
}
