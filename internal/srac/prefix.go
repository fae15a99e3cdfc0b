package srac

// Prefix evaluation: the three-valued status of a constraint over the
// history a mobile object has accumulated so far. Evaluate and
// EvalPrefix run the online monitor of monitor.go, which holds the
// package's one transcription of the leaf rules and of the
// three-valued connective logic. Every other reading of an evaluation
// projects its per-node records instead of re-walking the history:
// Strict satisfaction reads the root's Holds bit, attribution
// (attribute.go) and the decisive node (cost.go) read the recorded
// child verdicts and leaf observations, and per-clause coverage and
// cost are the records themselves. The pre-projection evaluator is
// kept test-only (refEvalPrefix) as the differential reference.

import (
	"stac/internal/model"
	"stac/internal/trace"
)

// Status is the three-valued outcome of evaluating a constraint
// against the *prefix* of an execution — the access history a mobile
// object has accumulated so far. Enforcement needs this rather than
// plain trace satisfaction because the execution is still in progress:
// a required access that has not happened yet is merely pending, while
// a count ceiling that has been crossed can never be repaired.
type Status int

// Prefix-evaluation outcomes.
const (
	// Satisfied: the history already satisfies the constraint. Whether
	// satisfaction is STABLE (no extension can lose it) depends on the
	// construct: a witnessed atom stays witnessed, but a count within a
	// finite ceiling can still be pushed over it. EvalPrefixStable
	// reports the distinction; it is what makes negation sound.
	Satisfied Status = iota
	// Violated: no extension of the history can satisfy the
	// constraint (an irreversible violation).
	Violated
	// Pending: the constraint is not satisfied by the history, but the
	// verdict is not irreversible — an extension may satisfy it.
	Pending
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Satisfied:
		return "satisfied"
	case Violated:
		return "violated"
	default:
		return "pending"
	}
}

// NegateStable derives the prefix status of ¬C from the status and
// stability of C. It is the sound replacement for the naive
// Satisfied↔Violated swap, which is wrong for unstable satisfaction:
// a counting atom #(m, n, σ) with the count inside [m, n] is Satisfied
// but an extension can push the count past n, so ¬#(m, n, σ) is merely
// Pending — denying it as "irreversibly violated" (as the swap did)
// is a wrong verdict in Admissible mode.
//
//   - Satisfied, stable  → Violated (every extension satisfies C, so
//     none satisfies ¬C — truly irreversible), and the verdict is
//     itself stable.
//   - Satisfied, unstable → Pending (¬C unsatisfied now, but some
//     extension may unsatisfy C).
//   - Violated → Satisfied, stable (no extension satisfies C, so every
//     extension satisfies ¬C).
//   - Pending → Pending (conservative: C is unsatisfied now, so ¬C
//     holds on the current prefix, but three-valued enforcement only
//     needs "not Violated" here and stays conservative).
func NegateStable(s Status, stable bool) (Status, bool) {
	switch {
	case s == Satisfied && stable:
		return Violated, true
	case s == Satisfied:
		return Pending, false
	case s == Violated:
		return Satisfied, true
	default:
		return Pending, false
	}
}

// NodeEval is one subformula's record in a single prefix evaluation.
// Evaluate writes one per node of the constraint tree, in pre-order:
// the root is record 0, a connective's first operand follows it, and
// a node's subtree occupies the records [i, End). The i-th record
// belongs to WalkPaths' i-th clause path, so reports address records
// by path without the walk building any.
type NodeEval struct {
	// Status and Stable are the subformula's prefix verdict, exactly
	// EvalPrefixStable on it.
	Status Status
	Stable bool
	// Holds is the two-valued trace satisfaction of Definition 3.6,
	// exactly SatisfiesTrace on the subformula. It can differ from
	// Status == Satisfied only where a negation is involved (¬ of a
	// Pending operand holds on the current trace), and it is what
	// Strict enforcement reads.
	Holds bool
	// End is the index one past the subformula's last record.
	End int
	// Atoms counts the leaves of the subtree (a leaf counts itself
	// once): the leaf evaluations the subtree performed.
	Atoms int
	// First and Second are what a leaf observed in the history: the
	// first witness position of an atom, or the positions of an
	// ordering's first and second access; -1 while unwitnessed (an
	// ordering's second access is only sought after its first). Count
	// is a counting atom's proof-backed count |σ(t)|.
	First, Second, Count int
	// NS is the subtree's wall-clock evaluation time in nanoseconds:
	// a leaf's own stepping, a connective's the sum of its operands';
	// zero unless the evaluation was timed.
	NS int64
}

// Evaluate is the one evaluation of a constraint over a history
// prefix: it appends one NodeEval per node of c, in pre-order, to
// nodes[:0] and returns the slice. It is a fresh monitor state (see
// monitor.go) advanced over t, then combined. The records are the
// single source every reading of the evaluation projects from: the
// enforcement verdict and Strict satisfaction (the root), the
// attribution of that verdict (AttributeNodes), and per-clause
// coverage and cost (Decisive, Atoms, NS). When timed is set each
// leaf's wall time is read with two clock reads; callers sample it
// (the profiler times 1 evaluation in 64), because on small formulas
// the clock reads are themselves measurable. Callers that evaluate one
// constraint repeatedly compile it once (Compile) and keep a State.
//
// The per-node rules are the prefix semantics of EvalPrefix.
func Evaluate(t trace.Trace, c Constraint, pr ProofOracle, nodes []NodeEval, timed bool) []NodeEval {
	var m Monitor
	m.init(c)
	s := m.start("", false, nodes)
	return s.run(t, feed{pr: pr}, nil, nil, timed)
}

// EvalPrefix evaluates a constraint against a history prefix:
//
//   - Atom a: Satisfied once a proof-backed match is in the history,
//     otherwise Pending (the access can still happen).
//   - a1 ⊗ a2: Satisfied once witnessed in order; otherwise Pending.
//   - #(m, n, σ): Violated when the proof-backed count already exceeds
//     n (more accesses only increase it); Satisfied within [m, n];
//     Pending below m.
//   - Connectives combine three-valued: ∧ is Violated if either side
//     is, Satisfied if both are; ∨ dually; ¬ follows NegateStable —
//     it only yields Violated when the operand's satisfaction is
//     stable, so ¬count over an in-range count is Pending, not
//     Violated.
//
// Enforcement denies on Violated and may grant on Satisfied or
// Pending; the static program checker additionally rules out programs
// that can never satisfy the constraint. It is Evaluate's root
// verdict.
func EvalPrefix(t trace.Trace, c Constraint, pr ProofOracle) Status {
	s, _ := EvalPrefixStable(t, c, pr)
	return s
}

// EvalPrefixStable is EvalPrefix plus a stability bit: stable reports
// that the returned status cannot change under ANY extension of the
// history. Violated is stable by definition (it means exactly that no
// extension satisfies); Satisfied is stable for witnessed atoms and
// orderings, for counts with an unbounded ceiling, and for
// combinations thereof; Pending is never stable (it means exactly
// that the verdict can still move).
func EvalPrefixStable(t trace.Trace, c Constraint, pr ProofOracle) (status Status, stable bool) {
	root := Evaluate(t, c, pr, nil, false)[0]
	return root.Status, root.Stable
}

// AdmitsExtension reports whether the history can still lead to
// satisfaction: it is the enforcement predicate "grant unless the
// constraint is irreversibly violated".
func AdmitsExtension(t trace.Trace, c Constraint, pr ProofOracle) bool {
	return EvalPrefix(t, c, pr) != Violated
}

// HypotheticalOracle extends a base oracle so the single access about
// to be performed counts as proven — enforcement evaluates the
// post-state of a grant before issuing its proof.
func HypotheticalOracle(base ProofOracle, pending model.Access) ProofOracle {
	if base == nil {
		base = AllProven
	}
	return OracleFunc(func(a model.Access) bool {
		return a == pending || base.Proven(a)
	})
}
