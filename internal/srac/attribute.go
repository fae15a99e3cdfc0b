package srac

// Violation attribution: given the three-valued prefix status of a
// constraint, pinpoint the subformula responsible for it. Aggregate
// enforcement (PR 2's counters) can say *that* a denial happened;
// attribution says *which* clause of the policy made it irreversible —
// the property Combi et al. argue temporal-constraint systems need to
// be trustworthy at all.
//
// Attribute must agree with EvalPrefixStable exactly: its Status and
// Stable fields are defined to equal the engine's verdict, and the
// equivalence is property-tested over a formula corpus. The clause it
// reports is a genuine witness — for a Violated conjunction it is the
// violated conjunct (recursively), for a Violated disjunction both
// disjuncts are dead so the disjunction itself is reported, and for a
// negation the blame lies with the stably satisfied operand.

import (
	"fmt"
	"strings"

	"stac/internal/trace"
)

// CountWindow is the observable state of one counting atom
// #(m, n, σ): how many proof-backed accesses σ has selected so far
// versus the window it must land in. Max is -1 in JSON when the
// ceiling is unbounded.
type CountWindow struct {
	Selector string `json:"selector"`
	Min      int    `json:"min"`
	Max      int    `json:"max"`
	Observed int    `json:"observed"`
}

// String renders e.g. "sigma[rsw]: observed 3 of window [0,5]".
func (cw CountWindow) String() string {
	max := "inf"
	if cw.Max >= 0 {
		max = fmt.Sprintf("%d", cw.Max)
	}
	return fmt.Sprintf("%s: observed %d of window [%d,%s]", cw.Selector, cw.Observed, cw.Min, max)
}

// Attribution is the explained outcome of a prefix evaluation.
type Attribution struct {
	// Status and Stable equal EvalPrefixStable's verdict on the whole
	// constraint.
	Status Status
	Stable bool
	// Clause is the subformula the verdict is attributed to: for
	// Violated, the smallest subformula whose violation forces the
	// whole constraint's; for Satisfied, a witness subformula; for
	// Pending, the subformula still awaited.
	Clause Constraint
	// Detail is a one-line human reading of why Clause has its status.
	Detail string
	// Counts is the window state of every counting atom inside Clause,
	// so a count-driven denial carries its [m,n] numbers.
	Counts []CountWindow
}

// ClauseString renders the attributed clause in the concrete syntax
// ("" when there is none).
func (a Attribution) ClauseString() string {
	if a.Clause == nil {
		return ""
	}
	return String(a.Clause)
}

// LeafEval evaluates one leaf construct (TrueC, FalseC, Atom, Ordered,
// Count) and describes the outcome. The cost walk (CoverCost) takes
// one, so the same connective logic serves attribution, with the
// explaining TraceLeafEval, and the profilers, with the detail-free
// PlainTraceLeafEval.
type LeafEval func(c Constraint) (status Status, stable bool, detail string)

// mergeCounts combines the observed count windows of two subresults.
// Constraints without counting atoms — the common case — merge empty
// against empty, which costs no allocation; a fresh slice is only
// built when either side observed windows, so neither input is ever
// aliased or mutated.
func mergeCounts(l, r []CountWindow) []CountWindow {
	if len(l) == 0 && len(r) == 0 {
		return nil
	}
	out := make([]CountWindow, 0, len(l)+len(r))
	return append(append(out, l...), r...)
}

// Attribute explains the prefix status of c over the history t — the
// attribution counterpart of EvalPrefixStable, with identical Status
// and Stable. It is the root attribution of the cost walk, so the
// clause it blames is exactly the node coverage and cost mark
// decisive.
func Attribute(t trace.Trace, c Constraint, pr ProofOracle) Attribution {
	_, a := CoverCost(c, TraceLeafEval(t, pr), false)
	return a.withObserved(t, pr)
}

// countLeafStatus is the detail-free verdict for a counting atom
// given its observed proof-backed count — the cost walk's leaf
// evaluators use it directly so sampled timings don't pay for
// explanation formatting.
func countLeafStatus(x Count, n int) (Status, bool) {
	switch {
	case n > x.Max:
		return Violated, true
	case n >= x.Min:
		if x.Max == Unbounded {
			return Satisfied, true
		}
		return Satisfied, false
	default:
		return Pending, false
	}
}

// countLeaf is the explaining leaf verdict for a counting atom given
// its observed proof-backed count.
func countLeaf(x Count, n int) (Status, bool, string) {
	switch st, _ := countLeafStatus(x, n); {
	case st == Violated:
		return Violated, true,
			fmt.Sprintf("count %d exceeds ceiling %d of window [%d,%d] for %s",
				n, x.Max, x.Min, x.Max, x.Sel)
	case st == Satisfied:
		if x.Max == Unbounded {
			return Satisfied, true,
				fmt.Sprintf("count %d meets floor %d (no ceiling) for %s", n, x.Min, x.Sel)
		}
		return Satisfied, false,
			fmt.Sprintf("count %d within window [%d,%d] for %s (extensions may exceed it)",
				n, x.Min, x.Max, x.Sel)
	default:
		return Pending, false,
			fmt.Sprintf("count %d below floor %d of window [%d,%d] for %s",
				n, x.Min, x.Min, x.Max, x.Sel)
	}
}

// TraceLeafEval is the explaining leaf evaluator Attribute uses:
// leaves are decided against the proof-backed history t, with a detail
// string saying why.
func TraceLeafEval(t trace.Trace, pr ProofOracle) LeafEval {
	if pr == nil {
		pr = AllProven
	}
	return func(leaf Constraint) (Status, bool, string) {
		switch x := leaf.(type) {
		case TrueC:
			return Satisfied, true, "constant T"
		case FalseC:
			return Violated, true, "constant F"
		case Atom:
			if i := firstMatch(t, x.A, 0, pr); i >= 0 {
				return Satisfied, true, fmt.Sprintf("witnessed at history position %d", i)
			}
			return Pending, false, "no proof-backed occurrence yet"
		case Ordered:
			i := firstMatch(t, x.First, 0, pr)
			if i < 0 {
				return Pending, false, "first access not yet witnessed"
			}
			if j := firstMatch(t, x.Second, i+1, pr); j >= 0 {
				return Satisfied, true, fmt.Sprintf("witnessed in order at positions %d and %d", i, j)
			}
			return Pending, false, fmt.Sprintf("first access witnessed at position %d, second still pending", i)
		case Count:
			n := countProven(t, x.Sel, pr)
			return countLeaf(x, n)
		}
		return Pending, false, fmt.Sprintf("unknown construct %T", leaf)
	}
}

// withObserved fills in the Observed field of every count window by
// re-counting against the history (the leaf path records the window
// but not the count, which only the leaf detail carries).
func (a Attribution) withObserved(t trace.Trace, pr ProofOracle) Attribution {
	if len(a.Counts) == 0 || a.Clause == nil {
		return a
	}
	a.Counts = CollectCounts(t, a.Clause, pr)
	return a
}

// CollectCounts returns the window state of every counting atom inside
// c, in pre-order, counted against the history t.
func CollectCounts(t trace.Trace, c Constraint, pr ProofOracle) []CountWindow {
	if pr == nil {
		pr = AllProven
	}
	var out []CountWindow
	Walk(c, func(x Constraint) bool {
		if cnt, ok := x.(Count); ok {
			max := cnt.Max
			if max == Unbounded {
				max = -1
			}
			out = append(out, CountWindow{
				Selector: cnt.Sel.String(),
				Min:      cnt.Min,
				Max:      max,
				Observed: countProven(t, cnt.Sel, pr),
			})
		}
		return true
	})
	return out
}

// Summary renders the attribution on one line, e.g.
// "violated: count(0, 2, sigma[rsw]) — count 3 exceeds ceiling 2 ...".
func (a Attribution) Summary() string {
	var b strings.Builder
	b.WriteString(a.Status.String())
	if a.Clause != nil {
		b.WriteString(": ")
		b.WriteString(String(a.Clause))
	}
	if a.Detail != "" {
		b.WriteString(" — ")
		b.WriteString(a.Detail)
	}
	return b.String()
}
