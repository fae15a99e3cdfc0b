package srac

// The cost walk: one prefix evaluation's outcome at every node of the
// constraint tree, which node the overall verdict is attributed to,
// and the work it took to get there — how many leaf evaluations ran in
// each subtree, how many allocating count-window merges fired, and
// (when timing is sampled) the subtree's wall-clock nanoseconds.
// Prefix evaluation re-walks the whole AST per access, so cost scales
// with history length × formula size, and this is where that product
// becomes visible per clause.
//
// costNode is one of exactly two transcriptions of the three-valued
// connective logic in this package; the other is evalPrefix, the
// decision walk. Attribution (Attribute), clause coverage and cost are
// all projections of costNode, and the (Status, Stable) it reports at
// every node is property-tested against EvalPrefixStable on that
// subformula over a formula corpus.

import (
	"time"

	"stac/internal/trace"
)

// NodeCost is one subformula's outcome in a single prefix evaluation
// together with the work its subtree performed, addressed by its clause
// path (see paths.go).
type NodeCost struct {
	Path   string
	Status Status
	Stable bool
	// Decisive marks the node the whole-constraint verdict is
	// attributed to; exactly one node per evaluation is decisive.
	Decisive bool
	// Atoms counts the leaf evaluations performed inside this node's
	// subtree (a leaf counts itself once). The root's Atoms is the
	// total leaf work of the evaluation.
	Atoms int
	// Merges counts allocating count-window merges at this node: 1
	// when combining the children's windows built a fresh slice, 0
	// when both sides were empty (the common, allocation-free case).
	Merges int
	// NS is the subtree's wall-clock evaluation time in nanoseconds,
	// including children. Zero unless the evaluation was timed.
	NS int64
}

// CoverCost evaluates the constraint with the given leaf evaluator
// and returns per-node cost coverage (pre-order left-to-right by
// path) plus the root attribution. When timed is false the NS fields
// stay zero and no clock is read — callers sample timing (typically
// 1-in-64) because two time.Now calls per node are themselves
// measurable on tiny formulas.
func CoverCost(c Constraint, leaf LeafEval, timed bool) ([]NodeCost, Attribution) {
	var out []NodeCost
	a, decisive, _ := costNode(c, "", leaf, timed, &out)
	for i := range out {
		if out[i].Path == decisive {
			out[i].Decisive = true
		}
	}
	// Reverse the post-order accumulation into pre-order: parents
	// before children reads naturally in reports.
	sortCostNodes(out)
	return out, a
}

// costNode evaluates one node: it appends the node's outcome and cost
// to out and returns its attribution, the path of the node that
// attribution blames, and the subtree's leaf-eval count. The
// connective cases are a transcription of evalPrefix, choosing among
// equal verdicts the witness that explains the whole:
//
//   - a Violated conjunction blames its (first) violated conjunct;
//   - a Satisfied disjunction prefers a stably satisfied disjunct, so
//     Stable matches evalPrefix's (l==Sat&&lst) || (r==Sat&&rst);
//   - a disjunction with both sides Violated, and a negation, blame
//     the node itself.
func costNode(c Constraint, path string, leaf LeafEval, timed bool, out *[]NodeCost) (Attribution, string, int) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var a Attribution
	decisive := path
	atoms := 1
	merges := 0
	switch x := c.(type) {
	case And:
		l, lp, la := costNode(x.Left, path+"l", leaf, timed, out)
		r, rp, ra := costNode(x.Right, path+"r", leaf, timed, out)
		atoms = la + ra
		switch {
		case l.Status == Violated:
			a, decisive = l, lp
		case r.Status == Violated:
			a, decisive = r, rp
		case l.Status == Satisfied && r.Status == Satisfied:
			counts := mergeCounts(l.Counts, r.Counts)
			if counts != nil {
				merges = 1
			}
			a = Attribution{
				Status: Satisfied, Stable: l.Stable && r.Stable,
				Clause: c, Detail: "both conjuncts satisfied",
				Counts: counts,
			}
		case l.Status == Pending:
			l.Status = Pending
			l.Stable = false
			a, decisive = l, lp
		default:
			r.Status = Pending
			r.Stable = false
			a, decisive = r, rp
		}
	case Or:
		l, lp, la := costNode(x.Left, path+"l", leaf, timed, out)
		r, rp, ra := costNode(x.Right, path+"r", leaf, timed, out)
		atoms = la + ra
		switch {
		case l.Status == Satisfied && l.Stable:
			a, decisive = l, lp
		case r.Status == Satisfied && r.Stable:
			a, decisive = r, rp
		case l.Status == Satisfied:
			a, decisive = l, lp
		case r.Status == Satisfied:
			a, decisive = r, rp
		case l.Status == Violated && r.Status == Violated:
			counts := mergeCounts(l.Counts, r.Counts)
			if counts != nil {
				merges = 1
			}
			a = Attribution{
				Status: Violated, Stable: true, Clause: c,
				Detail: "both alternatives violated: " + l.Detail + "; " + r.Detail,
				Counts: counts,
			}
		case l.Status == Pending:
			l.Status = Pending
			l.Stable = false
			a, decisive = l, lp
		default:
			r.Status = Pending
			r.Stable = false
			a, decisive = r, rp
		}
	case Not:
		// The negation node itself takes the blame, carrying the
		// operand's witness in its detail.
		in, _, ia := costNode(x.C, path+"n", leaf, timed, out)
		atoms = ia
		st, stable := NegateStable(in.Status, in.Stable)
		a = Attribution{Status: st, Stable: stable, Clause: c, Counts: in.Counts}
		switch st {
		case Violated:
			a.Detail = "negated subformula stably satisfied (" + in.Detail + ")"
		case Satisfied:
			a.Detail = "negated subformula violated (" + in.Detail + ")"
		default:
			if in.Status == Satisfied {
				a.Detail = "negated subformula satisfied but not stably (" + in.Detail + ")"
			} else {
				a.Detail = "negated subformula still pending (" + in.Detail + ")"
			}
		}
	default:
		st, stable, detail := leaf(c)
		a = Attribution{Status: st, Stable: stable, Clause: c, Detail: detail}
		if cnt, ok := c.(Count); ok {
			max := cnt.Max
			if max == Unbounded {
				max = -1
			}
			a.Counts = []CountWindow{{Selector: cnt.Sel.String(), Min: cnt.Min, Max: max, Observed: -1}}
		}
	}
	nc := NodeCost{Path: path, Status: a.Status, Stable: a.Stable, Atoms: atoms, Merges: merges}
	if timed {
		nc.NS = time.Since(t0).Nanoseconds()
	}
	*out = append(*out, nc)
	return a, decisive, atoms
}

// sortCostNodes orders cost coverage by path: parents before
// children, left subtree before right (lexicographic order on paths
// does exactly that, since every child path extends its parent's).
func sortCostNodes(nodes []NodeCost) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].Path < nodes[j-1].Path; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

// PlainTraceLeafEval mirrors TraceLeafEval's verdicts without
// building detail strings. The cost walk wants its sampled timings to
// reflect eval-shaped work — the history scans of firstMatch and
// countProven — not explanation formatting, so it runs on this
// evaluator instead.
func PlainTraceLeafEval(t trace.Trace, pr ProofOracle) LeafEval {
	if pr == nil {
		pr = AllProven
	}
	return func(leaf Constraint) (Status, bool, string) {
		switch x := leaf.(type) {
		case TrueC:
			return Satisfied, true, ""
		case FalseC:
			return Violated, true, ""
		case Atom:
			if firstMatch(t, x.A, 0, pr) >= 0 {
				return Satisfied, true, ""
			}
			return Pending, false, ""
		case Ordered:
			i := firstMatch(t, x.First, 0, pr)
			if i < 0 {
				return Pending, false, ""
			}
			if firstMatch(t, x.Second, i+1, pr) >= 0 {
				return Satisfied, true, ""
			}
			return Pending, false, ""
		case Count:
			st, stable := countLeafStatus(x, countProven(t, x.Sel, pr))
			return st, stable, ""
		}
		return Pending, false, ""
	}
}
