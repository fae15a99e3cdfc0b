package srac

import "stac/internal/trace"

// refEvalPrefix is the decision walk as it stood before prefix
// evaluation, attribution, coverage and cost became projections of one
// recorded evaluation, kept verbatim as the independent reference the
// production walk is differentially tested against (FuzzPrefixAgreement,
// TestEvaluateAgreesWithReference).
func refEvalPrefix(t trace.Trace, c Constraint, pr ProofOracle) (Status, bool) {
	switch x := c.(type) {
	case TrueC:
		return Satisfied, true
	case FalseC:
		return Violated, true
	case Atom:
		if firstMatch(t, x.A, 0, pr) >= 0 {
			// The witness is in the history for good: satisfaction is
			// stable under extension.
			return Satisfied, true
		}
		return Pending, false
	case Ordered:
		i := firstMatch(t, x.First, 0, pr)
		if i >= 0 && firstMatch(t, x.Second, i+1, pr) >= 0 {
			return Satisfied, true
		}
		return Pending, false
	case Count:
		n := countProven(t, x.Sel, pr)
		switch {
		case n > x.Max:
			return Violated, true
		case n >= x.Min:
			// Extensions can only grow the count, so satisfaction is
			// stable exactly when there is no ceiling to cross.
			return Satisfied, x.Max == Unbounded
		default:
			return Pending, false
		}
	case And:
		l, lst := refEvalPrefix(t, x.Left, pr)
		r, rst := refEvalPrefix(t, x.Right, pr)
		switch {
		case l == Violated || r == Violated:
			return Violated, true
		case l == Satisfied && r == Satisfied:
			return Satisfied, lst && rst
		default:
			return Pending, false
		}
	case Or:
		l, lst := refEvalPrefix(t, x.Left, pr)
		r, rst := refEvalPrefix(t, x.Right, pr)
		switch {
		case l == Satisfied || r == Satisfied:
			return Satisfied, (l == Satisfied && lst) || (r == Satisfied && rst)
		case l == Violated && r == Violated:
			return Violated, true
		default:
			return Pending, false
		}
	case Not:
		return NegateStable(refEvalPrefix(t, x.C, pr))
	}
	return Pending, false
}
