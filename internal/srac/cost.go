package srac

// The decisive node: which subformula one evaluation's verdict is
// attributed to. Coverage counts it per clause, attribution
// (AttributeNodes) renders it, and both read it off Evaluate's
// records, so the clause coverage marks decisive is exactly the clause
// an explanation blames.
//
// Per-clause cost needs nothing beyond the records themselves: each
// NodeEval carries its subtree's leaf count (Atoms) and, on a timed
// evaluation, its wall time (NS). A kept monitor state steps only the
// entries appended since its last evaluation plus the requested
// access, so a clause's cost scales with that catch-up, not with the
// history's length; a fresh evaluation still steps the whole history,
// and the records are where either becomes visible per clause.

// Decisive returns the pre-order index of the node the root verdict of
// Evaluate(…, c, …) is attributed to.
func Decisive(c Constraint, nodes []NodeEval) int {
	_, k := blame(c, nodes, 0)
	return k
}

// blame resolves the node the verdict of record k (the subformula c)
// is attributed to, returning that subformula and its index. Among
// equal verdicts it chooses the witness that explains the whole:
//
//   - a Violated conjunction blames its (first) violated conjunct, a
//     Pending one its (first) pending conjunct;
//   - a Satisfied disjunction prefers a stably satisfied disjunct, so
//     the blamed node's Stable is the disjunction's;
//   - a conjunction with both sides Satisfied, a disjunction with both
//     sides Violated, a negation and a leaf blame the node itself.
//
// The blamed node's (Status, Stable) therefore always equals record
// k's.
func blame(c Constraint, nodes []NodeEval, k int) (Constraint, int) {
	switch x := c.(type) {
	case And:
		l, r := k+1, nodes[k+1].End
		switch {
		case nodes[l].Status == Violated:
			return blame(x.Left, nodes, l)
		case nodes[r].Status == Violated:
			return blame(x.Right, nodes, r)
		case nodes[l].Status == Pending:
			return blame(x.Left, nodes, l)
		case nodes[r].Status == Pending:
			return blame(x.Right, nodes, r)
		}
	case Or:
		l, r := k+1, nodes[k+1].End
		switch {
		case nodes[l].Status == Satisfied && nodes[l].Stable:
			return blame(x.Left, nodes, l)
		case nodes[r].Status == Satisfied && nodes[r].Stable:
			return blame(x.Right, nodes, r)
		case nodes[l].Status == Satisfied:
			return blame(x.Left, nodes, l)
		case nodes[r].Status == Satisfied:
			return blame(x.Right, nodes, r)
		case nodes[l].Status == Pending:
			return blame(x.Left, nodes, l)
		case nodes[r].Status == Pending:
			return blame(x.Right, nodes, r)
		}
	}
	return c, k
}
