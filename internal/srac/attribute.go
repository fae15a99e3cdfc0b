package srac

// Violation attribution: given the three-valued prefix status of a
// constraint, pinpoint the subformula responsible for it. Aggregate
// enforcement can say *that* a denial happened; attribution says
// *which* clause of the policy made it irreversible — the property
// Combi et al. argue temporal-constraint systems need to be
// trustworthy at all.
//
// Attribution is a projection of one evaluation (Evaluate): the
// blamed clause is the decisive node (cost.go), its detail is rendered
// from the leaf observations recorded there, and its count windows
// are the counting atoms recorded inside the blamed clause's pre-order
// range. Nothing here re-scans the history. The clause reported is a
// genuine witness — for a Violated conjunction it is the violated
// conjunct (recursively), for a Violated disjunction both disjuncts
// are dead so the disjunction itself is reported, and for a negation
// the blame lies with the stably satisfied operand.

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

// Attribute explains the prefix status of c over the history t — the
// attribution counterpart of EvalPrefixStable, with identical Status
// and Stable.
func Attribute(t trace.Trace, c Constraint, pr ProofOracle) Attribution {
	return AttributeNodes(c, Evaluate(t, c, pr, nil, false))
}

// AttributeNodes projects the records of one evaluation of c
// (Evaluate's result) onto the attribution of its root verdict. The
// clause it blames is exactly the node Decisive reports, the one
// coverage marks decisive.
func AttributeNodes(c Constraint, nodes []NodeEval) Attribution {
	clause, k := blame(c, nodes, 0)
	detail, windows := describe(clause, nodes, k)
	a := Attribution{Status: nodes[0].Status, Stable: nodes[0].Stable, Clause: clause, Detail: detail}
	if windows {
		a.Counts = countWindows(clause, nodes, k)
	}
	return a
}

// describeOperand explains the verdict of record k (subformula c)
// through the node it blames.
func describeOperand(c Constraint, nodes []NodeEval, k int) (string, bool) {
	c, k = blame(c, nodes, k)
	return describe(c, nodes, k)
}

// describe renders why the blamed record k (subformula c) has its
// status, and reports whether the attribution carries count windows: a
// counting atom does, a connective that takes the blame for its
// operands carries theirs, and other leaves carry none.
func describe(c Constraint, nodes []NodeEval, k int) (string, bool) {
	n := &nodes[k]
	switch x := c.(type) {
	case TrueC:
		return "constant T", false
	case FalseC:
		return "constant F", false
	case Atom:
		if n.First >= 0 {
			return fmt.Sprintf("witnessed at history position %d", n.First), false
		}
		return "no proof-backed occurrence yet", false
	case Ordered:
		switch {
		case n.First < 0:
			return "first access not yet witnessed", false
		case n.Second >= 0:
			return fmt.Sprintf("witnessed in order at positions %d and %d", n.First, n.Second), false
		}
		return fmt.Sprintf("first access witnessed at position %d, second still pending", n.First), false
	case Count:
		switch {
		case n.Status == Violated:
			return fmt.Sprintf("count %d exceeds ceiling %d of window [%d,%d] for %s",
				n.Count, x.Max, x.Min, x.Max, x.Sel), true
		case n.Status == Pending:
			return fmt.Sprintf("count %d below floor %d of window [%d,%d] for %s",
				n.Count, x.Min, x.Min, x.Max, x.Sel), true
		case x.Max == Unbounded:
			return fmt.Sprintf("count %d meets floor %d (no ceiling) for %s", n.Count, x.Min, x.Sel), true
		}
		return fmt.Sprintf("count %d within window [%d,%d] for %s (extensions may exceed it)",
			n.Count, x.Min, x.Max, x.Sel), true
	case And:
		// Blamed only when both conjuncts are satisfied.
		_, lw := describeOperand(x.Left, nodes, k+1)
		_, rw := describeOperand(x.Right, nodes, nodes[k+1].End)
		return "both conjuncts satisfied", lw || rw
	case Or:
		// Blamed only when both alternatives are violated.
		ld, lw := describeOperand(x.Left, nodes, k+1)
		rd, rw := describeOperand(x.Right, nodes, nodes[k+1].End)
		return "both alternatives violated: " + ld + "; " + rd, lw || rw
	case Not:
		// The negation itself takes the blame, carrying the operand's
		// witness in its detail.
		d, w := describeOperand(x.C, nodes, k+1)
		switch {
		case n.Status == Violated:
			return "negated subformula stably satisfied (" + d + ")", w
		case n.Status == Satisfied:
			return "negated subformula violated (" + d + ")", w
		case nodes[k+1].Status == Satisfied:
			return "negated subformula satisfied but not stably (" + d + ")", w
		}
		return "negated subformula still pending (" + d + ")", w
	}
	return fmt.Sprintf("unknown construct %T", c), false
}

// countWindows returns the window state of every counting atom inside
// c, whose records start at index k, in pre-order.
func countWindows(c Constraint, nodes []NodeEval, k int) []CountWindow {
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
				Observed: nodes[k].Count,
			})
		}
		k++
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
