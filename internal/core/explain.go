package core

import (
	"fmt"
	"strings"

	"stac/internal/srac"
)

// Explanation is the machine-readable "why" of a denial, attached to
// the Decision and carried into the audit log: the specific SRAC
// subformula that evaluated Violated (with the window state of every
// counting atom inside it), or the temporal budget arithmetic that
// exhausted the permission. Constraint renderings use the concrete
// SRAC syntax, so an explanation round-trips through JSON without
// losing the formula.
type Explanation struct {
	// Constraint is the permission's whole spatial constraint ("" when
	// the denial was not spatial).
	Constraint string `json:"constraint,omitempty"`
	// Clause is the attributed subformula — the smallest part of
	// Constraint whose violation forced the denial.
	Clause string `json:"clause,omitempty"`
	// Detail is the one-line human reading of why Clause has its
	// status (e.g. "count 3 exceeds ceiling 2 of window [0,2] ...").
	Detail string `json:"detail,omitempty"`
	// Counts is the [m,n] window state of every counting atom inside
	// Clause (Max -1 = unbounded).
	Counts []srac.CountWindow `json:"counts,omitempty"`
	// Temporal is set for temporal denials: the Expression 4.1 budget
	// arithmetic at decision time.
	Temporal *TemporalExplanation `json:"temporal,omitempty"`
}

// TemporalExplanation is the budget state behind a temporal verdict:
// consumed valid duration vs. dur(perm), under the permission's
// base-time scheme.
type TemporalExplanation struct {
	// Consumed is the accumulated valid duration in seconds.
	Consumed float64 `json:"consumed_seconds"`
	// Budget is dur(perm) in seconds (-1 = time-insensitive).
	Budget float64 `json:"budget_seconds"`
	// Remaining is the unused validity in seconds.
	Remaining float64 `json:"remaining_seconds"`
	// Scheme names the base-time scheme (global or per-server).
	Scheme string `json:"scheme"`
}

// FlipSummary condenses the explanation into (clause, detail) for a
// verdict-flip row: spatial denials name the violated clause, temporal
// ones carry the budget arithmetic in the detail. Nil-safe.
func (ex *Explanation) FlipSummary() (clause, detail string) {
	if ex == nil {
		return "", ""
	}
	if ex.Temporal != nil {
		budget := "inf"
		if ex.Temporal.Budget >= 0 {
			budget = fmt.Sprintf("%.6gs", ex.Temporal.Budget)
		}
		return "", fmt.Sprintf("temporal budget: consumed %.6gs of %s (%s scheme)",
			ex.Temporal.Consumed, budget, ex.Temporal.Scheme)
	}
	return ex.Clause, ex.Detail
}

// String renders the explanation on one line for logs and transcripts.
func (ex *Explanation) String() string {
	if ex == nil {
		return ""
	}
	var b strings.Builder
	if ex.Clause != "" {
		fmt.Fprintf(&b, "violated clause: %s", ex.Clause)
	}
	if ex.Detail != "" {
		if b.Len() > 0 {
			b.WriteString(" — ")
		}
		b.WriteString(ex.Detail)
	}
	for _, cw := range ex.Counts {
		fmt.Fprintf(&b, "; %s", cw)
	}
	if ex.Temporal != nil {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "temporal budget: consumed %.6gs of %.6gs (%.6gs remaining, scheme %s)",
			ex.Temporal.Consumed, ex.Temporal.Budget, ex.Temporal.Remaining, ex.Temporal.Scheme)
	}
	return b.String()
}

// spatialExplanation converts a violation attribution into a decision
// explanation.
func spatialExplanation(whole srac.Constraint, a srac.Attribution) *Explanation {
	return &Explanation{
		Constraint: srac.String(whole),
		Clause:     a.ClauseString(),
		Detail:     a.Detail,
		Counts:     a.Counts,
	}
}
