package srac

import (
	"math/rand"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// randomFullConstraint draws from the whole SRAC grammar, negation and
// disjunction included — the corpus for the attribution/eval
// equivalence property.
func randomFullConstraint(r *rand.Rand, depth int) Constraint {
	accs := []model.Access{
		{Op: "read", Resource: "f1", Server: "s1"},
		{Op: "write", Resource: "f2", Server: "s1"},
		{Op: "read", Resource: "f3", Server: "s2"},
	}
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return Require(accs[r.Intn(len(accs))])
		case 1:
			lo := r.Intn(3)
			max := lo + r.Intn(4)
			if r.Intn(4) == 0 {
				max = Unbounded
			}
			return Count{Min: lo, Max: max, Sel: model.Selector{Ops: []model.Operation{"read"}}}
		case 2:
			return Before(accs[r.Intn(len(accs))], accs[r.Intn(len(accs))])
		case 3:
			return TrueC{}
		default:
			return FalseC{}
		}
	}
	switch r.Intn(3) {
	case 0:
		return And{Left: randomFullConstraint(r, depth-1), Right: randomFullConstraint(r, depth-1)}
	case 1:
		return Or{Left: randomFullConstraint(r, depth-1), Right: randomFullConstraint(r, depth-1)}
	default:
		return Not{C: randomFullConstraint(r, depth-1)}
	}
}

// Property: Attribute reports exactly EvalPrefixStable's verdict, for
// every constraint shape and history — the explanation never disagrees
// with the enforcement decision it explains.
func TestAttributeMatchesEvalPrefixStable(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	pool := []model.Access{
		model.NewAccess("", "read", "f1", "s1"),
		model.NewAccess("", "write", "f2", "s1"),
		model.NewAccess("", "read", "f3", "s2"),
		model.NewAccess("", "execute", "rsw", "s2"),
	}
	for i := 0; i < 1500; i++ {
		var hist trace.Trace
		for j := 0; j < r.Intn(7); j++ {
			hist = append(hist, pool[r.Intn(len(pool))])
		}
		c := randomFullConstraint(r, 1+r.Intn(3))
		wantStatus, wantStable := EvalPrefixStable(hist, c, nil)
		a := Attribute(hist, c, nil)
		if a.Status != wantStatus || a.Stable != wantStable {
			t.Fatalf("attribution diverges from eval:\nC    %s\nhist %v\neval (%s, stable=%v)\nattr (%s, stable=%v) clause %s — %s",
				String(c), hist, wantStatus, wantStable, a.Status, a.Stable, a.ClauseString(), a.Detail)
		}
		if a.Clause == nil {
			t.Fatalf("no clause attributed for %s over %v", String(c), hist)
		}
		if a.Detail == "" {
			t.Fatalf("no detail for %s over %v", String(c), hist)
		}
	}
}

func TestAttributePinpointsViolatedConjunct(t *testing.T) {
	sel := model.Selector{Ops: []model.Operation{"read"}}
	ceiling := Count{Min: 0, Max: 2, Sel: sel}
	c := And{
		Left:  Require(model.NewAccess("", "write", "f2", "s1")),
		Right: ceiling,
	}
	read := model.NewAccess("", "read", "f1", "s1")
	hist := trace.Trace{read, read, read}
	a := Attribute(hist, c, nil)
	if a.Status != Violated || !a.Stable {
		t.Fatalf("status = %s stable=%v", a.Status, a.Stable)
	}
	// The blame lands on the counting conjunct, not the whole And.
	if a.ClauseString() != String(ceiling) {
		t.Fatalf("clause = %s, want %s", a.ClauseString(), String(ceiling))
	}
	if !strings.Contains(a.Detail, "count 3 exceeds ceiling 2") {
		t.Fatalf("detail = %q", a.Detail)
	}
	if len(a.Counts) != 1 || a.Counts[0].Observed != 3 || a.Counts[0].Min != 0 || a.Counts[0].Max != 2 {
		t.Fatalf("counts = %+v", a.Counts)
	}
}

func TestAttributeOrBothViolated(t *testing.T) {
	sel := model.Selector{Ops: []model.Operation{"read"}}
	c := Or{
		Left:  FalseC{},
		Right: Count{Min: 0, Max: 1, Sel: sel},
	}
	read := model.NewAccess("", "read", "f1", "s1")
	a := Attribute(trace.Trace{read, read}, c, nil)
	if a.Status != Violated || !a.Stable {
		t.Fatalf("status = %s stable=%v", a.Status, a.Stable)
	}
	// Both disjuncts are dead, so the whole Or is the violated clause
	// and the detail names both sides.
	if a.ClauseString() != String(c) {
		t.Fatalf("clause = %s, want the whole disjunction %s", a.ClauseString(), String(c))
	}
	if !strings.Contains(a.Detail, "both alternatives violated") {
		t.Fatalf("detail = %q", a.Detail)
	}
	if len(a.Counts) != 1 || a.Counts[0].Observed != 2 {
		t.Fatalf("counts = %+v", a.Counts)
	}
}

func TestAttributeNegation(t *testing.T) {
	// ¬(atom) becomes irreversibly violated once the atom is witnessed.
	atom := Require(model.NewAccess("", "read", "f1", "s1"))
	c := Not{C: atom}
	a := Attribute(trace.Trace{model.NewAccess("", "read", "f1", "s1")}, c, nil)
	if a.Status != Violated || !a.Stable {
		t.Fatalf("status = %s stable=%v", a.Status, a.Stable)
	}
	if a.ClauseString() != String(c) {
		t.Fatalf("clause = %s", a.ClauseString())
	}
	if !strings.Contains(a.Detail, "stably satisfied") {
		t.Fatalf("detail = %q", a.Detail)
	}

	// Before the atom is witnessed, ¬(atom) is pending (unstable
	// satisfaction under negation — the PR 2 semantics).
	a = Attribute(trace.Trace{}, c, nil)
	want, wantStable := EvalPrefixStable(trace.Trace{}, c, nil)
	if a.Status != want || a.Stable != wantStable {
		t.Fatalf("empty-history negation: attr (%s,%v), eval (%s,%v)", a.Status, a.Stable, want, wantStable)
	}
}

func TestAttributeSatisfiedAndPending(t *testing.T) {
	atom := Require(model.NewAccess("", "read", "f1", "s1"))
	a := Attribute(trace.Trace{model.NewAccess("", "read", "f1", "s1")}, atom, nil)
	if a.Status != Satisfied || !strings.Contains(a.Detail, "witnessed at history position 0") {
		t.Fatalf("satisfied atom: %s — %q", a.Status, a.Detail)
	}
	a = Attribute(trace.Trace{}, atom, nil)
	if a.Status != Pending || !strings.Contains(a.Detail, "no proof-backed occurrence yet") {
		t.Fatalf("pending atom: %s — %q", a.Status, a.Detail)
	}

	ord := Before(model.NewAccess("", "read", "f1", "s1"), model.NewAccess("", "write", "f2", "s1"))
	a = Attribute(trace.Trace{model.NewAccess("", "read", "f1", "s1")}, ord, nil)
	if a.Status != Pending || !strings.Contains(a.Detail, "second still pending") {
		t.Fatalf("half-ordered: %s — %q", a.Status, a.Detail)
	}
}

func TestCountWindowString(t *testing.T) {
	cw := CountWindow{Selector: "sigma", Min: 1, Max: 4, Observed: 2}
	if got := cw.String(); got != "sigma: observed 2 of window [1,4]" {
		t.Fatalf("String = %q", got)
	}
	cw.Max = -1
	if got := cw.String(); got != "sigma: observed 2 of window [1,inf]" {
		t.Fatalf("String = %q", got)
	}
}
