package srac

import (
	"math/rand"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// checkAgreement evaluates c over hist once and holds every record and
// every projection of it to an independent reference: each record's
// (Status, Stable) equals refEvalPrefix on the subformula at the
// record's clause path and its Holds equals SatisfiesTrace there; its
// End and Atoms delimit exactly that subformula; its leaf observation
// is the one a direct history scan finds (connectives observe
// nothing); and the decisive node carries the attributed clause and
// the root's verdict.
func checkAgreement(t testing.TB, c Constraint, hist trace.Trace, pr ProofOracle) {
	t.Helper()
	nodes := Evaluate(hist, c, pr, nil, false)
	if pr == nil {
		pr = AllProven
	}
	var paths []string
	WalkPaths(c, func(path string, _ Constraint) { paths = append(paths, path) })
	if len(nodes) != len(paths) {
		t.Fatalf("%d records for the %d clause paths of %s", len(nodes), len(paths), String(c))
	}
	for i, n := range nodes {
		sub, ok := SubclauseAt(c, paths[i])
		if !ok {
			t.Fatalf("path %q does not resolve in %s", paths[i], String(c))
		}
		st, stable := refEvalPrefix(hist, sub, pr)
		if n.Status != st || n.Stable != stable {
			t.Fatalf("record %d (%q) of %s over %v: (%s, %v), reference (%s, %v)",
				i, paths[i], String(c), hist, n.Status, n.Stable, st, stable)
		}
		if holds := SatisfiesTrace(hist, sub, pr); n.Holds != holds {
			t.Fatalf("record %d (%q) of %s over %v: Holds %v, SatisfiesTrace %v",
				i, paths[i], String(c), hist, n.Holds, holds)
		}
		leaves := 0
		Walk(sub, func(x Constraint) bool {
			switch x.(type) {
			case And, Or, Not:
			default:
				leaves++
			}
			return true
		})
		if n.End != i+sub.Size() || n.Atoms != leaves {
			t.Fatalf("record %d (%q) of %s: End %d Atoms %d, want %d and %d",
				i, paths[i], String(c), n.End, n.Atoms, i+sub.Size(), leaves)
		}
		first, second, count := -1, -1, 0
		switch x := sub.(type) {
		case Atom:
			first = firstMatch(hist, x.A, 0, pr)
		case Ordered:
			if first = firstMatch(hist, x.First, 0, pr); first >= 0 {
				second = firstMatch(hist, x.Second, first+1, pr)
			}
		case Count:
			count = countProven(hist, x.Sel, pr)
		}
		if n.First != first || n.Second != second || n.Count != count {
			t.Fatalf("record %d (%q) of %s over %v observed (%d, %d, count %d), want (%d, %d, count %d)",
				i, paths[i], String(c), hist, n.First, n.Second, n.Count, first, second, count)
		}
	}
	root := nodes[0]
	a := AttributeNodes(c, nodes)
	if a.Status != root.Status || a.Stable != root.Stable {
		t.Fatalf("attribution (%s, %v) of %s disagrees with the root (%s, %v)",
			a.Status, a.Stable, String(c), root.Status, root.Stable)
	}
	d := Decisive(c, nodes)
	if sub, _ := SubclauseAt(c, paths[d]); String(sub) != a.ClauseString() {
		t.Fatalf("decisive path %q resolves to %s, but attribution blames %s (constraint %s)",
			paths[d], String(sub), a.ClauseString(), String(c))
	}
	if nodes[d].Status != root.Status || nodes[d].Stable != root.Stable {
		t.Fatalf("decisive record %q (%s, %v) of %s disagrees with the root (%s, %v)",
			paths[d], nodes[d].Status, nodes[d].Stable, String(c), root.Status, root.Stable)
	}
}

// Property: one evaluation's records agree, node by node, with the
// reference evaluator and Definition 3.6, and its attribution and
// decisive node agree with each other — over the full grammar, with
// and without unproven history entries.
func TestCoverAgreesWithAttributeAndEval(t *testing.T) {
	r := rand.New(rand.NewSource(211))
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
		var oracle ProofOracle
		if i%3 == 0 {
			unproven := pool[r.Intn(len(pool))]
			oracle = OracleFunc(func(a model.Access) bool { return a != unproven })
		}
		checkAgreement(t, c, hist, oracle)
	}
}

// WalkPaths must enumerate one path per evaluation record, in the
// records' pre-order, and SubclauseAt must invert it.
func TestWalkPathsMatchesCover(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	for i := 0; i < 300; i++ {
		c := randomFullConstraint(r, 1+r.Intn(3))
		var walked []string
		WalkPaths(c, func(path string, sub Constraint) {
			walked = append(walked, path)
			got, ok := SubclauseAt(c, path)
			if !ok || String(got) != String(sub) {
				t.Fatalf("SubclauseAt(%q) = %v/%v, want %s", path, got, ok, String(sub))
			}
		})
		nodes := Evaluate(nil, c, nil, nil, false)
		if len(nodes) != len(walked) {
			t.Fatalf("evaluation has %d records, WalkPaths %d for %s", len(nodes), len(walked), String(c))
		}
		for j := 1; j < len(walked); j++ {
			if walked[j] <= walked[j-1] {
				t.Fatalf("WalkPaths order %q then %q is not pre-order for %s", walked[j-1], walked[j], String(c))
			}
		}
	}
}

func TestSubclauseAtRejectsBadPaths(t *testing.T) {
	c := And{Left: TrueC{}, Right: Not{C: FalseC{}}}
	for _, bad := range []string{"x", "ln", "rl", "rnn", "lll"} {
		if sub, ok := SubclauseAt(c, bad); ok {
			t.Errorf("SubclauseAt(%q) = %s, want miss", bad, String(sub))
		}
	}
	if sub, ok := SubclauseAt(c, "rn"); !ok || String(sub) != String(FalseC{}) {
		t.Errorf("SubclauseAt(rn) = %v/%v, want F", sub, ok)
	}
}
