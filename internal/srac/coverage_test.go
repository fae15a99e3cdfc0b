package srac

import (
	"math/rand"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// Property: the cost walk's root attribution equals Attribute's, every
// node's (Status, Stable) equals EvalPrefixStable on that subformula
// (evalPrefix is the independent reference), exactly one node is
// decisive, and the decisive node carries the attributed clause — over
// the full grammar.
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
		nodes, got := CoverCost(c, TraceLeafEval(hist, nil), false)
		want := Attribute(hist, c, nil)
		if got.Status != want.Status || got.Stable != want.Stable ||
			got.ClauseString() != want.ClauseString() || got.Detail != want.Detail {
			t.Fatalf("cost walk root attribution diverges for %s over %v:\n got (%s, %v) %q — %s\nwant (%s, %v) %q — %s",
				String(c), hist, got.Status, got.Stable, got.ClauseString(), got.Detail,
				want.Status, want.Stable, want.ClauseString(), want.Detail)
		}
		decisive := 0
		var decisiveNode NodeCost
		seen := make(map[string]bool, len(nodes))
		for _, n := range nodes {
			if seen[n.Path] {
				t.Fatalf("duplicate path %q for %s", n.Path, String(c))
			}
			seen[n.Path] = true
			sub, ok := SubclauseAt(c, n.Path)
			if !ok {
				t.Fatalf("path %q does not resolve in %s", n.Path, String(c))
			}
			st, stable := EvalPrefixStable(hist, sub, nil)
			if n.Status != st || n.Stable != stable {
				t.Fatalf("node %q of %s: coverage (%s, %v) != eval (%s, %v)",
					n.Path, String(c), n.Status, n.Stable, st, stable)
			}
			if n.Decisive {
				decisive++
				decisiveNode = n
			}
		}
		if decisive != 1 {
			t.Fatalf("%d decisive nodes for %s over %v (want exactly 1): %+v",
				decisive, String(c), hist, nodes)
		}
		sub, _ := SubclauseAt(c, decisiveNode.Path)
		if String(sub) != want.ClauseString() {
			t.Fatalf("decisive path %q resolves to %s, but attribution blames %s (constraint %s)",
				decisiveNode.Path, String(sub), want.ClauseString(), String(c))
		}
	}
}

// WalkPaths must enumerate exactly the paths the cost walk produces,
// in pre-order, and SubclauseAt must invert it.
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
		nodes, _ := CoverCost(c, TraceLeafEval(nil, nil), false)
		if len(nodes) != len(walked) {
			t.Fatalf("cost walk has %d nodes, WalkPaths %d for %s", len(nodes), len(walked), String(c))
		}
		covered := make(map[string]bool, len(nodes))
		for _, n := range nodes {
			covered[n.Path] = true
		}
		for _, p := range walked {
			if !covered[p] {
				t.Fatalf("WalkPaths path %q missing from the cost walk for %s", p, String(c))
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
