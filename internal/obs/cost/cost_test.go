package cost

import (
	"testing"

	"stac/internal/testutil"
)

func TestMain(m *testing.M) { testutil.Main(m) }

func TestSampleTickFirstAndEvery64th(t *testing.T) {
	c := New()
	if !c.SampleTick() {
		t.Fatal("first evaluation not sampled")
	}
	sampled := 0
	for i := 0; i < 64*10; i++ {
		if c.SampleTick() {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 640, want exactly 10 (1 in 64)", sampled)
	}
}

func TestRecordAggregatesPerClause(t *testing.T) {
	c := New()
	c.Seed("read-f", "", "(a & b)")
	c.Seed("read-f", "l", "a")
	c.Seed("read-f", "r", "b")

	// Two evaluations, one sampled: the root decisive both times, the
	// left leaf once, the right leaf never visited past the root's
	// short-circuit on the second round.
	c.Record("read-f", true, []NodeSample{
		{Path: "", Outcome: Violated, Decisive: false, Atoms: 2, NS: 300},
		{Path: "l", Outcome: Violated, Decisive: true, Atoms: 1, NS: 200},
		{Path: "r", Outcome: Pending, Atoms: 1, NS: 100},
	}, nil)
	c.Record("read-f", false, []NodeSample{
		{Path: "", Outcome: Pending, Decisive: true, Atoms: 1},
		{Path: "l", Outcome: Satisfied, Atoms: 1},
	}, nil)

	rep := c.Report()
	if len(rep.Clauses) != 3 {
		t.Fatalf("clauses = %+v", rep.Clauses)
	}
	by := map[string]ClauseCost{}
	for _, cc := range rep.Clauses {
		by[cc.Path] = cc
	}
	root := by[""]
	if root.Clause != "(a & b)" || root.Evals != 2 || root.Decisive != 1 || root.Atoms != 3 {
		t.Fatalf("root = %+v", root)
	}
	if root.SampledEvals != 1 || root.SampledNS != 300 || root.MeanNS != 300 {
		t.Fatalf("root sampling = %+v", root)
	}
	l := by["l"]
	if l.Evals != 2 || l.Decisive != 1 || l.Atoms != 2 || l.SampledNS != 200 {
		t.Fatalf("l = %+v", l)
	}
	r := by["r"]
	if r.Evals != 1 || r.Decisive != 0 {
		t.Fatalf("r = %+v", r)
	}
	// The outcome tallies split each clause's evals.
	for path, want := range map[string][3]int64{"": {0, 1, 1}, "l": {1, 1, 0}, "r": {0, 0, 1}} {
		cc := by[path]
		if got := [3]int64{cc.Satisfied, cc.Violated, cc.Pending}; got != want {
			t.Fatalf("%q satisfied/violated/pending = %v, want %v", path, got, want)
		}
	}
}

func TestSeededButNeverEvaluatedClauseReportsZero(t *testing.T) {
	c := New()
	c.Seed("p", "", "x")
	rep := c.Report()
	if len(rep.Clauses) != 1 {
		t.Fatalf("clauses = %+v", rep.Clauses)
	}
	cc := rep.Clauses[0]
	if cc.Clause != "x" || cc.Evals != 0 || cc.SampledEvals != 0 || cc.MeanNS != 0 {
		t.Fatalf("zero cell = %+v", cc)
	}
}

func TestRecordResolvesClauseLazily(t *testing.T) {
	c := New()
	c.Record("p", false, []NodeSample{{Path: "l"}}, func(path string) string {
		return "clause@" + path
	})
	rep := c.Report()
	if len(rep.Clauses) != 1 || rep.Clauses[0].Clause != "clause@l" {
		t.Fatalf("clauses = %+v", rep.Clauses)
	}
}

func TestReportIsSortedAndStable(t *testing.T) {
	c := New()
	c.Seed("b-perm", "l", "x")
	c.Seed("a-perm", "", "y")
	c.Seed("b-perm", "", "z")
	rep := c.Report()
	want := []struct{ perm, path string }{
		{"a-perm", ""}, {"b-perm", ""}, {"b-perm", "l"},
	}
	for i, w := range want {
		if rep.Clauses[i].Perm != w.perm || rep.Clauses[i].Path != w.path {
			t.Fatalf("clauses[%d] = %+v, want %v", i, rep.Clauses[i], w)
		}
	}
}
