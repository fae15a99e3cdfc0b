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

func TestAmplificationGauges(t *testing.T) {
	c := New()
	// 3 appends, each followed by one evaluation: a kept monitor state
	// consumes the first evaluation's access alone, then the one entry
	// appended since its previous evaluation plus the access.
	for _, entries := range []int{1, 2, 2} {
		c.NoteAppend()
		c.NoteScan(entries)
	}
	// One fresh evaluation consumes a 3-entry history plus the access.
	c.NoteScan(4)
	a := c.Report().Amplification
	if a.PrefixEvals != 4 || a.ScanEntries != 9 || a.Appends != 3 {
		t.Fatalf("amplification = %+v", a)
	}
	if a.EvalsPerAppend != 4.0/3 {
		t.Fatalf("EvalsPerAppend = %v, want 4/3", a.EvalsPerAppend)
	}
	if a.EntriesPerScan != 2.25 {
		t.Fatalf("EntriesPerScan = %v, want 2.25", a.EntriesPerScan)
	}
}

func TestStaticCostTable(t *testing.T) {
	c := New()
	c.RecordStatic("prog-a", "pol-1", "Satisfied", 7, 100)
	c.RecordStatic("prog-a", "pol-1", "Satisfied", 7, 300)
	c.RecordStatic("prog-b", "pol-1", "Violated", 3, 50)
	rep := c.Report()
	if len(rep.Static) != 2 {
		t.Fatalf("static = %+v", rep.Static)
	}
	a := rep.Static[0]
	if a.ProgramDigest != "prog-a" || a.Checks != 2 || a.TotalNS != 400 || a.MeanNS != 200 ||
		a.ProgramSize != 7 || a.Verdict != "Satisfied" {
		t.Fatalf("prog-a = %+v", a)
	}
	if rep.Static[1].ProgramDigest != "prog-b" || rep.Static[1].Verdict != "Violated" {
		t.Fatalf("prog-b = %+v", rep.Static[1])
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
