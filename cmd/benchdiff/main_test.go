package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagsRegressionsAndChurn(t *testing.T) {
	old := []benchResult{
		{Name: "BenchmarkFast", NsPerOp: 100},
		{Name: "BenchmarkSlow", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}
	cur := []benchResult{
		{Name: "BenchmarkFast", NsPerOp: 110},  // +10% — under threshold
		{Name: "BenchmarkSlow", NsPerOp: 1500}, // +50% — regression
		{Name: "BenchmarkNew", NsPerOp: 7},
	}
	deltas, added, removed := compare(old, cur)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v", deltas)
	}
	if len(added) != 1 || added[0] != "BenchmarkNew" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "BenchmarkGone" {
		t.Fatalf("removed = %v", removed)
	}

	var buf bytes.Buffer
	worst, n := report(&buf, deltas, added, removed, 25)
	if n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, buf.String())
	}
	if worst < 49 || worst > 51 {
		t.Fatalf("worst = %g, want ~50", worst)
	}
	out := buf.String()
	if !strings.Contains(out, "::warning title=perf regression::BenchmarkSlow") {
		t.Fatalf("no warning annotation:\n%s", out)
	}
	if strings.Contains(out, "::warning title=perf regression::BenchmarkFast") {
		t.Fatalf("under-threshold delta flagged:\n%s", out)
	}
	if !strings.Contains(out, "1 regression(s) beyond 25%") {
		t.Fatalf("summary line:\n%s", out)
	}
}

func TestCompareZeroBaselineDoesNotDivide(t *testing.T) {
	deltas, _, _ := compare(
		[]benchResult{{Name: "B", NsPerOp: 0}},
		[]benchResult{{Name: "B", NsPerOp: 10}},
	)
	if len(deltas) != 1 || deltas[0].Pct != 0 {
		t.Fatalf("deltas = %+v", deltas)
	}
}

func TestRunToleratesMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newPath, []byte(`{"bench":[{"name":"B","ns_per_op":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{filepath.Join(dir, "absent.json"), newPath}, &buf); err != nil {
		t.Fatalf("missing baseline should not error: %v", err)
	}
	if !strings.Contains(buf.String(), "no baseline") {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestRunComparesFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(`{"bench":[{"name":"B","ns_per_op":100,"allocs_per_op":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(`{"bench":[{"name":"B","ns_per_op":400,"allocs_per_op":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{oldPath, newPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "::warning") {
		t.Fatalf("300%% regression not flagged:\n%s", buf.String())
	}

	if err := run([]string{"-threshold", "1000", oldPath, newPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{oldPath}, &buf); err == nil {
		t.Fatal("single argument accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad, newPath}, &buf); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

// --- -fail-over gating ------------------------------------------------

func TestRunFailOverGatesBenchRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(`{"bench":[{"name":"B","ns_per_op":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(`{"bench":[{"name":"B","ns_per_op":300}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// +200% regression: beyond -fail-over 90 it must error...
	err := run([]string{"-fail-over", "90", oldPath, newPath}, &buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds -fail-over") {
		t.Fatalf("fail-over did not gate: %v", err)
	}
	// ...below it (or with gating off) it must not.
	if err := run([]string{"-fail-over", "250", oldPath, newPath}, &buf); err != nil {
		t.Fatalf("under fail-over errored: %v", err)
	}
	if err := run([]string{oldPath, newPath}, &buf); err != nil {
		t.Fatalf("fail-over unset errored: %v", err)
	}
}

// --- load-summary mode ------------------------------------------------

const loadOld = `{
  "schema": 1,
  "runs": [
    {"scenario": "churn", "system": "stac", "trial": 0, "throughput_ops_s": 5000, "p99_us": 2000},
    {"scenario": "churn", "system": "stac", "trial": 1, "throughput_ops_s": 6000, "p99_us": 2200},
    {"scenario": "churn", "system": "rbac", "trial": 0, "throughput_ops_s": 12000, "p99_us": 900}
  ]
}`

const loadNew = `{
  "schema": 1,
  "runs": [
    {"scenario": "churn", "system": "stac", "trial": 0, "throughput_ops_s": 1000, "p99_us": 2100},
    {"scenario": "churn", "system": "rbac", "trial": 0, "throughput_ops_s": 12500, "p99_us": 880},
    {"scenario": "hostile", "system": "stac", "trial": 0, "throughput_ops_s": 800, "p99_us": 5000}
  ]
}`

func TestCompareLoadThroughputAndTail(t *testing.T) {
	var oldS, newS loadSummary
	mustUnmarshal(t, loadOld, &oldS)
	mustUnmarshal(t, loadNew, &newS)
	deltas, added, removed := compareLoad(oldS.Runs, newS.Runs)
	// churn/rbac and churn/stac each contribute ops/s + p99us deltas.
	if len(deltas) != 4 {
		t.Fatalf("deltas = %+v", deltas)
	}
	byKey := map[string]delta{}
	for _, d := range deltas {
		byKey[d.Name+" "+d.Unit] = d
	}
	// churn/stac trials averaged: 5500 ops/s -> 1000 = ~81.8% drop.
	d := byKey["churn/stac ops/s"]
	if d.Pct < 81 || d.Pct > 83 {
		t.Fatalf("churn/stac throughput drop = %+v", d)
	}
	// rbac got slightly faster: Pct must be negative (improvement).
	if d := byKey["churn/rbac ops/s"]; d.Pct >= 0 {
		t.Fatalf("churn/rbac improvement not negative: %+v", d)
	}
	if len(added) != 1 || added[0] != "hostile/stac" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 0 {
		t.Fatalf("removed = %v", removed)
	}
}

func TestRunFailOverGatesLoadThroughput(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "LOAD_old.json")
	newPath := filepath.Join(dir, "LOAD_new.json")
	if err := os.WriteFile(oldPath, []byte(loadOld), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(loadNew), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-fail-over", "50", oldPath, newPath}, &buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds -fail-over") {
		t.Fatalf("throughput collapse not gated: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "churn/stac") {
		t.Fatalf("report missing cell key:\n%s", buf.String())
	}
	// Warn-only when -fail-over is unset.
	buf.Reset()
	if err := run([]string{oldPath, newPath}, &buf); err != nil {
		t.Fatalf("warn-only run errored: %v", err)
	}
	if !strings.Contains(buf.String(), "::warning") {
		t.Fatalf("no warning in warn-only mode:\n%s", buf.String())
	}
}

func TestRunRejectsMixedFormats(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	loadPath := filepath.Join(dir, "load.json")
	if err := os.WriteFile(benchPath, []byte(`{"bench":[{"name":"B","ns_per_op":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(loadPath, []byte(loadOld), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{benchPath, loadPath}, &buf); err == nil {
		t.Fatal("mixed formats accepted")
	}
}

func mustUnmarshal(t *testing.T, s string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(s), v); err != nil {
		t.Fatal(err)
	}
}

// TestRunFailOverIgnoresTailLatency: p99 swings on a shared CI box are
// warn-only — only a throughput collapse may fail the build.
func TestRunFailOverIgnoresTailLatency(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	oldDoc := `{"schema":1,"runs":[{"scenario":"s","system":"stac","throughput_ops_s":1000,"p99_us":100}]}`
	newDoc := `{"schema":1,"runs":[{"scenario":"s","system":"stac","throughput_ops_s":990,"p99_us":10000}]}`
	if err := os.WriteFile(oldPath, []byte(oldDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-fail-over", "50", oldPath, newPath}, &buf); err != nil {
		t.Fatalf("100x p99 rise must not gate: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "::warning") {
		t.Fatalf("p99 rise not even warned:\n%s", buf.String())
	}
}

// --- allocs/op gating -------------------------------------------------

func TestCompareEmitsAllocDeltas(t *testing.T) {
	deltas, _, _ := compare(
		[]benchResult{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10},
			{Name: "BenchmarkZeroAlloc", NsPerOp: 100},
		},
		[]benchResult{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 30},
			{Name: "BenchmarkZeroAlloc", NsPerOp: 100},
		},
	)
	// A allocates: ns/op + allocs/op. ZeroAlloc never allocates on
	// either side: ns/op only.
	if len(deltas) != 3 {
		t.Fatalf("deltas = %+v", deltas)
	}
	var alloc *delta
	for i := range deltas {
		if deltas[i].Unit == "allocs/op" {
			alloc = &deltas[i]
		}
	}
	if alloc == nil || alloc.Name != "BenchmarkA" {
		t.Fatalf("no allocs delta: %+v", deltas)
	}
	if alloc.Pct < 199 || alloc.Pct > 201 || !alloc.Gate {
		t.Fatalf("allocs delta = %+v, want +200%% gating", *alloc)
	}
}

func TestRunFailOverGatesAllocRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	// ns/op flat, allocs tripled: only the allocation axis regresses.
	if err := os.WriteFile(oldPath, []byte(`{"bench":[{"name":"B","ns_per_op":100,"allocs_per_op":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(`{"bench":[{"name":"B","ns_per_op":100,"allocs_per_op":6}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-fail-over", "90", oldPath, newPath}, &buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds -fail-over") {
		t.Fatalf("alloc regression did not gate: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "allocs/op") {
		t.Fatalf("report missing allocs/op row:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-fail-over", "250", oldPath, newPath}, &buf); err != nil {
		t.Fatalf("under fail-over errored: %v", err)
	}
}

// --- v2 bench envelope and host mismatch ------------------------------

func TestRunV2BenchEnvelopeAndHostWarning(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	oldDoc := `{"host":{"go_version":"go1.24","goarch":"amd64","num_cpu":8,"gomaxprocs":8,"cpu_model":"Xeon"},
		"bench":[{"name":"B","ns_per_op":100}]}`
	newDoc := `{"host":{"go_version":"go1.24","goarch":"amd64","num_cpu":64,"gomaxprocs":64,"cpu_model":"EPYC"},
		"bench":[{"name":"B","ns_per_op":105}]}`
	if err := os.WriteFile(oldPath, []byte(oldDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{oldPath, newPath}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "::warning title=host mismatch::cpu_model: Xeon vs EPYC") {
		t.Fatalf("no host-mismatch warning:\n%s", out)
	}
	if !strings.Contains(out, "num_cpu differs") {
		t.Fatalf("core-count mismatch not flagged:\n%s", out)
	}
	if !strings.Contains(out, "1 compared") {
		t.Fatalf("envelope entries not compared:\n%s", out)
	}
}

// --- -distill mode ----------------------------------------------------

const benchOutput = `goos: linux
goarch: amd64
pkg: stac
BenchmarkAuthorize-8         	  123456	      9876 ns/op	     512 B/op	      12 allocs/op
BenchmarkAuthorizeParallel-8 	  654321	       123.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-8             	     100	     55555 ns/op
PASS
ok  	stac	1.234s
`

func TestDistillParsesBenchOutput(t *testing.T) {
	results, err := distill(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Name != "BenchmarkAuthorize" || results[0].NsPerOp != 9876 || results[0].AllocsPerOp != 12 {
		t.Fatalf("first result = %+v", results[0])
	}
	if results[1].NsPerOp != 123.4 || results[1].AllocsPerOp != 0 {
		t.Fatalf("parallel result = %+v", results[1])
	}
	if results[2].Name != "BenchmarkNoMem" || results[2].NsPerOp != 55555 {
		t.Fatalf("memless result = %+v", results[2])
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-2":                   "BenchmarkX",
		"BenchmarkX/history=10-16":       "BenchmarkX/history=10",
		"BenchmarkX":                     "BenchmarkX",
		"BenchmarkX/m=13/n=5":            "BenchmarkX/m=13/n=5",
		"BenchmarkX/plain-rbac":          "BenchmarkX/plain-rbac",
		"BenchmarkX/spatio-temporal-2":   "BenchmarkX/spatio-temporal",
		"BenchmarkX/trailing-":           "BenchmarkX/trailing-",
		"BenchmarkX/signed-+2":           "BenchmarkX/signed-+2",
		"BenchmarkE14_ContentionScaling": "BenchmarkE14_ContentionScaling",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDistillMatchesSuffixFreeBaseline is the bench smoke on a multi-CPU
// host: go test names the benchmark BenchmarkX-2, a baseline recorded
// on one CPU names it BenchmarkX, and the diff must compare the two
// rather than list one added and one removed.
func TestDistillMatchesSuffixFreeBaseline(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(baseline, []byte(`{"bench": [
  {"name": "BenchmarkRuntimeTraceCheck/history=10", "ns_per_op": 7437, "allocs_per_op": 0}
]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	txt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(txt, []byte("BenchmarkRuntimeTraceCheck/history=10-2  \t 1\t 7500 ns/op\t 0 B/op\t 0 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var distilled bytes.Buffer
	if err := run([]string{"-distill", txt}, &distilled); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "new.json")
	if err := os.WriteFile(cur, distilled.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{baseline, cur}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# 1 compared") || !strings.Contains(out.String(), "0 added, 0 removed") {
		t.Fatalf("diff against the suffix-free baseline:\n%s", out.String())
	}
}

func TestRunDistillRoundTrips(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(txt, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-distill", txt}, &buf); err != nil {
		t.Fatal(err)
	}
	var s benchSummary
	mustUnmarshal(t, buf.String(), &s)
	if len(s.Bench) != 3 || s.Host.GoVersion == "" || s.Host.NumCPU == 0 {
		t.Fatalf("distilled summary = %+v", s)
	}
	// The distilled file loads back as a bench summary and diffs
	// against itself with zero regressions.
	out := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-fail-over", "1", out, out}, &buf); err != nil {
		t.Fatalf("self-diff errored: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "::warning") {
		t.Fatalf("self-diff warned:\n%s", buf.String())
	}
}

func loadFromBytes(t *testing.T, dir string, data []byte) (summary, error) {
	t.Helper()
	path := filepath.Join(dir, "roundtrip.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return load(path)
}

// --- cost tables ------------------------------------------------------

const costOld = `{
  "clauses": [
    {"perm":"read-f","path":"","clause":"(a & b)","evals":640,"decisive":640,"atoms":1280,"sampled_evals":10,"sampled_ns":10000,"mean_ns":1000},
    {"perm":"read-f","path":"l","clause":"a","evals":640,"decisive":100,"atoms":640,"sampled_evals":10,"sampled_ns":4000,"mean_ns":400},
    {"perm":"read-f","path":"r","clause":"b","evals":640,"decisive":0,"atoms":640,"sampled_evals":0,"sampled_ns":0,"mean_ns":0},
    {"perm":"gone","path":"","clause":"c","evals":1,"decisive":1,"atoms":1,"sampled_evals":1,"sampled_ns":50,"mean_ns":50}
  ],
  "amplification": {"prefix_evals":640,"scan_evals":640,"scan_entries":9000,"appends":320}
}`

const costNew = `{
  "clauses": [
    {"perm":"read-f","path":"","clause":"(a & b)","evals":640,"decisive":640,"atoms":1280,"sampled_evals":10,"sampled_ns":20000,"mean_ns":2000},
    {"perm":"read-f","path":"l","clause":"a","evals":640,"decisive":100,"atoms":640,"sampled_evals":10,"sampled_ns":3000,"mean_ns":300},
    {"perm":"read-f","path":"r","clause":"b","evals":640,"decisive":0,"atoms":640,"sampled_evals":0,"sampled_ns":0,"mean_ns":0},
    {"perm":"write-f","path":"","clause":"d","evals":2,"decisive":2,"atoms":2,"sampled_evals":1,"sampled_ns":70,"mean_ns":70}
  ],
  "amplification": {"prefix_evals":640,"scan_evals":640,"scan_entries":9000,"appends":320}
}`

// TestCompareCostClauseDeltas: cost tables diff per (perm, path) by
// sampled mean ns/eval; untimed rows (sampled_evals 0) are skipped as
// sampling noise, clause churn is reported as added/removed.
func TestCompareCostClauseDeltas(t *testing.T) {
	dir := t.TempDir()
	oldS, err := loadFromBytes(t, dir, []byte(costOld))
	if err != nil {
		t.Fatal(err)
	}
	if oldS.kind() != "cost" {
		t.Fatalf("kind = %q, want cost", oldS.kind())
	}
	newS, err := loadFromBytes(t, dir, []byte(costNew))
	if err != nil {
		t.Fatal(err)
	}
	deltas, added, removed := compareCost(oldS.cost, newS.cost)
	byKey := map[string]delta{}
	for _, d := range deltas {
		if !d.Gate {
			t.Fatalf("cost delta not gating: %+v", d)
		}
		byKey[d.Name] = d
	}
	// Root got 2x slower (+100%), the left subclause got faster, and
	// the untimed right subclause contributes no delta at all.
	if d := byKey["read-f/."]; d.Pct < 99 || d.Pct > 101 {
		t.Fatalf("root regression = %+v", d)
	}
	if d := byKey["read-f/l"]; d.Pct >= 0 {
		t.Fatalf("subclause improvement not negative: %+v", d)
	}
	if _, ok := byKey["read-f/r"]; ok {
		t.Fatalf("untimed clause diffed: %+v", byKey["read-f/r"])
	}
	if len(added) != 1 || added[0] != "write-f/." {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "gone/." {
		t.Fatalf("removed = %v", removed)
	}
}

// TestRunFailOverGatesCostRegressions: a clause-cost regression beyond
// -fail-over fails the build, exactly like ns/op.
func TestRunFailOverGatesCostRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "COST_old.json")
	newPath := filepath.Join(dir, "COST_new.json")
	if err := os.WriteFile(oldPath, []byte(costOld), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(costNew), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-fail-over", "50", oldPath, newPath}, &buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds -fail-over") {
		t.Fatalf("2x clause cost not gated: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := run([]string{oldPath, newPath}, &buf); err != nil {
		t.Fatalf("warn-only run errored: %v", err)
	}
	if !strings.Contains(buf.String(), "::warning") {
		t.Fatalf("no warning in warn-only mode:\n%s", buf.String())
	}
}

// TestCompareLoadCostCell: schema-3 load summaries carry a per-cell
// mean root evaluation price; it gates, and cells without it on either
// side simply omit the delta (schema-2 baselines keep working).
func TestCompareLoadCostCell(t *testing.T) {
	oldDoc := `{"schema":3,"runs":[
	  {"scenario":"s","system":"stac","throughput_ops_s":1000,"p99_us":100,"perf":{"cost":{"mean_root_ns":500}}},
	  {"scenario":"s","system":"rbac","throughput_ops_s":2000,"p99_us":50}]}`
	newDoc := `{"schema":3,"runs":[
	  {"scenario":"s","system":"stac","throughput_ops_s":1000,"p99_us":100,"perf":{"cost":{"mean_root_ns":1500}}},
	  {"scenario":"s","system":"rbac","throughput_ops_s":2000,"p99_us":50}]}`
	var oldS, newS loadSummary
	mustUnmarshal(t, oldDoc, &oldS)
	mustUnmarshal(t, newDoc, &newS)
	deltas, _, _ := compareLoad(oldS.Runs, newS.Runs)
	var costDeltas []delta
	for _, d := range deltas {
		if d.Unit == "root-ns" {
			costDeltas = append(costDeltas, d)
		}
	}
	if len(costDeltas) != 1 {
		t.Fatalf("cost deltas = %+v", costDeltas)
	}
	d := costDeltas[0]
	if d.Name != "s/stac" || !d.Gate || d.Pct < 199 || d.Pct > 201 {
		t.Fatalf("root-ns delta = %+v", d)
	}
}
