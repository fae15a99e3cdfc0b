package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one benchmark result line per run, with the given
// value of each metric in run i.
func writeRuns(t *testing.T, path string, metrics map[string][]float64) {
	t.Helper()
	var n int
	for _, vs := range metrics {
		n = len(vs)
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "progress text the run printed before its result\n")
		m := map[string]any{}
		for name, vs := range metrics {
			m[name] = map[string]any{"value": vs[i], "unit": "u"}
		}
		line, err := json.Marshal(map[string]any{"correct": true, "attempted": 100, "failed": 0, "metrics": m})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
}

func series(f func(i int) float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestABVerdicts runs the A/B over fixed inputs: ten pairs, one metric
// per verdict, directions and bounds from a BENCHMARK.json.
func TestABVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "stacd_cpu_us_per_decision", "better": "lower", "bound": 0.2},
		{"name": "decision_p99_ms", "better": "lower", "bound": 0.25},
		{"name": "stacd_peak_rss_mb", "better": "lower", "bound": 0.05},
		{"name": "decisions_per_s", "better": "higher", "bound": 0.2},
		{"name": "setup_s", "better": "lower", "bound": 0.25}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	parent, change := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	writeRuns(t, parent, map[string][]float64{
		"longtour/stacd_cpu_us_per_decision": series(func(i int) float64 { return 40 + float64(i) }),
		"longtour/decision_p99_ms":           series(func(i int) float64 { return float64(1 + i%2) }),
		"longtour/stacd_peak_rss_mb":         series(func(int) float64 { return 10 }),
		"longtour/decisions_per_s":           series(func(i int) float64 { return 1000 + float64(i) }),
		"longtour/setup_s":                   series(func(i int) float64 { return 1 + float64(i%3)/100 }),
	})
	writeRuns(t, change, map[string][]float64{
		"longtour/stacd_cpu_us_per_decision": series(func(i int) float64 { return 30 + float64(i) }),
		"longtour/decision_p99_ms":           series(func(int) float64 { return 1.5 }),
		"longtour/stacd_peak_rss_mb":         series(func(i int) float64 { return float64(10 + 2*(i%5)) }),
		"longtour/decisions_per_s":           series(func(i int) float64 { return 1010 + float64(i) }),
		"longtour/setup_s":                   series(func(i int) float64 { return 1 + float64((i+1)%3)/100 }),
	})
	specs, err := loadSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := loadRuns(parent)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := loadRuns(change)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]abRow{}
	for _, r := range compareAB(pr, cr, specs) {
		rows[strings.TrimPrefix(r.Metric, "longtour/")] = r
	}
	for name, want := range map[string]struct {
		verdict    string
		won        int
		pMed, pIQR float64
		cMed       float64
	}{
		// 10/10 pairs won, medians 44.5 → 34.5 apart by more than
		// the parent's IQR (46.75 − 42.25).
		"stacd_cpu_us_per_decision": {"gain", 10, 44.5, 4.5, 34.5},
		// The parent's own spread (IQR 1 on a median of 1.5) is
		// wider than the 25% bound.
		"decision_p99_ms": {"unresolved", 5, 1.5, 1, 1.5},
		// +40% against a 5% bound; a tied pair counts for neither side.
		"stacd_peak_rss_mb": {"worse", 0, 10, 0, 14},
		// Higher is better: every pair won and the IQR is 4.5.
		"decisions_per_s": {"gain", 10, 1004.5, 4.5, 1014.5},
		// Three pairs of ten won, equal medians: within the bound.
		"setup_s": {"within bound", 3, 1.01, 0.0175, 1.01},
	} {
		r, ok := rows[name]
		if !ok {
			t.Fatalf("no row for %s in %+v", name, rows)
		}
		if r.Verdict != want.verdict || r.Won != want.won || r.Pairs != 10 ||
			math.Abs(r.PMed-want.pMed) > 1e-9 || math.Abs(r.P3-r.P1-want.pIQR) > 1e-9 ||
			math.Abs(r.CMed-want.cMed) > 1e-9 {
			t.Fatalf("%s: %+v, want %+v", name, r, want)
		}
	}

	var out bytes.Buffer
	if err := runAB(parent, change, spec, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# parent: 10 runs, 10 correct, 0 of 1000 operations failed",
		"longtour/stacd_cpu_us_per_decision",
		"10/10  gain",
		"0/10  worse",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestABBetterAndUnevenRuns: a change whose every run beats every
// parent run is better even where the gain rule's IQR test fails, and
// files of uneven length compare their common pairs.
func TestABBetterAndUnevenRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "x_ms", "better": "lower"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	parent, change := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	// The parent's median 1 and IQR 36.75: the change's 0.1 gain is
	// no gain, though 0.9 beats every parent run.
	writeRuns(t, parent, map[string][]float64{"x_ms": {1, 50, 1, 1, 50, 1, 1, 50, 1, 1}, "layer_us": series(func(int) float64 { return 1 })})
	writeRuns(t, change, map[string][]float64{"x_ms": series(func(int) float64 { return 0.9 }), "layer_us": series(func(int) float64 { return 1 })})
	pr, err := loadRuns(parent)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := loadRuns(change)
	if err != nil {
		t.Fatal(err)
	}
	// layer_us is not an end-to-end metric of the spec: no row.
	if rows := compareAB(pr, cr, specs); len(rows) != 1 || rows[0].Verdict != "better" || rows[0].Won != 10 {
		t.Fatalf("rows = %+v", rows)
	}

	writeRuns(t, change, map[string][]float64{"x_ms": series(func(int) float64 { return 0.9 })[:9]})
	var out bytes.Buffer
	if err := runAB(parent, change, spec, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10 parent runs, 9 change runs: comparing the first 9 pairs") ||
		!strings.Contains(out.String(), "9/9") {
		t.Fatalf("report:\n%s", out.String())
	}
	if _, err := loadRuns(filepath.Join(dir, "none.json")); err == nil {
		t.Fatal("missing result file accepted")
	}
	if err := runAB(parent, change, filepath.Join(dir, "none.json"), &out); err == nil {
		t.Fatal("missing BENCHMARK.json accepted")
	}
}
