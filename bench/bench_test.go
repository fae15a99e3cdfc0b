package main

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"testing"
)

// smokeScale runs about a tenth of each workload's work per repetition.
const smokeScale = 0.1

func readSpec(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func smokeConfig(t *testing.T, ws []workloadSpec) config {
	return config{root: "..", out: t.TempDir(), workloads: ws, seed: defaultSeed,
		sets: 1, scale: smokeScale}
}

// requireMetrics checks that got holds exactly the named metrics, each
// with its unit.
func requireMetrics(t *testing.T, where string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not in BENCHMARK.json", where, m.name)
		case unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, m.name, m.unit, unit)
		}
		seen[m.name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: metric %s is not emitted", where, name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, and checks the
// verdicts and that every metric of BENCHMARK.json is emitted.
func TestSmoke(t *testing.T) {
	bf := readSpec(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	cfg := smokeConfig(t, workloads)
	cfg.trace = true
	rn, err := newRunner(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rn.runAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		s := summarize(rs, w, -1)
		attempted, failed, verdictErrors := s.counts()
		if attempted == 0 || failed != 0 || verdictErrors != 0 {
			t.Errorf("%s: %d attempted, %d failed, %d verdict errors", w.name, attempted, failed, verdictErrors)
		}
		requireMetrics(t, w.name+" end to end", s.endToEnd(), endToEnd)
		requireMetrics(t, w.name+" per layer", s.perLayer(), perLayer)
		for _, m := range s.endToEnd() {
			if m.value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, m.value)
			}
		}
	}
}

// TestResultLine checks the last output line: one JSON object with
// exactly the result keys and the end-to-end metrics.
func TestResultLine(t *testing.T) {
	w, _ := workloadByName("longtour")
	var stdout bytes.Buffer
	if _, err := execute(smokeConfig(t, []workloadSpec{w}), &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(readSpec(t).EndToEnd) {
		t.Fatalf("result %+v", res)
	}
}

// TestOracleCatchesWrongCeiling gives the oracle a wrong K and expects
// verdict errors: the check is not vacuous.
func TestOracleCatchesWrongCeiling(t *testing.T) {
	w, _ := workloadByName("longtour")
	cfg := smokeConfig(t, []workloadSpec{w})
	cfg.oracleCeiling = 1
	rn, err := newRunner(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rn.runAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, verdictErrors := summarize(rs, w, -1).counts(); verdictErrors == 0 {
		t.Fatal("an oracle with K=1 reported no verdict errors")
	}
}

func TestWorkloadNamesMatchBenchmarkFile(t *testing.T) {
	var inFile, inCode []string
	for _, w := range readSpec(t).Workloads {
		inFile = append(inFile, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if strings.Join(inFile, ",") != strings.Join(inCode, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", inFile, inCode)
	}
}
