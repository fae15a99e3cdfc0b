package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stac/internal/testutil"
)

// End-to-end: the real matrix runner over real TCP, straight from the
// committed scenario files — one fleet-churn scenario and one
// hostile-client scenario against the coordinated engine and the RBAC
// baseline. Short time boxes keep this inside a few seconds; the
// TestMain leak check then requires every daemon, client and sampler
// the run booted to have fully drained.

func TestMain(m *testing.M) {
	testutil.Main(m)
}

func e2eOptions(only string, out string) cliOptions {
	return cliOptions{
		scenariosDir: "../../scenarios",
		systems:      []string{"stac", "rbac"},
		only:         only,
		trials:       1,
		durationCap:  600 * time.Millisecond,
		out:          out,
	}
}

func TestE2EChurnAndHostileMatrix(t *testing.T) {
	var buf bytes.Buffer
	sum, err := runMatrix(e2eOptions("churn,hostile", ""), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != 4 {
		t.Fatalf("runs = %d, want 2 scenarios x 2 systems", len(sum.Runs))
	}
	byCell := map[string]RunResult{}
	for _, r := range sum.Runs {
		byCell[r.Scenario+"/"+r.System] = r
		if r.Ops <= 0 || r.Grants <= 0 {
			t.Fatalf("cell %s/%s did no work: %+v", r.Scenario, r.System, r)
		}
		if r.ThroughputOpsS <= 0 || r.P50US <= 0 || r.P99US < r.P50US {
			t.Fatalf("cell %s/%s has nonsense stats: %+v", r.Scenario, r.System, r)
		}
		if r.Itineraries <= 0 {
			t.Fatalf("cell %s/%s completed no itineraries: %+v", r.Scenario, r.System, r)
		}
	}
	for _, cell := range []string{"churn/stac", "churn/rbac", "hostile/stac", "hostile/rbac"} {
		if _, ok := byCell[cell]; !ok {
			t.Fatalf("cell %s missing from summary", cell)
		}
	}
	// Hostile scenarios must actually provoke structured rejects and
	// exercise the replay path on both systems.
	for _, cell := range []string{"hostile/stac", "hostile/rbac"} {
		r := byCell[cell]
		if r.Rejects <= 0 {
			t.Fatalf("cell %s: hostile frames produced no rejects: %+v", cell, r)
		}
		if r.Replays <= 0 {
			t.Fatalf("cell %s: replay flood never ran: %+v", cell, r)
		}
	}
	// The STAC cells must have scraped daemon-side telemetry over
	// /debug/snapshot at least once.
	if r := byCell["churn/stac"]; r.MaxGoroutines <= 0 {
		t.Fatalf("churn/stac never sampled /debug/snapshot: %+v", r)
	}
	// STAC cells carry the hot-path attribution: the shard balance
	// and the slowest decision exemplars, each with a replayable ID.
	// Baselines have no engine telemetry to report.
	for _, cell := range []string{"churn/stac", "hostile/stac"} {
		p := byCell[cell].Perf
		if p == nil || p.ObjectImbalance <= 0 || len(p.SlowExemplars) == 0 {
			t.Fatalf("cell %s perf section incomplete: %+v", cell, p)
		}
		for _, ex := range p.SlowExemplars {
			if ex.DecisionID == "" {
				t.Fatalf("cell %s exemplar without decision ID: %+v", cell, ex)
			}
		}
		if p.SlowestDecisionID == "" || p.Exemplars == 0 {
			t.Fatalf("cell %s rollup incomplete: %+v", cell, p)
		}
	}
	if byCell["churn/rbac"].Perf != nil {
		t.Fatalf("rbac cell grew a perf section: %+v", byCell["churn/rbac"].Perf)
	}
}

// TestE2EPolicySizeSLOAndExemplars runs the policysize scenario — the
// committed cell with an slo_target_ms axis — and checks the perf
// section reports SLO health and the slowest decision exemplars.
func TestE2EPolicySizeSLOAndExemplars(t *testing.T) {
	var buf bytes.Buffer
	opts := e2eOptions("policysize", "")
	opts.systems = []string{"stac"}
	sum, err := runMatrix(opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != 1 {
		t.Fatalf("runs = %+v", sum.Runs)
	}
	p := sum.Runs[0].Perf
	if p == nil || p.SLOTargetMS != 5 {
		t.Fatalf("perf section = %+v", p)
	}
	// The SLO tracker observed every decision (burn rate may be 0 on a
	// fast box — only the denominator is load-independent).
	if p.SLOOverFraction < 0 || len(p.SlowExemplars) == 0 {
		t.Fatalf("SLO/exemplars: %+v", p)
	}
}

// TestE2ECountsEnforcementGap runs the tight-count scenario: the
// coordinated engine must start denying once the per-sigma budget is
// spent while plain RBAC keeps granting — the measured enforcement gap
// the comparison exists to show.
func TestE2ECountsEnforcementGap(t *testing.T) {
	var buf bytes.Buffer
	sum, err := runMatrix(e2eOptions("counts", ""), &buf)
	if err != nil {
		t.Fatal(err)
	}
	var stac, rbac RunResult
	for _, r := range sum.Runs {
		switch r.System {
		case "stac":
			stac = r
		case "rbac":
			rbac = r
		}
	}
	if stac.Denies == 0 {
		t.Fatalf("stac never denied under a 25-access budget: %+v", stac)
	}
	if rbac.Denies != 0 {
		t.Fatalf("rbac denied despite having no count model: %+v", rbac)
	}
}

func TestE2ERunWritesSummaryFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "LOAD_e2e.json")
	var buf bytes.Buffer
	err := run([]string{
		"-scenarios", "../../scenarios",
		"-systems", "stac",
		"-only", "burst",
		"-duration-cap", "400ms",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("summary not JSON: %v", err)
	}
	if sum.Schema != LoadSchemaVersion || len(sum.Runs) != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Host.GoVersion == "" || sum.Host.NumCPU == 0 {
		t.Fatalf("summary missing host fingerprint: %+v", sum.Host)
	}
	if !bytes.Contains(buf.Bytes(), []byte("burst")) {
		t.Fatalf("table missing scenario row:\n%s", buf.String())
	}
}
