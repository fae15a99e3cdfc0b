package stac

// Cost-profile baseline artifact: a fixed spatially-constrained
// workload against one coordinated engine with coverage and cost
// profiling on (the production default). The resulting per-clause
// cost report is written as COST.json when ARTIFACTS_DIR is set;
// ci.sh diffs it against the committed baseline with `benchdiff`
// (cost format), so a structural regression — a clause evaluated more
// often per decision, or far costlier per evaluation — surfaces even
// when raw nanoseconds are machine-noisy.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

const costArtifactPolicy = `
user o1
role worker
permission p-scan read f @ * {
    spatial count(0, 64, sigma[op=read]) and ([read dep @ *] -> ([read dep @ *] >> [read f @ *]))
}
permission p-count write log @ * {
    spatial count(0, inf, sigma[op=write])
}
grant worker p-scan
grant worker p-count
assign o1 worker
`

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestCostBaselineArtifact(t *testing.T) {
	e := core.NewEngine(temporal.NewSimClock(0))
	e.SetObs(obs.NewRegistry())
	if err := core.LoadPolicyString(e, costArtifactPolicy); err != nil {
		t.Fatal(err)
	}
	e.EnableCostProfiling()
	e.EnableCostProfiling()
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("worker"); err != nil {
		t.Fatal(err)
	}

	// 640 decisions per permission: with 1-in-64 sampling that pins
	// ≥10 timed evaluations per clause, enough for a stable-ish mean.
	// The requests are bare (no proof store owns their history), so
	// every evaluation advances a fresh monitor state over the 4-entry
	// history plus the access; every grant is recorded, as a server
	// records it.
	hist := trace.Trace{
		model.NewAccess("o1", "read", "dep", "s1"),
		model.NewAccess("o1", "read", "f", "s1"),
		model.NewAccess("o1", "read", "dep", "s1"),
		model.NewAccess("o1", "read", "f", "s1"),
	}
	prog := sral.MustParse("read f @ s1; write log @ s1")
	// Each permission runs in its own burst: the 1-in-64 tick is a
	// collector-global counter, so a strictly alternating workload
	// would alias every sampled tick onto the same permission.
	const perPerm = 640
	for _, acc := range []model.Access{
		model.NewAccess("o1", "read", "f", "s1"),
		model.NewAccess("o1", "write", "log", "s1"),
	} {
		for i := 0; i < perPerm; i++ {
			req := core.Request{Session: sess, Access: acc, History: hist}
			if i == 0 {
				req.Program = prog // one static check per permission
			}
			d := e.Authorize(req)
			if !d.Granted {
				t.Fatalf("decision %d for %s denied: %s", i, acc.Resource, d.Reason)
			}
			e.RecordGrant(acc)
		}
	}

	rep := e.CostReport()
	if len(rep.Clauses) == 0 {
		t.Fatal("no clause cost rows")
	}
	roots := 0
	for _, cc := range rep.Clauses {
		if cc.Path != "" {
			continue
		}
		roots++
		if cc.Evals != perPerm {
			t.Fatalf("%s root evals = %d, want %d", cc.Perm, cc.Evals, perPerm)
		}
		if cc.SampledEvals < perPerm/64 || cc.SampledNS <= 0 {
			t.Fatalf("%s root sampling = %d evals / %d ns", cc.Perm, cc.SampledEvals, cc.SampledNS)
		}
	}
	if roots != 2 {
		t.Fatalf("root clause rows = %d, want one per permission", roots)
	}

	// The clause coverage of this workload is timing-free, so it is
	// pinned byte for byte: the table was captured while coverage still
	// had its own cell table and its own row type, and the cost rows'
	// coverage columns must reproduce it under that type's keys.
	type coverageRow struct {
		Perm      string `json:"perm"`
		Path      string `json:"path"`
		Clause    string `json:"clause"`
		Evaluated int64  `json:"evaluated"`
		Satisfied int64  `json:"satisfied"`
		Violated  int64  `json:"violated"`
		Pending   int64  `json:"pending"`
		Decisive  int64  `json:"decisive"`
	}
	rows := make([]coverageRow, len(rep.Clauses))
	for i, cc := range rep.Clauses {
		rows[i] = coverageRow{cc.Perm, cc.Path, cc.Clause, cc.Evals, cc.Satisfied, cc.Violated, cc.Pending, cc.Decisive}
	}
	cov, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	cov = append(cov, '\n')
	golden := filepath.Join("testdata", "cost_artifact_coverage.json")
	if *updateGolden {
		if err := os.WriteFile(golden, cov, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cov, want) {
		t.Fatalf("coverage diverges from %s:\n got %s\nwant %s", golden, cov, want)
	}

	if dir := os.Getenv("ARTIFACTS_DIR"); dir != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "COST.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
