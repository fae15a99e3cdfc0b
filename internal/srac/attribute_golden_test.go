package srac

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenAttribution is one row of testdata/attribute_golden.jsonl: a
// constraint, a history (with the proven bit of each entry) and the
// attribution Attribute reports for them.
type goldenAttribution struct {
	Constraint string        `json:"constraint"`
	History    []string      `json:"history"`
	Unproven   []int         `json:"unproven,omitempty"`
	Status     string        `json:"status"`
	Stable     bool          `json:"stable"`
	Clause     string        `json:"clause"`
	Detail     string        `json:"detail"`
	Counts     []CountWindow `json:"counts,omitempty"`
}

// goldenCase is one seeded (constraint, history, oracle) case of the
// golden corpus; unproven lists the history position whose access the
// oracle refuses to attest (at every occurrence).
type goldenCase struct {
	c        Constraint
	hist     trace.Trace
	unproven []int
	oracle   ProofOracle
}

// goldenCorpus draws 500 seeded random constraints × random histories.
// Every fifth case marks one history entry unproven, so the proof
// oracle reaches the leaf details and count windows too. Every golden
// table in this package renders this one corpus.
func goldenCorpus() []goldenCase {
	r := rand.New(rand.NewSource(509))
	pool := []model.Access{
		model.NewAccess("", "read", "f1", "s1"),
		model.NewAccess("", "write", "f2", "s1"),
		model.NewAccess("", "read", "f3", "s2"),
		model.NewAccess("", "execute", "rsw", "s2"),
	}
	out := make([]goldenCase, 0, 500)
	for i := 0; i < 500; i++ {
		var gc goldenCase
		for j := 0; j < r.Intn(7); j++ {
			gc.hist = append(gc.hist, pool[r.Intn(len(pool))])
		}
		gc.c = randomFullConstraint(r, 1+r.Intn(3))
		if i%5 == 0 && len(gc.hist) > 0 {
			k := r.Intn(len(gc.hist))
			unproven := gc.hist[k]
			gc.unproven = []int{k}
			gc.oracle = OracleFunc(func(a model.Access) bool { return a != unproven })
		}
		out = append(out, gc)
	}
	return out
}

func (gc goldenCase) historyStrings() []string {
	var out []string
	for _, a := range gc.hist {
		out = append(out, a.String())
	}
	return out
}

// goldenAttributionTable renders the golden corpus through Attribute,
// one JSON line per case.
func goldenAttributionTable() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, gc := range goldenCorpus() {
		a := Attribute(gc.hist, gc.c, gc.oracle)
		row := goldenAttribution{
			Constraint: String(gc.c),
			History:    gc.historyStrings(),
			Unproven:   gc.unproven,
			Status:     a.Status.String(),
			Stable:     a.Stable,
			Clause:     a.ClauseString(),
			Detail:     a.Detail,
			Counts:     a.Counts,
		}
		if err := enc.Encode(row); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// goldenNode is one node of a testdata/cost_nodes_golden.jsonl row:
// the per-clause record coverage and cost fold, minus the timing.
type goldenNode struct {
	Path     string `json:"path"`
	Status   string `json:"status"`
	Stable   bool   `json:"stable"`
	Decisive bool   `json:"decisive"`
	Atoms    int    `json:"atoms"`
}

// goldenCostNodes is one row of testdata/cost_nodes_golden.jsonl: a
// corpus case and the per-node records of its evaluation, pre-order.
type goldenCostNodes struct {
	Constraint string       `json:"constraint"`
	History    []string     `json:"history"`
	Unproven   []int        `json:"unproven,omitempty"`
	Nodes      []goldenNode `json:"nodes"`
}

// goldenCostNodesTable renders the golden corpus through one untimed
// evaluation per case, one JSON line per case: each record under its
// clause path, with the decisive node marked.
func goldenCostNodesTable() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, gc := range goldenCorpus() {
		row := goldenCostNodes{
			Constraint: String(gc.c),
			History:    gc.historyStrings(),
			Unproven:   gc.unproven,
		}
		var paths []string
		WalkPaths(gc.c, func(path string, _ Constraint) { paths = append(paths, path) })
		nodes := Evaluate(gc.hist, gc.c, gc.oracle, nil, false)
		decisive := Decisive(gc.c, nodes)
		for i, n := range nodes {
			row.Nodes = append(row.Nodes, goldenNode{
				Path: paths[i], Status: n.Status.String(), Stable: n.Stable,
				Decisive: i == decisive, Atoms: n.Atoms,
			})
		}
		if err := enc.Encode(row); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// TestAttributeGolden pins Attribute's full output — status,
// stability, attributed clause, detail text and count windows — over
// the golden corpus, byte for byte. The table was captured from the
// dedicated attribution walker before attribution became a projection
// of one evaluation; `go test -run TestAttributeGolden -update`
// rewrites it after an intended change.
func TestAttributeGolden(t *testing.T) {
	checkGolden(t, "attribute_golden.jsonl", goldenAttributionTable())
}

// TestCostNodesGolden pins every node's (path, status, stable,
// decisive, atoms) — what coverage and cost fold per clause — over the
// golden corpus, byte for byte. The table was captured from the
// dedicated cost walk before cost became a projection of one
// evaluation; `go test -run TestCostNodesGolden -update` rewrites it.
func TestCostNodesGolden(t *testing.T) {
	checkGolden(t, "cost_nodes_golden.jsonl", goldenCostNodesTable())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("case %d diverges from %s:\n got %s\nwant %s", i, name, gl[i], wl[i])
		}
	}
	t.Fatalf("table has %d lines, %s %d", len(gl), name, len(wl))
}
