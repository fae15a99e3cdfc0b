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

// goldenAttributionTable renders 500 seeded random constraints ×
// random histories through Attribute, one JSON line per case. Every
// fifth case marks one history entry unproven, so the proof oracle
// reaches the leaf details and count windows too.
func goldenAttributionTable() []byte {
	r := rand.New(rand.NewSource(509))
	pool := []model.Access{
		model.NewAccess("", "read", "f1", "s1"),
		model.NewAccess("", "write", "f2", "s1"),
		model.NewAccess("", "read", "f3", "s2"),
		model.NewAccess("", "execute", "rsw", "s2"),
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < 500; i++ {
		var hist trace.Trace
		for j := 0; j < r.Intn(7); j++ {
			hist = append(hist, pool[r.Intn(len(pool))])
		}
		c := randomFullConstraint(r, 1+r.Intn(3))
		row := goldenAttribution{Constraint: String(c)}
		var oracle ProofOracle
		if i%5 == 0 && len(hist) > 0 {
			k := r.Intn(len(hist))
			unproven := hist[k]
			row.Unproven = []int{k}
			oracle = OracleFunc(func(a model.Access) bool { return a != unproven })
		}
		for _, a := range hist {
			row.History = append(row.History, a.String())
		}
		a := Attribute(hist, c, oracle)
		row.Status = a.Status.String()
		row.Stable = a.Stable
		row.Clause = a.ClauseString()
		row.Detail = a.Detail
		row.Counts = a.Counts
		if err := enc.Encode(row); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// TestAttributeGolden pins Attribute's full output — status,
// stability, attributed clause, detail text and count windows — over a
// seeded corpus, byte for byte. The table was captured from the
// dedicated attribution walker before attribution became a projection
// of the cost walk; `go test -run TestAttributeGolden -update`
// rewrites it after an intended change.
func TestAttributeGolden(t *testing.T) {
	path := filepath.Join("testdata", "attribute_golden.jsonl")
	got := goldenAttributionTable()
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
			t.Fatalf("attribution case %d diverges from the golden table:\n got %s\nwant %s", i, gl[i], wl[i])
		}
	}
	t.Fatalf("attribution table has %d lines, golden %d", len(gl), len(wl))
}
