package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/srac"
)

// exportedTrace builds a Chrome trace-event export from a real span
// tree so the renderer is exercised against what obs actually emits.
func exportedTrace(t *testing.T) (raw []byte, traceID string) {
	t.Helper()
	tr := obs.NewTracer(16)
	tc := tr.NewContext()
	root, ctx := tr.StartSpan(tc, "itinerary")
	root.SetService("agent")
	child, cctx := tr.StartSpan(ctx, "authorize")
	child.SetService("engine")
	child.SetAttr("decision_id", "d-0011223344556677")
	leaf, _ := tr.StartSpan(cctx, "prefix_eval")
	leaf.SetService("engine")
	leaf.Finish()
	child.Finish()
	root.Finish()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Store().Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tc.Trace.String()
}

func TestRenderChromeTrace(t *testing.T) {
	raw, id := exportedTrace(t)
	var out bytes.Buffer
	if err := renderChromeTrace(&out, raw, id); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "trace "+id+" (3 spans)") {
		t.Fatalf("header missing:\n%s", got)
	}
	// Indentation mirrors the span tree, services bracketed, the
	// decision attribute preserved.
	for _, want := range []string{
		"\n  itinerary [agent]",
		"\n    authorize [engine]",
		"\n      prefix_eval [engine]",
		"decision_id=d-0011223344556677",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("rendered tree lacks %q:\n%s", want, got)
		}
	}
	// Raw span-identity args stay out of the display.
	if strings.Contains(got, "span_id=") || strings.Contains(got, "trace_id=") {
		t.Fatalf("identity args leaked:\n%s", got)
	}

	// Filtering to an absent trace fails loudly.
	if err := renderChromeTrace(&bytes.Buffer{}, raw, "ffffffffffffffffffffffffffffffff"); err == nil {
		t.Fatal("absent trace rendered")
	}
	// Garbage input is an error, not a panic.
	if err := renderChromeTrace(&bytes.Buffer{}, []byte("not json"), ""); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestExplainWantsDecision(t *testing.T) {
	cases := []struct {
		args []string
		want bool
	}{
		{[]string{"-addr", "127.0.0.1:9090", "d-1"}, true},
		{[]string{"-addr=127.0.0.1:9090", "d-1"}, true},
		{[]string{"-wal", "decisions.wal", "d-1"}, true},
		{[]string{"-wal=decisions.wal", "d-1"}, true},
		{[]string{"-policy", "p.stac", "prog"}, false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := explainWantsDecision(tc.args); got != tc.want {
			t.Fatalf("explainWantsDecision(%v) = %v", tc.args, got)
		}
	}
}

// explainWAL runs `stacctl explain -wal path id` and returns its
// transcript.
func explainWAL(t *testing.T, path, id string) (string, error) {
	t.Helper()
	return captureStdout(t, func() error {
		return run([]string{"explain", "-wal", path, id})
	})
}

func TestExplainWALAndRender(t *testing.T) {
	x, err := json.Marshal(core.Explanation{
		Clause: "count(0, 2, sigma)",
		Detail: "count 3 exceeds ceiling 2",
		Counts: []srac.CountWindow{{Selector: "sigma", Min: 0, Max: 2, Observed: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	denial := record.Record{
		Schema:         record.SchemaVersion,
		Kind:           record.KindDecide,
		DecisionID:     "d-aaaaaaaaaaaaaaaa",
		TraceID:        "0102030405060708090a0b0c0d0e0f10",
		Time:           12,
		Server:         "s3",
		Object:         "dev-1",
		Op:             "read",
		Resource:       "doc",
		Perm:           "p-doc",
		Deny:           "spatial_violated",
		Reason:         "spatial constraint violated",
		Spatial:        "violated",
		ProgramVerdict: "accepted",
		Temporal:       "within budget",
		Explanation:    x,
	}
	grant := record.Record{Schema: record.SchemaVersion, Kind: record.KindDecide,
		DecisionID: "d-bbbbbbbbbbbbbbbb", Granted: true, Server: "s1"}
	arrive := record.Record{Schema: record.SchemaVersion, Kind: record.KindArrive,
		Object: "dev-1", Server: "s3"}

	var wal bytes.Buffer
	for _, r := range []record.Record{arrive, grant, denial} {
		if err := record.Encode(&wal, r); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.wal")
	if err := os.WriteFile(path, wal.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	// A found denial renders its violated clause and count windows.
	got, err := explainWAL(t, path, denial.DecisionID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"decision d-aaaaaaaaaaaaaaaa @ s3 — DENIED (spatial_violated)",
		"trace:    0102030405060708090a0b0c0d0e0f10",
		"access:   read doc @ s3 by dev-1 (t=12)",
		"perm:     p-doc",
		"violated clause: count(0, 2, sigma)",
		"detail:   count 3 exceeds ceiling 2",
		"window:   sigma: observed 3 of window [0,2]",
		"reason:   spatial constraint violated",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("transcript lacks %q:\n%s", want, got)
		}
	}
	if got, err := explainWAL(t, path, grant.DecisionID); err != nil || !strings.Contains(got, "— GRANTED") {
		t.Fatalf("grant transcript = %v:\n%s", err, got)
	}

	// A missing ID errors and names the file.
	if _, err := explainWAL(t, path, "d-0000000000000000"); err == nil ||
		!strings.Contains(err.Error(), "not found") || !strings.Contains(err.Error(), path) {
		t.Fatalf("missing-id error = %v", err)
	}

	// A malformed line that ends in a newline errors with its line
	// number, even when the decision lies past it.
	malformed := filepath.Join(dir, "malformed.wal")
	lines := strings.SplitAfter(wal.String(), "\n")
	content := lines[0] + "not json\n" + strings.Join(lines[1:], "")
	if err := os.WriteFile(malformed, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := explainWAL(t, malformed, denial.DecisionID); err == nil ||
		!strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), malformed) {
		t.Fatalf("malformed-line error = %v", err)
	}

	// A torn final line — a daemon killed mid-append — is dropped.
	torn := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(torn, append(wal.Bytes(), `{"schema":2,"seq":4,"ki`...), 0o600); err != nil {
		t.Fatal(err)
	}
	if got, err := explainWAL(t, torn, denial.DecisionID); err != nil || !strings.Contains(got, "DENIED") {
		t.Fatalf("torn-tail WAL: %v:\n%s", err, got)
	}

	// A daemon restarted on the torn WAL reopens it with OpenWAL, so
	// the records it appends next stay explainable, as do the old ones.
	f, err := record.OpenWAL(torn)
	if err != nil {
		t.Fatal(err)
	}
	later := record.Record{Schema: record.SchemaVersion, Kind: record.KindDecide,
		DecisionID: "d-cccccccccccccccc", Granted: true, Server: "s2"}
	err = record.Encode(f, later)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{denial.DecisionID, later.DecisionID} {
		if _, err := explainWAL(t, torn, id); err != nil {
			t.Fatalf("explain %s after a torn line and a restart: %v", id, err)
		}
	}
}
