package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/temporal"
)

const ctlPolicy = `user o1
role worker
permission p-read read * @ * {
    spatial count(0, 2, sigma[r=rsw])
}
grant worker p-read
assign o1 worker
`

// ctlCandidate tightens the rsw ceiling to zero.
const ctlCandidate = `user o1
role worker
permission p-read read * @ * {
    spatial count(0, 0, sigma[r=rsw])
}
grant worker p-read
assign o1 worker
`

// writeCtlWAL records a short live run — two granted rsw reads, one
// ceiling denial — and returns the WAL path.
func writeCtlWAL(t *testing.T) string {
	t.Helper()
	c := server.NewCoalition(temporal.NewSimClock(0), []byte("ctl-key"))
	if err := core.LoadPolicyString(c.Engine, ctlPolicy); err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 64, WAL: &wal, Registry: obs.NewRegistry()}))
	srv, err := c.AddServer("s1")
	if err != nil {
		t.Fatal(err)
	}
	srv.HostResource("rsw", []byte("restricted"))
	sub, err := srv.Authenticate(c.Signer.IssueCredential("o1", "owner", []string{"worker"}))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)
	for i := 0; i < 2; i++ {
		if _, err := srv.Request(sub, model.OpRead, "rsw", server.RequestContext{Store: store}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Request(sub, model.OpRead, "rsw", server.RequestContext{Store: store}); err == nil {
		t.Fatal("third rsw read should be denied")
	}
	path := filepath.Join(t.TempDir(), "decisions.wal")
	if err := os.WriteFile(path, wal.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs fn with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	return <-done, runErr
}

func TestReplayVerbDeterministic(t *testing.T) {
	wal := writeCtlWAL(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"replay", "-wal", wal, "-policy", ctlPolicy, "-coverage"})
	})
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "deterministic: every verdict reproduced") {
		t.Fatalf("replay output:\n%s", out)
	}
	if !strings.Contains(out, "3 decisions") {
		t.Errorf("decision count missing:\n%s", out)
	}
	// -coverage prints the ceiling clause, decisive on every decision.
	if !strings.Contains(out, "count(0, 2, sigma[") {
		t.Errorf("coverage table missing the ceiling clause:\n%s", out)
	}
	if !strings.Contains(out, "EVAL") || !strings.Contains(out, "PEND") || !strings.Contains(out, "DECISIVE") {
		t.Errorf("coverage table missing its header:\n%s", out)
	}
}

func TestReplayVerbPolicyMismatch(t *testing.T) {
	wal := writeCtlWAL(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"replay", "-wal", wal, "-policy", ctlCandidate})
	})
	if err != nil {
		t.Fatalf("mismatched replay should warn, not error: %v", err)
	}
	if !strings.Contains(out, "policy digest mismatch") || !strings.Contains(out, "not comparable") {
		t.Fatalf("replay output:\n%s", out)
	}
}

func TestDiffVerbReportsFlips(t *testing.T) {
	wal := writeCtlWAL(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"diff", "-wal", wal, "-policy", ctlCandidate})
	})
	if err != nil {
		t.Fatalf("diff: %v\n%s", err, out)
	}
	if !strings.Contains(out, "GRANT->DENY") {
		t.Fatalf("diff output has no grant→deny flip:\n%s", out)
	}
	// The flip names the tightened ceiling clause.
	if !strings.Contains(out, "count(0, 0") {
		t.Fatalf("flip not attributed to the changed clause:\n%s", out)
	}
	if !strings.Contains(out, "verdicts flip under the candidate policy") {
		t.Fatalf("diff summary missing:\n%s", out)
	}

	// Identical policy: no flips.
	out, err = captureStdout(t, func() error {
		return run([]string{"diff", "-wal", wal, "-policy", ctlPolicy})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no verdict changes") {
		t.Fatalf("self-diff output:\n%s", out)
	}
}

func TestReplayDiffArgErrors(t *testing.T) {
	wal := writeCtlWAL(t)
	for _, args := range [][]string{
		{"replay"},
		{"replay", "-wal", wal},
		{"replay", "-policy", ctlPolicy},
		{"diff", "-wal", wal},
		{"replay", "-wal", filepath.Join(t.TempDir(), "missing.wal"), "-policy", ctlPolicy},
		{"replay", "-wal", wal, "-policy", "permission q read f @ * {\nmode sometimes\n}"},
	} {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("%v succeeded", args)
		}
	}
}
