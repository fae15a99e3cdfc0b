package agent

// Fault-tolerance tests for the remote runtime: the agent's tour must
// survive injected dial failures, connection resets and partial
// writes without losing proofs or double-consuming budgets.

import (
	"errors"
	"net"
	"testing"
	"time"

	"stac/internal/faults"
	"stac/internal/model"
	"stac/internal/server"
)

// faultyRuntime builds a RemoteRuntime whose client-side transport
// goes through the injector.
func faultyRuntime(addrs map[model.ServerID]string, in *faults.Injector) *RemoteRuntime {
	return &RemoteRuntime{
		Addrs:   addrs,
		Retries: 25,
		Backoff: time.Millisecond,
		Seed:    7,
		Dial:    in.Dialer(nil),
	}
}

func TestRemoteRuntimeRetriesDialFailures(t *testing.T) {
	c, _ := newCoalition(t)
	addrs := startTCP(t, c)
	in := faults.New(faults.Config{Seed: 1, DialFailProb: 1, MaxFaults: 4})
	rt := faultyRuntime(addrs, in)
	ag := newAgent(t, c, "o1", "read f-s1 @ s1; read f-s2 @ s2")
	if err := rt.Launch(ag); err != nil {
		t.Fatalf("tour under dial failures: %v", err)
	}
	if ag.Proofs.Len() != 2 {
		t.Fatalf("proofs = %d", ag.Proofs.Len())
	}
	if in.Stats().DialFailures == 0 {
		t.Fatal("no dial failures were actually injected")
	}
}

func TestRemoteRuntimeSurvivesConnectionResets(t *testing.T) {
	c, _ := newCoalition(t)
	addrs := startTCP(t, c)
	in := faults.New(faults.Config{
		Seed:           3,
		WriteResetProb: 0.4,
		ReadResetProb:  0.2,
		ChunkProb:      0.5,
		MaxFaults:      8,
	})
	rt := faultyRuntime(addrs, in)
	ag := newAgent(t, c, "o1", "read f-s1 @ s1; read f-s2 @ s2; read f-s3 @ s3")
	if err := rt.Launch(ag); err != nil {
		t.Fatalf("tour under resets: %v (stats %+v)", err, in.Stats())
	}
	// Exactly one proof per logical access despite retries.
	if ag.Proofs.Len() != 3 {
		t.Fatalf("proofs = %d (stats %+v)", ag.Proofs.Len(), in.Stats())
	}
	for _, p := range ag.Proofs.View() {
		if err := c.Signer.Verify(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteRuntimeResetsDoNotDoubleConsumeBudget(t *testing.T) {
	// The rsw ceiling is 2 coalition-wide. Under heavy resets the
	// retried accesses must still consume exactly 2 units: replays
	// are idempotent, and the denial of the 3rd access is a genuine
	// engine verdict, not a retry artefact.
	c, _ := newCoalition(t)
	addrs := startTCP(t, c)
	in := faults.New(faults.Config{Seed: 11, WriteResetProb: 0.3, ReadResetProb: 0.3, MaxFaults: 10})
	rt := faultyRuntime(addrs, in)
	prog := `
		ch ! 3; ch ? x;
		while x > 0 do {
			if x == 3 then { read rsw @ s1 };
			if x == 2 then { read rsw @ s2 };
			if x == 1 then { read rsw @ s3 };
			ch ! x - 1; ch ? x
		}
	`
	ag := newAgent(t, c, "o1", prog)
	err := rt.Launch(ag)
	if err == nil {
		t.Fatal("3rd rsw access granted under faults")
	}
	if !errors.Is(err, server.ErrDenied) {
		t.Fatalf("tour error = %v, want a denial", err)
	}
	if ag.Proofs.Len() != 2 {
		t.Fatalf("proofs = %d, want exactly the ceiling of 2", ag.Proofs.Len())
	}
}

func TestRemoteRuntimeDeniedVerdictNotRetried(t *testing.T) {
	c, _ := newCoalition(t)
	addrs := startTCP(t, c)
	var dials int
	rt := &RemoteRuntime{
		Addrs:   addrs,
		Retries: 5,
		Backoff: time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			dials++
			return net.Dial("tcp", addr)
		},
	}
	// Unknown resource: a server verdict, not a transport failure.
	ag := newAgent(t, c, "o1", "read no-such-file @ s1")
	if err := rt.Launch(ag); err == nil {
		t.Fatal("unknown resource granted")
	}
	if dials != 1 {
		t.Fatalf("dials = %d; a server verdict must not trigger reconnects", dials)
	}
}

func TestRemoteRuntimeGivesUpAfterRetryBudget(t *testing.T) {
	c, _ := newCoalition(t)
	// All dials fail, forever.
	in := faults.New(faults.Config{Seed: 5, DialFailProb: 1})
	rt := &RemoteRuntime{
		Addrs:   startTCP(t, c),
		Retries: 2,
		Backoff: time.Millisecond,
		Dial:    in.Dialer(nil),
	}
	ag := newAgent(t, c, "o1", "read f-s1 @ s1")
	err := rt.Launch(ag)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("exhausted retries = %v, want the underlying injected fault", err)
	}
	if got := in.Stats().DialFailures; got != 3 {
		t.Fatalf("dial attempts = %d, want initial + 2 retries", got)
	}
}
