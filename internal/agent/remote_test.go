package agent

import (
	"errors"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/server"
)

// startTCP exposes every coalition server over TCP and returns the
// address map a RemoteRuntime needs.
func startTCP(t *testing.T, c *server.Coalition) map[model.ServerID]string {
	t.Helper()
	addrs := make(map[model.ServerID]string)
	for _, s := range c.Servers() {
		d := server.NewDaemon(s)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		addrs[s.ID()] = addr
	}
	return addrs
}

func TestRemoteRuntimeRoams(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	ag := newAgent(t, c, "o1", "read f-s1 @ s1; read f-s2 @ s2; read f-s3 @ s3")
	var data []string
	ag.Hooks.OnAccess = func(a model.Access, d []byte) { data = append(data, string(d)) }
	if err := rt.Launch(ag); err != nil {
		t.Fatal(err)
	}
	if ag.Proofs.Len() != 3 {
		t.Fatalf("proofs = %d", ag.Proofs.Len())
	}
	if len(data) != 3 || data[0] != "data@s1" || data[2] != "data@s3" {
		t.Fatalf("data = %v", data)
	}
	if got := ag.Visited(); len(got) != 3 || got[0] != "s1" {
		t.Fatalf("visited = %v", got)
	}
	// Every carried proof verifies under the coalition key.
	for _, p := range ag.Proofs.View() {
		if err := c.Signer.Verify(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteRuntimeEnforcesCeilingAcrossConnections(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	// 3rd rsw access must be denied at a server the device never
	// visited, because the carried proofs travel over the wire. A
	// loop keeps the program statically admissible.
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
		t.Fatal("3rd rsw access granted over TCP")
	}
	if ag.Proofs.Len() != 2 {
		t.Fatalf("proofs = %d", ag.Proofs.Len())
	}
}

func TestRemoteRuntimeStaticCheckOverWire(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	// The program text travels with each request; the straight-line
	// 3×rsw program is rejected before any access.
	ag := newAgent(t, c, "o1", "read rsw @ s1; read rsw @ s1; read rsw @ s1")
	if err := rt.Launch(ag); err == nil {
		t.Fatal("statically invalid program accepted over TCP")
	}
	if ag.Proofs.Len() != 0 {
		t.Fatalf("proofs = %d", ag.Proofs.Len())
	}
}

func TestRemoteRuntimeParallelBranches(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	ag := newAgent(t, c, "o1", "read f-s1 @ s1 || read f-s2 @ s2")
	if err := rt.Launch(ag); err != nil {
		t.Fatal(err)
	}
	if ag.Proofs.Len() != 2 {
		t.Fatalf("proofs = %d", ag.Proofs.Len())
	}
}

func TestRemoteRuntimeChannelsAndSignals(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	prog := `
		{ ch ! 7; wait(done) } || { ch ? x; read f-s1 @ s1; signal(done) }
	`
	ag := newAgent(t, c, "o1", prog)
	if err := rt.Launch(ag); err != nil {
		t.Fatal(err)
	}
	if ag.Vars().Get("x") != 7 {
		t.Fatalf("x = %d", ag.Vars().Get("x"))
	}
}

func TestRemoteRuntimeErrors(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	cred := c.Signer.IssueCredential("o1", "owner", []string{"traveler"})
	// No program.
	ag := New("o1", cred, nil, c.Signer)
	if err := rt.Launch(ag); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("nil program: %v", err)
	}
	// Unknown server address.
	ag2 := newAgent(t, c, "o1", "read f @ nowhere")
	if err := rt.Launch(ag2); !errors.Is(err, model.ErrUnknownServer) {
		t.Fatalf("unknown server: %v", err)
	}
	// Unreachable address.
	rtBad := &RemoteRuntime{Addrs: map[model.ServerID]string{"s1": "127.0.0.1:1"}}
	ag3 := newAgent(t, c, "o1", "read f-s1 @ s1")
	if err := rtBad.Launch(ag3); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

func TestRemoteRuntimeAbort(t *testing.T) {
	c, _ := newCoalition(t)
	rt := &RemoteRuntime{Addrs: startTCP(t, c)}
	ag := newAgent(t, c, "o1", "read f-s1 @ s1; never ? x")
	done := make(chan error, 1)
	go func() { done <- rt.Launch(ag) }()
	for i := 0; i < 200 && ag.Proofs.Len() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	ag.Abort()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted remote agent finished cleanly")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aborted remote agent hung")
	}
}
