// Quickstart: build a two-server coalition, define a spatio-temporal
// policy, and launch a mobile agent whose SRAL program roams between
// the servers collecting execution proofs.
package main

import (
	"fmt"
	"log"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
)

func main() {
	// 1. A coalition: shared policy engine, proof signing key, and a
	// simulated continuous clock.
	clock := temporal.NewSimClock(0)
	coalition := server.NewCoalition(clock, []byte("quickstart-key"))

	// 2. Two coalition servers hosting shared resources.
	for _, id := range []model.ServerID{"s1", "s2"} {
		srv, err := coalition.AddServer(id)
		if err != nil {
			log.Fatal(err)
		}
		srv.HostResource("report", []byte("quarterly report hosted at "+string(id)))
	}

	// 3. A policy in the stacd text format: the courier role may read
	// anything, but at most three reads of the report are allowed
	// coalition-wide, within a 60-second validity budget.
	policy := `
user courier-1
role courier
permission p-read read * @ * {
    spatial  count(0, 3, sigma[r=report])
    duration 60s
    scheme   global
}
grant courier p-read
assign courier-1 courier
`
	if err := core.LoadPolicyString(coalition.Engine, policy); err != nil {
		log.Fatal(err)
	}

	// 4. The mobile object's program, written in SRAL: read the report
	// at s1, then twice at s2.
	program := sral.MustParse(`
		read report @ s1;
		read report @ s2;
		read report @ s2
	`)

	// 5. Launch the agent with a signed owner credential.
	cred := coalition.Signer.IssueCredential("courier-1", "owner@example.org", []string{"courier"})
	ag := agent.New("courier-1", cred, program, coalition.Signer)
	ag.Hooks.OnArrival = func(at model.ServerID) {
		fmt.Printf("arrived at %s (t=%.0fs)\n", at, clock.Now())
		clock.Advance(5)
	}
	ag.Hooks.OnAccess = func(a model.Access, data []byte) {
		fmt.Printf("  granted %s -> %q\n", a, data)
	}
	if err := agent.Launch(coalition, ag); err != nil {
		log.Fatal(err)
	}

	// 6. The agent carries verifiable execution proofs of everything
	// it did — the history other servers use for coordination.
	fmt.Printf("\ncollected %d execution proofs:\n", ag.Proofs.Len())
	for _, p := range ag.Proofs.View() {
		fmt.Printf("  t=%-4.0f %s\n", p.Time, p.Access)
	}

	// 7. A fourth read would exceed the spatial ceiling: the engine
	// denies it no matter which server receives the request.
	srv, _ := coalition.Server("s1")
	sub, err := srv.Authenticate(cred)
	if err != nil {
		log.Fatal(err)
	}
	_, err = srv.Request(sub, model.OpRead, "report", server.RequestContext{Store: ag.Proofs})
	fmt.Printf("\nfourth read: %v\n", err)
}
