package stac

// Full-stack integration scenarios: each test drives the public
// surface the way a deployment would — policy file in, coalition up,
// agents roaming (in-process and over TCP), decisions audited.

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/digraph"
	"stac/internal/model"
	"stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/server"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
	"stac/internal/workload"
)

const integrationPolicy = `
# Coalition-wide audit deployment.
user auditor-1
user auditor-2
role auditor
role lead-auditor
inherit lead-auditor auditor

permission p-audit read * @ * {
    spatial  count(0, 100, sigma[op=read])
    duration 500s
    scheme   global
}
permission p-seal write seal @ * {
    spatial  [auditor-1: read module/H @ *] >> [auditor-2: write seal @ *]
    mode     strict
    describe the lead seals the audit only after the last module was hashed
}
grant auditor p-audit
grant lead-auditor p-seal
assign auditor-1 auditor
assign auditor-2 lead-auditor

class audit-pool 1000s global p-audit p-seal
`

func buildIntegrationCoalition(t *testing.T) (*server.Coalition, *temporal.SimClock, *digraph.Graph) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("integration-key"))
	c.EnableLedger()
	if err := core.LoadPolicyString(c.Engine, integrationPolicy); err != nil {
		t.Fatal(err)
	}
	g := digraph.Figure1()
	for _, s := range g.ServersOf(g.Modules()) {
		if _, err := c.AddServer(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range g.Modules() {
		m, _ := g.Module(id)
		srv, _ := c.Server(m.Server)
		srv.HostResource(m.Resource(), m.Content)
	}
	sealHost, _ := c.Server("s1")
	sealHost.HostResource("seal", nil)
	return c, clk, g
}

// The flagship scenario: auditor-1 hashes the Figure 1 modules in
// dependency order; auditor-2's strict sealing permission is gated on
// auditor-1 having read the final module, coordinated purely through
// the ledger; both draw on one pooled validity class.
func TestIntegrationAuditThenSeal(t *testing.T) {
	c, clk, g := buildIntegrationCoalition(t)

	sealProg := sral.MustParse("wait(audited); write seal @ s1")
	lead := agent.New("auditor-2",
		c.Signer.IssueCredential("auditor-2", "lead@hq", []string{"lead-auditor"}),
		sealProg, c.Signer)

	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var steps []sral.Node
	for _, id := range order {
		m, _ := g.Module(id)
		steps = append(steps, sral.Prim{Op: model.OpRead, Resource: m.Resource(), Server: m.Server})
	}
	steps = append(steps, sral.Signal{Sig: "audited"})
	worker := agent.New("auditor-1",
		c.Signer.IssueCredential("auditor-1", "field@hq", []string{"auditor"}),
		sral.SeqOf(steps...), c.Signer)
	worker.Hooks.OnAccess = func(model.Access, []byte) { clk.Advance(1) }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = agent.Launch(c, lead) }()
	go func() { defer wg.Done(); _ = agent.Launch(c, worker) }()
	wg.Wait()

	if worker.Err() != nil {
		t.Fatalf("worker: %v", worker.Err())
	}
	if lead.Err() != nil {
		t.Fatalf("lead: %v", lead.Err())
	}
	if worker.Proofs.Len() != 8 || lead.Proofs.Len() != 1 {
		t.Fatalf("proofs = %d / %d", worker.Proofs.Len(), lead.Proofs.Len())
	}
	// The ledger saw all nine grants.
	if c.Ledger().Len() != 9 {
		t.Fatalf("ledger = %d", c.Ledger().Len())
	}
	// Audit logs across servers account for every grant.
	grants := 0
	for _, s := range c.Servers() {
		records, _ := s.Audit()
		for _, r := range records {
			if r.Granted {
				grants++
			}
		}
	}
	if grants != 9 {
		t.Fatalf("audited grants = %d", grants)
	}
	// The shared validity pool was consumed by both members.
	if got := c.Engine.ClassRemaining("auditor-1", "audit-pool"); got >= 1000 {
		t.Fatalf("pool untouched: %v", got)
	}
}

// Sealing without the audit is denied (strict gate), and the denial is
// audited with its reason.
func TestIntegrationSealWithoutAuditDenied(t *testing.T) {
	c, _, _ := buildIntegrationCoalition(t)
	lead := agent.New("auditor-2",
		c.Signer.IssueCredential("auditor-2", "lead@hq", []string{"lead-auditor"}),
		sral.MustParse("write seal @ s1"), c.Signer)
	err := agent.Launch(c, lead)
	if !errors.Is(err, server.ErrDenied) {
		t.Fatalf("ungated seal: %v", err)
	}
	s1, _ := c.Server("s1")
	records, _ := s1.Audit()
	found := false
	for _, r := range records {
		if !r.Granted && strings.Contains(r.Reason, "strict") {
			found = true
		}
	}
	if !found {
		t.Fatal("denial not audited with strict-mode reason")
	}
}

// The same deployment over TCP with the remote runtime: the worker's
// proofs travel on the wire, and the pooled validity budget expires
// mid-tour when the clock advances past the class duration.
func TestIntegrationRemoteRuntimeWithPoolExpiry(t *testing.T) {
	c, clk, g := buildIntegrationCoalition(t)
	addrs := map[model.ServerID]string{}
	for _, s := range c.Servers() {
		d := server.NewDaemon(s)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		addrs[s.ID()] = addr
	}
	rt := &agent.RemoteRuntime{Addrs: addrs}

	order, _ := g.TopoOrder()
	var steps []sral.Node
	for _, id := range order {
		m, _ := g.Module(id)
		steps = append(steps, sral.Prim{Op: model.OpRead, Resource: m.Resource(), Server: m.Server})
	}
	worker := agent.New("auditor-1",
		c.Signer.IssueCredential("auditor-1", "field@hq", []string{"auditor"}),
		sral.SeqOf(steps...), c.Signer)
	// Each hash consumes 200s of the 1000s pool: the 6th access
	// exceeds it (the permission itself allows 500s... the PermSpec
	// duration is overridden by the class pool of 1000s; 5×200 = 1000).
	worker.Hooks.OnAccess = func(model.Access, []byte) { clk.Advance(200) }
	err := rt.Launch(worker)
	if err == nil {
		t.Fatal("pool expiry not enforced over TCP")
	}
	if !strings.Contains(err.Error(), "active-but-invalid") {
		t.Fatalf("expiry reason: %v", err)
	}
	if worker.Proofs.Len() != 5 {
		t.Fatalf("proofs before expiry = %d", worker.Proofs.Len())
	}
}

// Carried proofs from the in-process run are honoured over TCP and
// vice versa: a device may switch transports mid-life.
func TestIntegrationTransportInterop(t *testing.T) {
	c, _, _ := buildIntegrationCoalition(t)
	s1, _ := c.Server("s1")
	d := server.NewDaemon(s1)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cred := c.Signer.IssueCredential("auditor-1", "field@hq", []string{"auditor"})
	store := proof.NewStore(c.Signer)

	// In-process access first.
	sub, err := s1.Authenticate(cred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Request(sub, model.OpRead, "module/A", server.RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	s1.Depart(sub)

	// Continue over TCP carrying the same store's proofs.
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ImportProofs(store.View())
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Access(model.OpRead, "module/D", "", nil); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.Proofs()); got != 2 {
		t.Fatalf("carried+new proofs = %d", got)
	}
}

// Randomised enforcement soundness: under random counting-ceiling
// policies and random roaming programs, every access history the
// coalition actually granted satisfies every permission's spatial
// constraint — regardless of whether the agent's run ended in a grant
// or a denial. This is the end-to-end counterpart of the checker-level
// property tests.
func TestIntegrationRandomisedEnforcementSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(2029))
	v := workload.DefaultVocabulary(3, 4)
	for trial := 0; trial < 25; trial++ {
		clk := temporal.NewSimClock(0)
		c := server.NewCoalition(clk, []byte("soundness-key"))
		for _, id := range v.Servers {
			srv, err := c.AddServer(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range v.Resources {
				srv.HostResource(res, []byte("x"))
			}
		}
		// A random ceiling over a random selector.
		sel := model.Selector{Resources: []model.ResourceID{v.Resources[r.Intn(len(v.Resources))]}}
		maxN := 1 + r.Intn(4)
		constraint := srac.AtMost(maxN, sel)
		if err := c.Engine.RBAC.AddUser("o1"); err != nil {
			t.Fatal(err)
		}
		if err := c.Engine.RBAC.AddRole("roam"); err != nil {
			t.Fatal(err)
		}
		if err := c.Engine.DefinePermission(core.PermSpec{
			Perm:    rbac.Permission{ID: "p-any"},
			Spatial: constraint,
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Engine.RBAC.GrantPermission("roam", "p-any"); err != nil {
			t.Fatal(err)
		}
		if err := c.Engine.RBAC.AssignUserRole("o1", "roam"); err != nil {
			t.Fatal(err)
		}

		prog := workload.Program(r, v, workload.ProgramOptions{
			Size: 12, LoopFraction: 0.2, ParFraction: 0.2,
		})
		cred := c.Signer.IssueCredential("o1", "owner", []string{"roam"})
		ag := agent.New("o1", cred, prog, c.Signer)
		ag.MaxSteps = 300
		_ = agent.Launch(c, ag) // denial is a legitimate outcome

		// Whatever was GRANTED must satisfy the ceiling.
		granted := trace.Trace(ag.Proofs.Trace())
		if !srac.SatisfiesTrace(granted, srac.StampObject(constraint, "o1"), nil) {
			t.Fatalf("trial %d: granted history violates the policy ceiling\nconstraint: %s\nhistory: %v\nprogram: %s",
				trial, srac.String(constraint), granted, sral.String(prog))
		}
	}
}
