package server

import (
	"errors"
	"strings"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/proof"
	"stac/internal/temporal"
)

var key = []byte("coalition-key")

const testPolicy = `
user o1
role traveler
permission p-read read * @ * {
    spatial count(0, 2, sigma[r=rsw])
}
permission p-write write * @ *
grant traveler p-read
grant traveler p-write
assign o1 traveler
`

func newCoalition(t *testing.T) (*Coalition, *temporal.SimClock) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	if err := core.LoadPolicyString(c.Engine, testPolicy); err != nil {
		t.Fatal(err)
	}
	for _, id := range []model.ServerID{"s1", "s2"} {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		srv.HostResource("f-"+model.ResourceID(id), []byte("content of "+id))
		srv.HostResource("rsw", []byte("restricted"))
	}
	return c, clk
}

func cred(c *Coalition, obj, owner string, roles ...string) proof.Credential {
	return c.Signer.IssueCredential(model.ObjectID(obj), owner, roles)
}

func TestAddServerAndLookup(t *testing.T) {
	c, _ := newCoalition(t)
	if _, err := c.AddServer("s1"); err == nil {
		t.Fatal("duplicate server accepted")
	}
	srv, err := c.Server("s1")
	if err != nil || srv.ID() != "s1" {
		t.Fatalf("Server lookup: %v", err)
	}
	if _, err := c.Server("ghost"); !errors.Is(err, model.ErrUnknownServer) {
		t.Fatalf("unknown server: %v", err)
	}
	if got := len(c.Servers()); got != 2 {
		t.Fatalf("Servers = %d", got)
	}
	res := srv.Resources()
	if len(res) != 2 {
		t.Fatalf("Resources = %v", res)
	}
	// Registry advertises hosted resources.
	hosts := c.Registry.WhoHosts("rsw")
	if len(hosts) != 2 {
		t.Fatalf("WhoHosts(rsw) = %v", hosts)
	}
}

func TestAuthenticateFlow(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner@example", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Object != "o1" || sub.Owner != "owner@example" {
		t.Fatalf("subject = %+v", sub)
	}
	roles := sub.Session.ActiveRoles()
	if len(roles) != 1 || roles[0] != "traveler" {
		t.Fatalf("active roles = %v", roles)
	}
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d", c.Migrations())
	}
	srv.Depart(sub)
}

func TestAuthenticateFailures(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	// Forged credential (wrong key).
	forged := proof.NewSigner([]byte("attacker")).IssueCredential("o1", "owner", []string{"traveler"})
	if _, err := srv.Authenticate(forged); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("forged credential: %v", err)
	}
	// Unknown object.
	if _, err := srv.Authenticate(cred(c, "ghost", "owner", "traveler")); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("unknown object: %v", err)
	}
	// Role the object is not assigned.
	if _, err := srv.Authenticate(cred(c, "o1", "owner", "admin")); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("unassigned role: %v", err)
	}
}

func TestRequestGrantAndProof(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)
	res, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != "content of s1" {
		t.Fatalf("data = %q", res.Data)
	}
	if store.Len() != 1 {
		t.Fatal("proof not stored")
	}
	if err := c.Signer.Verify(res.Proof); err != nil {
		t.Fatalf("issued proof invalid: %v", err)
	}
	grants, denies := srv.Counters()
	if grants != 1 || denies != 0 {
		t.Fatalf("counters = %d/%d", grants, denies)
	}
}

// A granted access appends its proof to the object's store without a
// second HMAC only when the store is keyed by the coalition's signer;
// a store under another key still refuses it.
func TestRequestProofRefusedByRekeyedStore(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	rekeyed := proof.NewStore(proof.NewSigner([]byte("re-keyed")))
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: rekeyed}); !errors.Is(err, proof.ErrBadSignature) {
		t.Fatalf("re-keyed store: %v, want ErrBadSignature", err)
	}
	if rekeyed.Len() != 0 {
		t.Fatal("re-keyed store holds the proof")
	}
}

func TestRequestDenials(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	store := proof.NewStore(c.Signer)

	// Unknown resource.
	if _, err := srv.Request(sub, model.OpRead, "nope", RequestContext{Store: store}); !errors.Is(err, model.ErrUnknownResource) {
		t.Fatalf("unknown resource: %v", err)
	}
	// Operation not covered by any permission.
	if _, err := srv.Request(sub, "delete", "f-s1", RequestContext{Store: store}); !errors.Is(err, ErrDenied) {
		t.Fatalf("uncovered op: %v", err)
	}
	_, denies := srv.Counters()
	if denies != 2 {
		t.Fatalf("denies = %d", denies)
	}
}

func TestRequestCountCeilingAcrossServers(t *testing.T) {
	c, _ := newCoalition(t)
	s1, _ := c.Server("s1")
	s2, _ := c.Server("s2")
	store := proof.NewStore(c.Signer)

	sub1, _ := s1.Authenticate(cred(c, "o1", "owner", "traveler"))
	if _, err := s1.Request(sub1, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Request(sub1, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	s1.Depart(sub1)

	// Third access at the OTHER server: the proofs carried by the
	// object expose the earlier accesses, so the ceiling holds
	// coalition-wide.
	sub2, _ := s2.Authenticate(cred(c, "o1", "owner", "traveler"))
	_, err := s2.Request(sub2, model.OpRead, "rsw", RequestContext{Store: store})
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("cross-server ceiling: %v", err)
	}
	if !strings.Contains(err.Error(), "spatial") {
		t.Fatalf("denial reason: %v", err)
	}
	// Reading something else still works.
	if _, err := s2.Request(sub2, model.OpRead, "f-s2", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestWrite(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpWrite, "scratch", RequestContext{Store: store, Payload: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Request(sub, model.OpRead, "scratch", RequestContext{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != "v1" {
		t.Fatalf("read-after-write = %q", res.Data)
	}
}

func TestDepartPausesTemporalBudget(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	policy := `
user o1
role r
permission p read * @ * {
    duration 10s
    scheme global
}
grant r p
assign o1 r
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.AddServer("s1")
	srv.HostResource("f", []byte("x"))
	store := proof.NewStore(c.Signer)

	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "r"))
	clk.Advance(6)
	if _, err := srv.Request(sub, model.OpRead, "f", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	srv.Depart(sub) // 6s consumed
	clk.Advance(1000)

	sub, _ = srv.Authenticate(cred(c, "o1", "owner", "r"))
	clk.Advance(3) // 9s consumed
	if _, err := srv.Request(sub, model.OpRead, "f", RequestContext{Store: store}); err != nil {
		t.Fatalf("within budget after pause: %v", err)
	}
	clk.Advance(2) // 11s > 10s
	if _, err := srv.Request(sub, model.OpRead, "f", RequestContext{Store: store}); !errors.Is(err, ErrDenied) {
		t.Fatalf("budget exceeded: %v", err)
	}
}

// Companion coordination (Section 1: permissions may depend "even on
// the access actions of its companions"): with the coalition ledger
// enabled, o2's strict-mode permission is gated on an access o1
// performed at a DIFFERENT server — neither object ever showed the
// other its carried proofs.
func TestLedgerCoordinatesCompanions(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	c.EnableLedger()
	policy := `
user o1
user o2
role scout
role strike
permission p-mark write target @ *
permission p-strike execute target @ * {
    spatial [o1: write target @ *] >> [o2: execute target @ *]
    mode strict
}
grant scout p-mark
grant strike p-strike
assign o1 scout
assign o2 strike
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		t.Fatal(err)
	}
	s1, err := c.AddServer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.AddServer("s2")
	if err != nil {
		t.Fatal(err)
	}
	s1.HostResource("target", []byte("coords"))
	s2.HostResource("target", []byte("coords"))

	// o2 tries to strike before o1 marked: denied.
	sub2, err := s2.Authenticate(cred(c, "o2", "owner2", "strike"))
	if err != nil {
		t.Fatal(err)
	}
	store2 := proof.NewStore(c.Signer)
	if _, err := s2.Request(sub2, model.OpExecute, "target", RequestContext{Store: store2}); !errors.Is(err, ErrDenied) {
		t.Fatalf("ungated strike: %v", err)
	}

	// o1 marks the target at s1.
	sub1, err := s1.Authenticate(cred(c, "o1", "owner1", "scout"))
	if err != nil {
		t.Fatal(err)
	}
	store1 := proof.NewStore(c.Signer)
	if _, err := s1.Request(sub1, model.OpWrite, "target", RequestContext{Store: store1, Payload: []byte("marked")}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1)

	// Now o2's strike at s2 is granted, via the ledger alone.
	if _, err := s2.Request(sub2, model.OpExecute, "target", RequestContext{Store: store2}); err != nil {
		t.Fatalf("gated strike after companion action: %v", err)
	}
	if c.Ledger().Len() != 2 {
		t.Fatalf("ledger entries = %d", c.Ledger().Len())
	}
}

// Without the ledger, a strict cross-object constraint cannot be
// satisfied by the requester's own carried history.
func TestNoLedgerNoCompanionVisibility(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	policy := `
user o1
user o2
role strike
permission p-strike execute target @ * {
    spatial [o1: write target @ *] >> [o2: execute target @ *]
    mode strict
}
grant strike p-strike
assign o2 strike
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		t.Fatal(err)
	}
	s2, err := c.AddServer("s2")
	if err != nil {
		t.Fatal(err)
	}
	s2.HostResource("target", []byte("coords"))
	sub2, err := s2.Authenticate(cred(c, "o2", "owner2", "strike"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Request(sub2, model.OpExecute, "target", RequestContext{Store: proof.NewStore(c.Signer)}); !errors.Is(err, ErrDenied) {
		t.Fatalf("companion gate without ledger: %v", err)
	}
	if c.Ledger() != nil {
		t.Fatal("ledger should be nil by default")
	}
}

// The ledger deduplicates the requester's carried proofs (they are
// recorded in both places), so counting ceilings are not double-hit.
func TestLedgerDoesNotDoubleCountCarriedProofs(t *testing.T) {
	c, _ := newCoalition(t)
	c.EnableLedger()
	s1, _ := c.Server("s1")
	store := proof.NewStore(c.Signer)
	sub, _ := s1.Authenticate(cred(c, "o1", "owner", "traveler"))
	// The policy allows 2 rsw accesses; with double counting the 2nd
	// would already be denied.
	if _, err := s1.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatalf("2nd access double-counted: %v", err)
	}
	if _, err := s1.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); !errors.Is(err, ErrDenied) {
		t.Fatalf("3rd access: %v", err)
	}
}

// The paper's Section 4 premise: servers share no global clock. With
// heavily skewed server clocks, (a) per-object ordering constraints
// still hold because the carried proof store preserves the object's
// causal order, and (b) duration-based temporal budgets are unaffected
// because they accumulate on durations, not absolute instants.
func TestClockSkewDoesNotBreakEnforcement(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	policy := `
user o1
role worker
permission p-dep read dep @ *
permission p-mod read mod @ * {
    spatial [read dep @ *] >> [read mod @ *]
    mode strict
    duration 100s
    scheme global
}
grant worker p-dep
grant worker p-mod
assign o1 worker
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		t.Fatal(err)
	}
	s1, _ := c.AddServer("s1")
	s2, _ := c.AddServer("s2")
	s1.HostResource("dep", []byte("d"))
	s2.HostResource("mod", []byte("m"))
	// s1's clock is 1000s AHEAD of s2's: the dep proof's timestamp
	// will be far later than the mod request's local time.
	s1.SetClockSkew(+1000)
	s2.SetClockSkew(-1000)

	credential := cred(c, "o1", "owner", "worker")
	store := proof.NewStore(c.Signer)

	sub1, err := s1.Authenticate(credential)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Request(sub1, model.OpRead, "dep", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	s1.Depart(sub1)
	clk.Advance(5)

	sub2, err := s2.Authenticate(credential)
	if err != nil {
		t.Fatal(err)
	}
	// The causal order (dep then mod) is what the constraint sees,
	// despite the dep proof carrying a much LATER timestamp.
	if _, err := s2.Request(sub2, model.OpRead, "mod", RequestContext{Store: store}); err != nil {
		t.Fatalf("skewed clocks broke ordering enforcement: %v", err)
	}
	// Sanity: the timestamps really are inverted.
	ps := store.View()
	if len(ps) != 2 || ps[0].Time <= ps[1].Time {
		t.Fatalf("expected inverted timestamps, got %v then %v", ps[0].Time, ps[1].Time)
	}
	// Temporal budget still enforced on durations: 100s of activity.
	clk.Advance(200)
	if _, err := s2.Request(sub2, model.OpRead, "mod", RequestContext{Store: store}); !errors.Is(err, ErrDenied) {
		t.Fatalf("duration budget not enforced under skew: %v", err)
	}
}
