package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
)

func TestDumpPolicyRoundTrip(t *testing.T) {
	e := NewEngine(temporal.NewSimClock(0))
	if err := LoadPolicyString(e, samplePolicy); err != nil {
		t.Fatal(err)
	}
	dumped := DumpPolicy(e)
	// The dump re-imports into an equivalent engine.
	e2 := NewEngine(temporal.NewSimClock(0))
	if err := LoadPolicyString(e2, dumped); err != nil {
		t.Fatalf("re-import failed: %v\n---\n%s", err, dumped)
	}
	u1, r1, p1, _ := e.RBAC.Stats()
	u2, r2, p2, _ := e2.RBAC.Stats()
	if u1 != u2 || r1 != r2 || p1 != p2 {
		t.Fatalf("stats diverged: %d/%d/%d vs %d/%d/%d", u1, r1, p1, u2, r2, p2)
	}
	// Specs survive the round trip.
	for _, id := range []string{"p-audit", "p-rsw", "p-plain"} {
		a, err := e.Spec(rbac.PermID(id))
		if err != nil {
			t.Fatal(err)
		}
		b, err := e2.Spec(rbac.PermID(id))
		if err != nil {
			t.Fatalf("spec %s lost: %v\n---\n%s", id, err, dumped)
		}
		if a.duration() != b.duration() || a.Scheme != b.Scheme || a.Mode != b.Mode {
			t.Fatalf("spec %s changed: %+v vs %+v", id, a, b)
		}
		sa, sb := "", ""
		if a.Spatial != nil {
			sa = srac.String(a.Spatial)
		}
		if b.Spatial != nil {
			sb = srac.String(b.Spatial)
		}
		if sa != sb {
			t.Fatalf("spatial %s changed: %q vs %q", id, sa, sb)
		}
	}
	// Structural directives appear in the text.
	for _, want := range []string{"inherit admin auditor", "ssd no-admin-reader 2", "dsd no-dual 2", "grant auditor p-audit"} {
		if !strings.Contains(dumped, want) {
			t.Fatalf("dump missing %q:\n%s", want, dumped)
		}
	}
	// A third generation dump is textually stable (fixed point).
	if d2 := DumpPolicy(e2); d2 != dumped {
		t.Fatalf("dump not stable:\n%s\n---\n%s", dumped, d2)
	}
}

func TestDumpPolicyWithClassesAndModes(t *testing.T) {
	e := NewEngine(nil)
	policy := `
role worker
permission p-a write a @ s1 {
    spatial [write a @ s1] >> [write b @ *]
    mode strict
    duration 90s
    scheme per-server
    describe two-phase write
}
permission p-b write b @ *
grant worker p-a
class pool-1 5m global p-a p-b
`
	if err := LoadPolicyString(e, policy); err != nil {
		t.Fatal(err)
	}
	dumped := DumpPolicy(e)
	for _, want := range []string{"mode     strict", "duration 90s", "scheme   per-server",
		"describe two-phase write", "class pool-1 5m global p-a p-b"} {
		if !strings.Contains(dumped, want) {
			t.Fatalf("dump missing %q:\n%s", want, dumped)
		}
	}
	e2 := NewEngine(nil)
	if err := LoadPolicyString(e2, dumped); err != nil {
		t.Fatalf("re-import: %v\n%s", err, dumped)
	}
	c, ok := e2.ClassOf("p-a")
	if !ok || c.Duration != 300 {
		t.Fatalf("class lost: %+v %v", c, ok)
	}
}

// TestPolicyDigestMemoTracksEveryMutation: the memoised digest equals a
// fresh render after every kind of mutation the dump renders, including
// those that do not change a session's permissions (users, roles,
// separation-of-duty constraints); an unchanged policy is served from
// the memo without rendering; and a digest read while the policy
// changes under it settles on the final policy.
func TestPolicyDigestMemoTracksEveryMutation(t *testing.T) {
	e := NewEngine(temporal.NewSimClock(0))
	if err := LoadPolicyString(e, samplePolicy); err != nil {
		t.Fatal(err)
	}
	fresh := func() string {
		sum := sha256.Sum256([]byte(DumpPolicy(e)))
		return hex.EncodeToString(sum[:])
	}
	mutations := []struct {
		name string
		do   func() error
	}{
		{"AddUser", func() error { return e.RBAC.AddUser("u-new") }},
		{"AddRole", func() error { return e.RBAC.AddRole("r-new") }},
		{"AddRole junior", func() error { return e.RBAC.AddRole("r-junior") }},
		{"DefinePermission", func() error {
			return e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: "p-new", Op: "read", Resource: "fx"}, Duration: 30})
		}},
		{"GrantPermission", func() error { return e.RBAC.GrantPermission("r-new", "p-new") }},
		{"AssignUserRole", func() error { return e.RBAC.AssignUserRole("u-new", "r-new") }},
		{"AddInheritance", func() error { return e.RBAC.AddInheritance("r-new", "r-junior") }},
		{"AddSSD", func() error {
			return e.RBAC.AddSSD(rbac.SoD{Name: "ssd-new", Roles: []rbac.RoleID{"r-junior", "reader"}, Cardinality: 2})
		}},
		{"AddDSD", func() error {
			return e.RBAC.AddDSD(rbac.SoD{Name: "dsd-new", Roles: []rbac.RoleID{"r-new", "admin"}, Cardinality: 2})
		}},
		{"DefineClass", func() error {
			return e.DefineClass(Class{ID: "c-new", Members: []rbac.PermID{"p-new"}, Duration: 60})
		}},
		{"RevokePermission", func() error { return e.RBAC.RevokePermission("r-new", "p-new") }},
		{"DeassignUserRole", func() error { return e.RBAC.DeassignUserRole("u-new", "r-new") }},
	}
	prev := PolicyDigest(e)
	for _, m := range mutations {
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		got := PolicyDigest(e)
		if want := fresh(); got != want {
			t.Fatalf("after %s: digest %s, a fresh render gives %s", m.name, got, want)
		}
		if got == prev {
			t.Fatalf("after %s: digest unchanged", m.name)
		}
		prev = got
	}

	if allocs := testing.AllocsPerRun(10, func() { _ = PolicyDigest(e) }); allocs != 0 {
		t.Fatalf("a repeated digest allocates %v times: the policy is rendered again", allocs)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = PolicyDigest(e)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := e.RBAC.AddUser(rbac.UserID(fmt.Sprintf("u-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := PolicyDigest(e), fresh(); got != want {
		t.Fatalf("after concurrent reads: digest %s, a fresh render gives %s", got, want)
	}
}
