package rbac

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"stac/internal/model"
)

// refPermissions is the resolution Session.Permissions did before views:
// expand every active role's hierarchy, collect the grants into a map
// and sort, all on every call. It is the differential oracle for the
// memoised, indexed view.
func refPermissions(sess *Session) []Permission {
	s := sess.sys
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[PermID]bool{}
	var out []Permission
	for r := range sess.active {
		for role := range s.expandLocked(r) {
			for pid := range s.pa[role] {
				if !seen[pid] {
					seen[pid] = true
					out = append(out, s.perms[pid])
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// refPermissionFor is the linear scan PermissionFor did before views,
// over refPermissions(sess).
func refPermissionFor(perms []Permission, a model.Access) (Permission, bool) {
	for _, p := range perms {
		if p.Covers(a) {
			return p, true
		}
	}
	return Permission{}, false
}

// refRolePermissions is RolePermissions before views.
func refRolePermissions(s *System, r RoleID) []Permission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[PermID]bool{}
	var out []Permission
	for role := range s.expandLocked(r) {
		for pid := range s.pa[role] {
			if !seen[pid] {
				seen[pid] = true
				out = append(out, s.perms[pid])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func samePerms(a, b []Permission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The component vocabularies of the random policies; "" is a wildcard
// in a permission. Accesses also use components no permission names.
var (
	viewOps     = []model.Operation{"", "read", "write", "execute"}
	viewRes     = []model.ResourceID{"", "f1", "f2", "f3"}
	viewServers = []model.ServerID{"", "s1", "s2"}
)

func viewAccesses() []model.Access {
	var out []model.Access
	for _, op := range []model.Operation{"read", "write", "execute", "delete"} {
		for _, r := range []model.ResourceID{"f1", "f2", "f3", "f9"} {
			for _, srv := range []model.ServerID{"s1", "s2", "s3"} {
				out = append(out, model.NewAccess("o", op, r, srv))
			}
		}
	}
	return out
}

// TestViewMatchesReference drives seeded random policies through every
// generation-bumping mutation interleaved with session activity, and
// after every step compares each session's Permissions and
// PermissionFor, and every role's RolePermissions, with the reference.
func TestViewMatchesReference(t *testing.T) {
	accesses := viewAccesses()
	roles := []RoleID{"r0", "r1", "r2", "r3", "r4", "r5"}
	users := []UserID{"u0", "u1", "u2"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSystem()
		for _, u := range users {
			if err := s.AddUser(u); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range roles {
			if err := s.AddRole(r); err != nil {
				t.Fatal(err)
			}
		}
		var perms []PermID
		var sessions []*Session
		addPerm := func() {
			// IDs are drawn out of order so ID order differs from
			// insertion order.
			id := PermID(fmt.Sprintf("p%03d", rng.Intn(1000)))
			p := Permission{
				ID:       id,
				Op:       viewOps[rng.Intn(len(viewOps))],
				Resource: viewRes[rng.Intn(len(viewRes))],
				Server:   viewServers[rng.Intn(len(viewServers))],
			}
			if s.AddPermission(p) == nil {
				perms = append(perms, id)
			}
		}
		for i := 0; i < 12; i++ {
			addPerm()
		}
		pickRole := func() RoleID { return roles[rng.Intn(len(roles))] }
		pickUser := func() UserID { return users[rng.Intn(len(users))] }
		for step := 0; step < 300; step++ {
			op := rng.Intn(11)
			switch op {
			case 0:
				addPerm()
			case 1, 2:
				_ = s.GrantPermission(pickRole(), perms[rng.Intn(len(perms))])
			case 3:
				_ = s.RevokePermission(pickRole(), perms[rng.Intn(len(perms))])
			case 4:
				_ = s.AddInheritance(pickRole(), pickRole())
			case 5:
				_ = s.AssignUserRole(pickUser(), pickRole())
			case 6:
				_ = s.DeassignUserRole(pickUser(), pickRole())
			case 7:
				if sess, err := s.CreateSession(pickUser()); err == nil {
					sessions = append(sessions, sess)
				}
			case 8, 9:
				if len(sessions) > 0 {
					_ = sessions[rng.Intn(len(sessions))].ActivateRole(pickRole())
				}
			case 10:
				if len(sessions) > 0 {
					sess := sessions[rng.Intn(len(sessions))]
					if rng.Intn(4) == 0 {
						sess.Close()
					} else {
						sess.DeactivateRole(pickRole())
					}
				}
			}
			for _, sess := range sessions {
				want := refPermissions(sess)
				if got := sess.Permissions(); !samePerms(got, want) {
					t.Fatalf("seed %d step %d op %d: session %d Permissions = %v, reference %v",
						seed, step, op, sess.ID(), got, want)
				}
				for _, a := range accesses {
					got, gotOK := sess.PermissionFor(a)
					ref, refOK := refPermissionFor(want, a)
					if got != ref || gotOK != refOK {
						t.Fatalf("seed %d step %d op %d: session %d PermissionFor(%s) = %v %v, reference %v %v",
							seed, step, op, sess.ID(), a, got, gotOK, ref, refOK)
					}
				}
			}
			for _, r := range roles {
				if got, want := s.RolePermissions(r), refRolePermissions(s, r); !samePerms(got, want) {
					t.Fatalf("seed %d step %d op %d: RolePermissions(%s) = %v, reference %v",
						seed, step, op, r, got, want)
				}
			}
		}
	}
}

// TestViewResolvedOncePerGeneration pins the memo: sessions holding the
// same role set share one view (one hierarchy expansion and sort) until
// a mutation starts a new generation.
func TestViewResolvedOncePerGeneration(t *testing.T) {
	s := newSys(t)
	for _, u := range []UserID{"alice", "bob"} {
		if err := s.AssignUserRole(u, "reader"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.GrantPermission("reader", "p-read"); err != nil {
		t.Fatal(err)
	}
	a, _ := s.CreateSession("alice")
	b, _ := s.CreateSession("bob")
	for _, sess := range []*Session{a, b} {
		if err := sess.ActivateRole("reader"); err != nil {
			t.Fatal(err)
		}
	}
	va := a.currentView()
	if vb := b.currentView(); va != vb {
		t.Fatal("sessions with one role set resolved two views")
	}
	if a.currentView() != va || &a.Permissions()[0] != &s.RolePermissions("reader")[0] {
		t.Fatal("a repeated lookup re-resolved the view")
	}
	if err := s.GrantPermission("reader", "p-write"); err != nil {
		t.Fatal(err)
	}
	vc := a.currentView()
	if vc == va || len(vc.perms) != 2 {
		t.Fatalf("mutation did not start a new view: %v", vc.perms)
	}
	if b.currentView() != vc {
		t.Fatal("sessions re-resolved the new generation twice")
	}
}

// TestViewNeverStaleUnderConcurrency runs grants, hierarchy edges and
// role toggles against PermissionFor from other goroutines. Each reader
// first loads how many mutations have returned, and the permission the
// last of them made visible must then be found: a reader that saw a
// view older than a completed mutation fails.
func TestViewNeverStaleUnderConcurrency(t *testing.T) {
	const mutations = 150
	s := NewSystem()
	for _, u := range []UserID{"u0", "u1", "u2"} {
		if err := s.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []RoleID{"base", "extra"} {
		if err := s.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []UserID{"u0", "u1", "u2"} {
		for _, r := range []RoleID{"base", "extra"} {
			if err := s.AssignUserRole(u, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	access := func(i int) model.Access {
		return model.NewAccess("o", "read", model.ResourceID(fmt.Sprintf("r%03d", i)), "s1")
	}
	var published atomic.Int64
	check := func(sess *Session) bool {
		n := int(published.Load())
		if n == 0 {
			return true
		}
		if _, ok := sess.PermissionFor(access(n - 1)); !ok {
			t.Errorf("session %d: permission of mutation %d not visible after it returned", sess.ID(), n-1)
			return false
		}
		return true
	}

	shared := make([]*Session, 2)
	for i := range shared {
		sess, err := s.CreateSession("u0")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.ActivateRole("base"); err != nil {
			t.Fatal(err)
		}
		shared[i] = sess
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator: every other permission arrives by inheritance
		defer wg.Done()
		defer close(done)
		for i := 0; i < mutations; i++ {
			p := Permission{ID: PermID(fmt.Sprintf("p%03d", i)), Op: "read", Resource: access(i).Resource}
			if err := s.AddPermission(p); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := s.GrantPermission("base", p.ID); err != nil {
					t.Error(err)
					return
				}
			} else {
				junior := RoleID(fmt.Sprintf("j%03d", i))
				if err := s.AddRole(junior); err != nil {
					t.Error(err)
					return
				}
				if err := s.GrantPermission(junior, p.ID); err != nil {
					t.Error(err)
					return
				}
				if err := s.AddInheritance("base", junior); err != nil {
					t.Error(err)
					return
				}
			}
			published.Store(int64(i + 1))
		}
	}()
	wg.Add(1)
	go func() { // toggles a second role on the shared sessions
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, sess := range shared {
				if err := sess.ActivateRole("extra"); err != nil {
					t.Error(err)
					return
				}
				sess.DeactivateRole("extra")
			}
		}
	}()
	for _, sess := range shared {
		wg.Add(1)
		go func(sess *Session) { // reads a shared session
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !check(sess) {
					return
				}
			}
		}(sess)
	}
	wg.Add(1)
	go func() { // arrivals: a fresh session per check
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sess, err := s.CreateSession("u1")
			if err != nil {
				t.Error(err)
				return
			}
			if err := sess.ActivateRole("base"); err != nil {
				t.Error(err)
				return
			}
			ok := check(sess)
			sess.Close()
			if !ok {
				return
			}
		}
	}()
	wg.Wait()
	for _, sess := range shared {
		if got := len(sess.Permissions()); got != mutations {
			t.Fatalf("session %d holds %d permissions after %d grants", sess.ID(), got, mutations)
		}
	}
}

// TestPermissionForZeroAllocs holds the warm access path to no
// allocation.
func TestPermissionForZeroAllocs(t *testing.T) {
	sess, accesses := bigPolicySession(t)
	sess.PermissionFor(accesses[0])
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range accesses {
			sess.PermissionFor(a)
		}
	})
	if allocs != 0 {
		t.Fatalf("PermissionFor allocates %.1f times per round on a warm view", allocs)
	}
}

// bigPolicySession builds one role with 512 permissions, shaped like the
// generated load policies (each covers one resource under any
// operation and server) with some exact and fully wildcard ones mixed
// in, and returns an active session plus accesses to look up.
func bigPolicySession(tb testing.TB) (*Session, []model.Access) {
	tb.Helper()
	s := NewSystem()
	if err := s.AddUser("w0"); err != nil {
		tb.Fatal(err)
	}
	if err := s.AddRole("roam"); err != nil {
		tb.Fatal(err)
	}
	if err := s.AssignUserRole("w0", "roam"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		p := Permission{ID: PermID(fmt.Sprintf("p%d", i)), Resource: model.ResourceID(fmt.Sprintf("f%d", i%64+1))}
		switch i % 16 {
		case 3:
			p.Op = "write"
		case 7:
			p.Resource = ""
			p.Server = "s9"
		case 11:
			p.Op, p.Server = "read", "s2"
		}
		if err := s.AddPermission(p); err != nil {
			tb.Fatal(err)
		}
		if err := s.GrantPermission("roam", p.ID); err != nil {
			tb.Fatal(err)
		}
	}
	sess, err := s.CreateSession("w0")
	if err != nil {
		tb.Fatal(err)
	}
	if err := sess.ActivateRole("roam"); err != nil {
		tb.Fatal(err)
	}
	var accesses []model.Access
	for i := 1; i <= 8; i++ {
		accesses = append(accesses, model.NewAccess("w0", "read", model.ResourceID(fmt.Sprintf("f%d", i)), "s1"))
	}
	accesses = append(accesses, model.NewAccess("w0", "read", "missing", "s1"))
	return sess, accesses
}

var sinkPerm Permission

// BenchmarkPermissionFor is one access-path lookup against a warm
// 512-permission view.
func BenchmarkPermissionFor(b *testing.B) {
	sess, accesses := bigPolicySession(b)
	sess.PermissionFor(accesses[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPerm, _ = sess.PermissionFor(accesses[i%len(accesses)])
	}
}

var sinkPerms []Permission

// BenchmarkArrival is the RBAC half of an arrival against the
// 512-permission policy: a session, its role activation and the
// permission set the engine starts trackers for. Closing the session
// keeps the session table from growing with b.N.
func BenchmarkArrival(b *testing.B) {
	sess, _ := bigPolicySession(b)
	s := sess.sys
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := s.CreateSession("w0")
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.ActivateRole("roam"); err != nil {
			b.Fatal(err)
		}
		sinkPerms = sess.Permissions()
		sess.Close()
	}
}
