package rbac

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// uaModel is the reference for the user-role relation: a set of roles
// per user, with the separation-of-duty checks and session activation
// written over it directly.
type uaModel struct {
	users    map[UserID]bool
	roles    map[RoleID]bool
	ua       map[UserID]map[RoleID]bool
	ssd, dsd []SoD
	sessions []*modelSession
}

type modelSession struct {
	user   UserID
	active map[RoleID]bool
}

func newUAModel() *uaModel {
	return &uaModel{users: map[UserID]bool{}, roles: map[RoleID]bool{}, ua: map[UserID]map[RoleID]bool{}}
}

func (m *uaModel) addUser(u UserID) error {
	if m.users[u] {
		return fmt.Errorf("%w: user %q", ErrExists, u)
	}
	m.users[u] = true
	return nil
}

func (m *uaModel) addRole(r RoleID) error {
	if m.roles[r] {
		return fmt.Errorf("%w: role %q", ErrExists, r)
	}
	m.roles[r] = true
	return nil
}

func (m *uaModel) assign(u UserID, r RoleID) error {
	switch {
	case !m.users[u]:
		return fmt.Errorf("%w: user %q", ErrNotFound, u)
	case !m.roles[r]:
		return fmt.Errorf("%w: role %q", ErrNotFound, r)
	case m.ua[u][r]:
		return nil
	}
	for _, c := range m.ssd {
		if c.violated(func(x RoleID) bool { return m.ua[u][x] }, r) {
			return fmt.Errorf("%w: %s forbids assigning %q to %q", ErrSSD, c.Name, r, u)
		}
	}
	if m.ua[u] == nil {
		m.ua[u] = map[RoleID]bool{}
	}
	m.ua[u][r] = true
	return nil
}

func (m *uaModel) deassign(u UserID, r RoleID) error {
	if !m.ua[u][r] {
		return fmt.Errorf("%w: assignment (%q, %q)", ErrNotFound, u, r)
	}
	delete(m.ua[u], r)
	for _, s := range m.sessions {
		if s.user == u {
			delete(s.active, r)
		}
	}
	return nil
}

// addSSD returns the errors the System may answer: it names the first
// violating user it meets, in map order.
func (m *uaModel) addSSD(c SoD) []error {
	var errs []error
	for u, rs := range m.ua {
		n := 0
		for _, r := range c.Roles {
			if rs[r] {
				n++
			}
		}
		if n >= c.Cardinality {
			errs = append(errs, fmt.Errorf("%w: existing assignments of %q violate %s", ErrSSD, u, c.Name))
		}
	}
	if errs == nil {
		m.ssd = append(m.ssd, c)
	}
	return errs
}

func (m *uaModel) createSession(u UserID) (*modelSession, error) {
	if !m.users[u] {
		return nil, fmt.Errorf("%w: user %q", ErrNotFound, u)
	}
	s := &modelSession{user: u, active: map[RoleID]bool{}}
	m.sessions = append(m.sessions, s)
	return s, nil
}

func (m *uaModel) activate(s *modelSession, r RoleID) error {
	if !m.ua[s.user][r] {
		return fmt.Errorf("%w: %q for user %q", ErrNotAuthorized, r, s.user)
	}
	if s.active[r] {
		return nil
	}
	for _, c := range m.dsd {
		if c.violated(func(x RoleID) bool { return s.active[x] }, r) {
			return fmt.Errorf("%w: %s forbids activating %q", ErrDSD, c.Name, r)
		}
	}
	s.active[r] = true
	return nil
}

// sorted returns the members of a set of roles or users in order.
func sorted[K RoleID | UserID](set map[K]bool) []K {
	out := make([]K, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.Error() == want.Error()
}

// Seeded operation sequences give the System and the reference the
// same errors, the same sorted AuthorizedRoles, the same registered
// users and the same activation outcomes and active roles. Some users
// never get a role, and a user whose last role is deassigned stays
// registered: HasUser and Users still name it, AuthorizedRoles is
// empty and CreateSession succeeds.
func TestUserRoleRelationMatchesReference(t *testing.T) {
	kinds := map[error]int{}
	lastRoleGone, roleless := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys, ref := NewSystem(), newUAModel()
		user := func() UserID { return UserID(fmt.Sprintf("u%d", rng.Intn(6))) }
		// A user of this pool is registered but never assigned a role.
		bare := func() UserID { return UserID(fmt.Sprintf("v%d", rng.Intn(3))) }
		role := func() RoleID { return RoleID(fmt.Sprintf("r%d", rng.Intn(7))) }
		sod := func(i int) SoD {
			picked := map[RoleID]bool{}
			for len(picked) < 2+rng.Intn(3) {
				picked[role()] = true
			}
			rs := sorted(picked)
			return SoD{Name: fmt.Sprintf("sod-%d", i), Roles: rs, Cardinality: 2 + rng.Intn(len(rs)-1)}
		}
		var sessions []*Session
		var refSessions []*modelSession
		for i := 0; i < 400; i++ {
			var got, want error
			op := rng.Intn(10)
			switch op {
			case 0:
				u := user()
				if rng.Intn(3) == 0 {
					u = bare()
				}
				got, want = sys.AddUser(u), ref.addUser(u)
			case 1:
				r := role()
				got, want = sys.AddRole(r), ref.addRole(r)
			case 2, 3, 4:
				u, r := user(), role()
				got, want = sys.AssignUserRole(u, r), ref.assign(u, r)
			case 5:
				u, r := user(), role()
				got, want = sys.DeassignUserRole(u, r), ref.deassign(u, r)
				if got == nil && want == nil && len(ref.ua[u]) == 0 {
					lastRoleGone++
					if !sys.HasUser(u) || len(sys.AuthorizedRoles(u)) != 0 {
						t.Fatalf("seed %d op %d: deassigning %s's last role: HasUser %v, AuthorizedRoles %v",
							seed, i, u, sys.HasUser(u), sys.AuthorizedRoles(u))
					}
					s, err := sys.CreateSession(u)
					rs, rerr := ref.createSession(u)
					if err != nil || rerr != nil {
						t.Fatalf("seed %d op %d: session of %s after its last role went: %v (reference %v)", seed, i, u, err, rerr)
					}
					sessions, refSessions = append(sessions, s), append(refSessions, rs)
				}
			case 6:
				c := sod(i)
				if rng.Intn(2) == 0 {
					got, want = sys.AddDSD(c), nil
					if got == nil {
						ref.dsd = append(ref.dsd, c)
					}
					break
				}
				got = sys.AddSSD(c)
				errs := ref.addSSD(c)
				if got == nil && len(errs) == 0 {
					break
				}
				want = errs[0]
				for _, e := range errs {
					if sameErr(got, e) {
						want = e
					}
				}
			case 7:
				u := user()
				s, err := sys.CreateSession(u)
				rs, rerr := ref.createSession(u)
				got, want = err, rerr
				if err == nil {
					sessions, refSessions = append(sessions, s), append(refSessions, rs)
				}
			default:
				if len(sessions) == 0 {
					continue
				}
				k, r := rng.Intn(len(sessions)), role()
				got, want = sessions[k].ActivateRole(r), ref.activate(refSessions[k], r)
				if a, b := sessions[k].ActiveRoles(), sorted(refSessions[k].active); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d op %d: active roles %v, reference %v", seed, i, a, b)
				}
			}
			if !sameErr(got, want) {
				t.Fatalf("seed %d op %d (%d): error %v, reference %v", seed, i, op, got, want)
			}
			for _, e := range []error{ErrExists, ErrNotFound, ErrNotAuthorized, ErrSSD, ErrDSD} {
				if got != nil && errors.Is(got, e) {
					kinds[e]++
				}
			}
			for u := range ref.users {
				if a, b := sys.AuthorizedRoles(u), sorted(ref.ua[u]); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d op %d: AuthorizedRoles(%s) = %v, reference %v", seed, i, u, a, b)
				}
				if !sys.HasUser(u) {
					t.Fatalf("seed %d op %d: HasUser(%s) = false for a registered user", seed, i, u)
				}
			}
			if a, b := sys.Users(), sorted(ref.users); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d op %d: Users() = %v, reference %v", seed, i, a, b)
			}
			if n, _, _, _ := sys.Stats(); n != len(ref.users) {
				t.Fatalf("seed %d op %d: Stats counts %d users, reference %d", seed, i, n, len(ref.users))
			}
		}
		for u := range ref.users {
			if len(ref.ua[u]) > 0 {
				continue
			}
			roleless++
			if _, err := sys.CreateSession(u); err != nil {
				t.Fatalf("seed %d: session of %s, which holds no role: %v", seed, u, err)
			}
		}
		for k, s := range sessions {
			if a, b := s.ActiveRoles(), sorted(refSessions[k].active); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: session %d active roles %v, reference %v", seed, k, a, b)
			}
		}
	}
	if lastRoleGone == 0 || roleless == 0 {
		t.Errorf("%d deassigns of a last role, %d users without a role at the end: want both above 0", lastRoleGone, roleless)
	}
	// Every error the relation can give was compared at least once.
	for _, e := range []error{ErrExists, ErrNotFound, ErrNotAuthorized, ErrSSD, ErrDSD} {
		if kinds[e] == 0 {
			t.Errorf("no operation answered %v", e)
		}
	}
}
