// Package rbac implements the role-based access control substrate the
// paper extends (Section 3.4).
//
// The model has the four basic RBAC components: a set of users (human
// beings or mobile objects), a set of roles (collections of
// permissions needed for a job function), a set of permissions (access
// operations exercisable on objects), and subjects that relate a user
// to possibly many roles. A user who logs in (is authenticated)
// establishes a subject — here called a Session — through which roles
// are activated; an active role confers its permissions, including
// those inherited from junior roles in the role hierarchy, subject to
// separation-of-duty constraints.
//
// The spatio-temporal extension (permission activation gated on SRAC
// spatial constraints and duration-calculus validity, Expressions 3.1
// and 4.1) lives in the core package on top of this substrate.
package rbac

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"stac/internal/model"
)

// UserID names a user: a human being (e.g. the security officer) or a
// mobile object.
type UserID string

// RoleID names a role.
type RoleID string

// PermID names a permission.
type PermID string

// Permission is an access operation that can be exercised on objects
// in the system. Empty components are wildcards, so one permission can
// cover an operation across all coalition servers.
type Permission struct {
	ID       PermID
	Op       model.Operation
	Resource model.ResourceID
	Server   model.ServerID
	// Description documents the permission in policy listings.
	Description string
}

// Covers reports whether the permission authorises the given access.
func (p Permission) Covers(a model.Access) bool {
	pattern := model.Access{Op: p.Op, Resource: p.Resource, Server: p.Server}
	return pattern.Matches(a)
}

// Errors returned by the RBAC system.
var (
	ErrExists        = errors.New("rbac: already exists")
	ErrNotFound      = errors.New("rbac: not found")
	ErrCycle         = errors.New("rbac: role hierarchy cycle")
	ErrNotAuthorized = errors.New("rbac: user not authorized for role")
	ErrSSD           = errors.New("rbac: static separation-of-duty violation")
	ErrDSD           = errors.New("rbac: dynamic separation-of-duty violation")
)

// SoD is a separation-of-duty constraint over a role set: no user (for
// static SoD) or session (for dynamic SoD) may hold Cardinality or
// more of the roles in Roles at once.
type SoD struct {
	Name        string
	Roles       []RoleID
	Cardinality int
}

func (c SoD) violated(held func(RoleID) bool, extra RoleID) bool {
	n := 0
	for _, r := range c.Roles {
		if r == extra || held(r) {
			n++
		}
	}
	return n >= c.Cardinality
}

// System is an RBAC policy store: users, roles, permissions, the
// user-role and role-permission assignment relations, the role
// hierarchy, and separation-of-duty constraints. It is safe for
// concurrent use.
type System struct {
	mu    sync.RWMutex
	roles map[RoleID]bool
	perms map[PermID]Permission

	// ua is the registry of users and the user-role assignment
	// relation in one map: each registered user maps to its assigned
	// roles, sorted, and a user with no role to a nil list. A user holds
	// a role or two, so a sorted list is what role activation and the
	// SSD checks read, at a fraction of a set's memory.
	ua map[UserID][]RoleID
	// pa is the role-permission assignment relation.
	pa map[RoleID]map[PermID]bool
	// juniors maps a senior role to the junior roles it inherits
	// permissions from.
	juniors map[RoleID]map[RoleID]bool

	ssd []SoD
	dsd []SoD

	nextSession int
	sessions    map[int]*Session

	// gen is the policy generation: every policy mutation — of the
	// users, roles, permissions, grants, hierarchy, assignments or
	// separation-of-duty constraints — bumps it (under mu), and a view
	// resolved under an older generation is outdated. Sessions read it
	// without the lock on the access path.
	gen atomic.Uint64
	// views memoises the resolved views of the current generation, keyed
	// by role set (see roleSetKey); bounded by maxViews.
	views map[string]*view
}

// NewSystem creates an empty RBAC system.
func NewSystem() *System {
	return &System{
		roles:    make(map[RoleID]bool),
		perms:    make(map[PermID]Permission),
		ua:       make(map[UserID][]RoleID),
		pa:       make(map[RoleID]map[PermID]bool),
		juniors:  make(map[RoleID]map[RoleID]bool),
		sessions: make(map[int]*Session),
		views:    make(map[string]*view),
	}
}

// AddUser registers a user.
func (s *System) AddUser(u UserID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ua[u]; ok {
		return fmt.Errorf("%w: user %q", ErrExists, u)
	}
	s.ua[u] = nil
	s.bumpLocked()
	return nil
}

// AddRole registers a role.
func (s *System) AddRole(r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.roles[r] {
		return fmt.Errorf("%w: role %q", ErrExists, r)
	}
	s.roles[r] = true
	s.bumpLocked()
	return nil
}

// AddPermission registers a permission.
func (s *System) AddPermission(p Permission) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.ID == "" {
		return fmt.Errorf("rbac: permission needs an ID")
	}
	if _, ok := s.perms[p.ID]; ok {
		return fmt.Errorf("%w: permission %q", ErrExists, p.ID)
	}
	s.perms[p.ID] = p
	s.bumpLocked()
	return nil
}

// Permission returns a registered permission.
func (s *System) Permission(id PermID) (Permission, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.perms[id]
	if !ok {
		return Permission{}, fmt.Errorf("%w: permission %q", ErrNotFound, id)
	}
	return p, nil
}

// AssignUserRole adds (u, r) to the user-role assignment relation,
// enforcing static separation of duty.
func (s *System) AssignUserRole(u UserID, r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.ua[u]
	if !ok {
		return fmt.Errorf("%w: user %q", ErrNotFound, u)
	}
	if !s.roles[r] {
		return fmt.Errorf("%w: role %q", ErrNotFound, r)
	}
	i, held := slices.BinarySearch(rs, r)
	if held {
		return nil // idempotent
	}
	for _, c := range s.ssd {
		if c.violated(func(x RoleID) bool { return assigned(rs, x) }, r) {
			return fmt.Errorf("%w: %s forbids assigning %q to %q", ErrSSD, c.Name, r, u)
		}
	}
	s.ua[u] = slices.Insert(rs, i, r)
	s.bumpLocked()
	return nil
}

// DeassignUserRole removes (u, r) from the assignment relation and
// deactivates the role in every session of the user. A user whose
// last role goes stays registered.
func (s *System) DeassignUserRole(u UserID, r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.ua[u]
	i, held := slices.BinarySearch(rs, r)
	if !held {
		return fmt.Errorf("%w: assignment (%q, %q)", ErrNotFound, u, r)
	}
	if len(rs) == 1 {
		s.ua[u] = nil
	} else {
		s.ua[u] = slices.Delete(rs, i, i+1)
	}
	s.bumpLocked()
	for _, sess := range s.sessions {
		if sess.user == u {
			sess.deactivateLocked(r)
		}
	}
	return nil
}

// GrantPermission adds (r, p) to the role-permission assignment.
func (s *System) GrantPermission(r RoleID, p PermID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.roles[r] {
		return fmt.Errorf("%w: role %q", ErrNotFound, r)
	}
	if _, ok := s.perms[p]; !ok {
		return fmt.Errorf("%w: permission %q", ErrNotFound, p)
	}
	if s.pa[r] == nil {
		s.pa[r] = make(map[PermID]bool)
	}
	s.pa[r][p] = true
	s.bumpLocked()
	return nil
}

// RevokePermission removes (r, p) from the role-permission assignment.
func (s *System) RevokePermission(r RoleID, p PermID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pa[r][p] {
		return fmt.Errorf("%w: grant (%q, %q)", ErrNotFound, r, p)
	}
	delete(s.pa[r], p)
	s.bumpLocked()
	return nil
}

// AddInheritance makes senior inherit the permissions of junior
// (senior ≥ junior in the role hierarchy). Cycles are rejected.
func (s *System) AddInheritance(senior, junior RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.roles[senior] {
		return fmt.Errorf("%w: role %q", ErrNotFound, senior)
	}
	if !s.roles[junior] {
		return fmt.Errorf("%w: role %q", ErrNotFound, junior)
	}
	if senior == junior || s.inheritsLocked(junior, senior) {
		return fmt.Errorf("%w: %q -> %q", ErrCycle, senior, junior)
	}
	if s.juniors[senior] == nil {
		s.juniors[senior] = make(map[RoleID]bool)
	}
	s.juniors[senior][junior] = true
	s.bumpLocked()
	return nil
}

// assigned reports whether the sorted role list rs holds r.
func assigned(rs []RoleID, r RoleID) bool {
	_, ok := slices.BinarySearch(rs, r)
	return ok
}

// inheritsLocked reports whether from reaches to in the hierarchy.
func (s *System) inheritsLocked(from, to RoleID) bool {
	if from == to {
		return true
	}
	for j := range s.juniors[from] {
		if s.inheritsLocked(j, to) {
			return true
		}
	}
	return false
}

// expandLocked returns r and every role it transitively inherits.
func (s *System) expandLocked(r RoleID) map[RoleID]bool {
	out := map[RoleID]bool{}
	var rec func(RoleID)
	rec = func(x RoleID) {
		if out[x] {
			return
		}
		out[x] = true
		for j := range s.juniors[x] {
			rec(j)
		}
	}
	rec(r)
	return out
}

// AddSSD registers a static separation-of-duty constraint and verifies
// that no existing assignment already violates it.
func (s *System) AddSSD(c SoD) error {
	if err := validSoD(c); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for u, rs := range s.ua {
		n := 0
		for _, r := range c.Roles {
			if assigned(rs, r) {
				n++
			}
		}
		if n >= c.Cardinality {
			return fmt.Errorf("%w: existing assignments of %q violate %s", ErrSSD, u, c.Name)
		}
	}
	s.ssd = append(s.ssd, c)
	s.bumpLocked()
	return nil
}

// AddDSD registers a dynamic separation-of-duty constraint (checked at
// role activation time).
func (s *System) AddDSD(c SoD) error {
	if err := validSoD(c); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dsd = append(s.dsd, c)
	s.bumpLocked()
	return nil
}

func validSoD(c SoD) error {
	if c.Cardinality < 2 {
		return fmt.Errorf("rbac: separation-of-duty cardinality must be ≥ 2")
	}
	if len(c.Roles) < c.Cardinality {
		return fmt.Errorf("rbac: separation-of-duty over %d roles with cardinality %d is vacuous",
			len(c.Roles), c.Cardinality)
	}
	return nil
}

// AuthorizedRoles returns the roles directly assigned to the user, in
// sorted order.
func (s *System) AuthorizedRoles(u UserID) []RoleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append(make([]RoleID, 0, len(s.ua[u])), s.ua[u]...)
}

// RolePermissions returns the permissions of the role, including those
// inherited from junior roles — the RP(·) function of Expression 3.1 —
// sorted by ID. It is the resolved view of the role set {r}: the slice
// is shared and must not be modified.
func (s *System) RolePermissions(r RoleID) []Permission {
	roles := []RoleID{r}
	s.mu.RLock()
	v, ok := s.views[roleSetKey(roles)]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		v = s.viewLocked(roles)
		s.mu.Unlock()
	}
	return v.perms
}

// HasUser reports whether the user is registered.
func (s *System) HasUser(u UserID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.ua[u]
	return ok
}

// HasRole reports whether the role is registered.
func (s *System) HasRole(r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.roles[r]
}

// Users returns all registered users, sorted.
func (s *System) Users() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]UserID, 0, len(s.ua))
	for u := range s.ua {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Roles returns all registered roles, sorted.
func (s *System) Roles() []RoleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RoleID, 0, len(s.roles))
	for r := range s.roles {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// InheritanceEdges returns the direct (senior, junior) pairs of the
// role hierarchy, sorted.
func (s *System) InheritanceEdges() [][2]RoleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out [][2]RoleID
	for senior, js := range s.juniors {
		for junior := range js {
			out = append(out, [2]RoleID{senior, junior})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// DirectGrants returns the permissions granted directly to the role
// (without hierarchy inheritance), sorted.
func (s *System) DirectGrants(r RoleID) []PermID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]PermID, 0, len(s.pa[r]))
	for p := range s.pa[r] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SSDConstraints returns the registered static separation-of-duty
// constraints.
func (s *System) SSDConstraints() []SoD {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]SoD(nil), s.ssd...)
}

// DSDConstraints returns the registered dynamic separation-of-duty
// constraints.
func (s *System) DSDConstraints() []SoD {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]SoD(nil), s.dsd...)
}

// Stats summarises the policy store for diagnostics.
func (s *System) Stats() (users, roles, perms, sessions int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ua), len(s.roles), len(s.perms), len(s.sessions)
}
