package rbac

import (
	"fmt"
	"sort"
	"sync/atomic"

	"stac/internal/model"
)

// Session is the subject a user establishes after authentication: it
// relates the user to the roles activated within it. In the coalition
// emulation each mobile object authenticated at a server obtains a
// session; role activation follows (the NapletPrincipal flow of
// Section 5.1).
//
// Sessions share the System's lock: all methods are safe for
// concurrent use. A session points at the resolved view of its active
// role set, re-pointed on every role change and re-resolved on first
// use after a policy mutation, so the access path reads it lock-free.
type Session struct {
	sys    *System
	id     int
	user   UserID
	active map[RoleID]bool
	closed bool
	view   atomic.Pointer[view]
}

// CreateSession establishes a subject for an authenticated user.
func (s *System) CreateSession(u UserID) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ua[u]; !ok {
		return nil, fmt.Errorf("%w: user %q", ErrNotFound, u)
	}
	s.nextSession++
	sess := &Session{sys: s, id: s.nextSession, user: u, active: make(map[RoleID]bool)}
	sess.repointLocked()
	s.sessions[sess.id] = sess
	return sess, nil
}

// User returns the session's user.
func (sess *Session) User() UserID { return sess.user }

// ID returns the session identifier.
func (sess *Session) ID() int { return sess.id }

// ActivateRole activates a role in the session. The user must be
// assigned the role (a role becomes active only if the user requesting
// its activation is entitled to it), and dynamic separation-of-duty
// constraints must hold.
func (sess *Session) ActivateRole(r RoleID) error {
	s := sess.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return fmt.Errorf("rbac: session %d closed", sess.id)
	}
	if !assigned(s.ua[sess.user], r) {
		return fmt.Errorf("%w: %q for user %q", ErrNotAuthorized, r, sess.user)
	}
	if sess.active[r] {
		return nil // idempotent
	}
	held := func(x RoleID) bool { return sess.active[x] }
	for _, c := range s.dsd {
		if c.violated(held, r) {
			return fmt.Errorf("%w: %s forbids activating %q", ErrDSD, c.Name, r)
		}
	}
	sess.active[r] = true
	sess.repointLocked()
	return nil
}

// DeactivateRole deactivates a role in the session (a no-op if it was
// not active).
func (sess *Session) DeactivateRole(r RoleID) {
	s := sess.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.deactivateLocked(r)
}

func (sess *Session) deactivateLocked(r RoleID) {
	if !sess.active[r] {
		return
	}
	delete(sess.active, r)
	sess.repointLocked()
}

// ActiveRoles returns the roles active in the session, sorted — the
// AR(·) function of Expression 3.1.
func (sess *Session) ActiveRoles() []RoleID {
	s := sess.sys
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sess.activeRolesLocked()
}

func (sess *Session) activeRolesLocked() []RoleID {
	out := make([]RoleID, 0, len(sess.active))
	for r := range sess.active {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// repointLocked points the session at the view of its active role set
// under the current generation. The caller holds the System's lock for
// writing.
func (sess *Session) repointLocked() *view {
	v := sess.sys.viewLocked(sess.activeRolesLocked())
	sess.view.Store(v)
	return v
}

// currentView returns the session's view, re-resolving it first when a
// policy mutation has outdated it. A mutation bumps the generation
// before it returns, so no caller sees a view older than the last
// completed mutation.
func (sess *Session) currentView() *view {
	s := sess.sys
	if v := sess.view.Load(); v.gen == s.gen.Load() {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.repointLocked()
}

// Permissions returns the permissions conferred by the session's
// active roles, with hierarchy inheritance, deduplicated and sorted by
// ID. The slice is the session's resolved view, shared with every
// session holding the same roles: callers must not modify it.
func (sess *Session) Permissions() []Permission {
	return sess.currentView().perms
}

// PermissionFor returns a permission held by the session that covers
// the access, if any. When several cover it, the one with the
// lexicographically smallest ID is returned, making authorisation
// decisions deterministic. It consults at most four index buckets of
// the session's view and allocates nothing.
func (sess *Session) PermissionFor(a model.Access) (Permission, bool) {
	return sess.currentView().lookup(a)
}

// CheckAccess reports whether some active role confers a permission
// covering the access — basic RBAC authorisation, before the
// spatio-temporal extension is applied.
func (sess *Session) CheckAccess(a model.Access) bool {
	_, ok := sess.PermissionFor(a)
	return ok
}

// Close ends the session, deactivating all roles.
func (sess *Session) Close() {
	s := sess.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.closed = true
	sess.active = make(map[RoleID]bool)
	sess.repointLocked()
	delete(s.sessions, sess.id)
}
