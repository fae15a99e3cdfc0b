package rbac

import (
	"sort"
	"strconv"
	"strings"

	"stac/internal/model"
)

// maxViews bounds the System's memo of resolved views. A policy has a
// handful of distinct active role sets in practice (the generated load
// policies have one); past the bound an arbitrary view is evicted, and
// sessions already pointing at it keep it.
const maxViews = 256

// view is the resolved permission set of one active role set under one
// policy generation: every permission the roles confer, hierarchy
// inheritance included, deduplicated and sorted by ID, plus an index
// over the (operation, resource) components. A view is immutable once
// built and shared by every session with the same role set, so the
// access path looks permissions up without a lock or an allocation.
type view struct {
	gen   uint64
	perms []Permission
	// The index has one bucket per wildcard combination of (operation,
	// resource). Each holds positions in perms in ascending order, so
	// the first entry whose server component matches is the bucket's
	// covering permission with the smallest ID.
	exact map[opResource][]int32
	byOp  map[model.Operation][]int32
	byRes map[model.ResourceID][]int32
	any   []int32
}

type opResource struct {
	op  model.Operation
	res model.ResourceID
}

func newView(gen uint64, perms []Permission) *view {
	v := &view{
		gen:   gen,
		perms: perms,
		exact: make(map[opResource][]int32),
		byOp:  make(map[model.Operation][]int32),
		byRes: make(map[model.ResourceID][]int32),
	}
	for i, p := range perms {
		at := int32(i)
		switch {
		case p.Op != "" && p.Resource != "":
			k := opResource{p.Op, p.Resource}
			v.exact[k] = append(v.exact[k], at)
		case p.Op != "":
			v.byOp[p.Op] = append(v.byOp[p.Op], at)
		case p.Resource != "":
			v.byRes[p.Resource] = append(v.byRes[p.Resource], at)
		default:
			v.any = append(v.any, at)
		}
	}
	return v
}

// lookup returns the covering permission with the smallest ID, if any.
// An access's operation and resource select at most one list in each
// bucket; only the server component is matched by scanning.
func (v *view) lookup(a model.Access) (Permission, bool) {
	best := len(v.perms)
	best = v.first(v.exact[opResource{a.Op, a.Resource}], a.Server, best)
	best = v.first(v.byOp[a.Op], a.Server, best)
	best = v.first(v.byRes[a.Resource], a.Server, best)
	best = v.first(v.any, a.Server, best)
	if best == len(v.perms) {
		return Permission{}, false
	}
	return v.perms[best], true
}

// first returns the position of the bucket's first permission usable on
// server srv, or best when that comes first.
func (v *view) first(bucket []int32, srv model.ServerID, best int) int {
	for _, at := range bucket {
		if int(at) >= best {
			break
		}
		if s := v.perms[at].Server; s == "" || s == srv {
			return int(at)
		}
	}
	return best
}

// viewLocked returns the memoised view of a role set, building it on a
// miss. roles must be sorted. The caller holds s.mu for writing.
func (s *System) viewLocked(roles []RoleID) *view {
	key := roleSetKey(roles)
	if v, ok := s.views[key]; ok {
		return v
	}
	if len(s.views) >= maxViews {
		for k := range s.views {
			delete(s.views, k)
			break
		}
	}
	v := newView(s.gen.Load(), s.resolveLocked(roles))
	s.views[key] = v
	return v
}

// resolveLocked returns the permissions the roles confer, with
// hierarchy inheritance, deduplicated and sorted by ID.
func (s *System) resolveLocked(roles []RoleID) []Permission {
	seen := map[PermID]bool{}
	var out []Permission
	for _, r := range roles {
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

// bumpLocked starts a new policy generation: every view resolved so
// far is outdated. The caller holds s.mu for writing.
func (s *System) bumpLocked() {
	s.gen.Add(1)
	// clear rewrites the table even when it is empty, and loading a
	// policy bumps once per statement.
	if len(s.views) > 0 {
		clear(s.views)
	}
}

// roleSetKey names a sorted role set in the view memo. Each role is
// length-prefixed, so no role ID can make two sets collide.
func roleSetKey(roles []RoleID) string {
	var b strings.Builder
	for _, r := range roles {
		b.WriteString(strconv.Itoa(len(r)))
		b.WriteByte(':')
		b.WriteString(string(r))
	}
	return b.String()
}
