package core

import (
	"fmt"
	"sort"
	"strings"

	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/temporal"
)

// This file implements the extension the paper's conclusion names as
// future work: "how to classify the temporal permissions and
// aggregate their validity durations". A permission class groups
// permissions that draw on ONE shared validity pool: activating any
// member consumes the class budget, so a job function like "editing"
// can span several concrete permissions (write headline, write body,
// write captions) whose combined active time is bounded once, instead
// of per permission.

// ClassID names a permission class.
type ClassID string

// Class is a set of permissions sharing an aggregated validity pool.
type Class struct {
	ID      ClassID
	Members []rbac.PermID
	// Duration is the aggregated validity duration of the pool.
	Duration float64
	// Scheme selects the pool's base-time scheme.
	Scheme temporal.Scheme
}

func (c Class) duration() float64 {
	if c.Duration == 0 {
		return temporal.Infinite
	}
	return c.Duration
}

// DefineClass registers a permission class. Every member permission
// must already be defined, and a permission can belong to at most one
// class; once classed, the member's own Duration/Scheme are ignored in
// favour of the pool's.
func (e *Engine) DefineClass(c Class) error {
	if c.ID == "" {
		return fmt.Errorf("core: class needs an ID")
	}
	if len(c.Members) == 0 {
		return fmt.Errorf("core: class %q has no members", c.ID)
	}
	e.policyMu.Lock()
	defer e.policyMu.Unlock()
	if _, ok := e.classes[c.ID]; ok {
		return fmt.Errorf("core: class %q already defined", c.ID)
	}
	for _, m := range c.Members {
		if _, ok := e.specs[m]; !ok {
			return fmt.Errorf("core: class %q member %q: %w", c.ID, m, ErrNoSpec)
		}
		if prev, ok := e.classOf[m]; ok {
			return fmt.Errorf("core: permission %q already in class %q", m, prev)
		}
	}
	e.classes[c.ID] = c
	for _, m := range c.Members {
		e.classOf[m] = c.ID
	}
	e.policyGen.Add(1)
	return nil
}

// ClassOf returns the class a permission belongs to, if any.
func (e *Engine) ClassOf(id rbac.PermID) (Class, bool) {
	e.policyMu.RLock()
	defer e.policyMu.RUnlock()
	cid, ok := e.classOf[id]
	if !ok {
		return Class{}, false
	}
	return e.classes[cid], true
}

// Classes returns the defined classes sorted by ID.
func (e *Engine) Classes() []Class {
	e.policyMu.RLock()
	defer e.policyMu.RUnlock()
	out := make([]Class, 0, len(e.classes))
	for _, c := range e.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ClassRemaining returns the unused pooled validity of a class for an
// object.
func (e *Engine) ClassRemaining(obj model.ObjectID, id ClassID) float64 {
	e.policyMu.RLock()
	c, ok := e.classes[id]
	e.policyMu.RUnlock()
	if !ok {
		return 0
	}
	v, ok := e.validity(obj, temporalKey{key: classPermKey(id), dur: c.duration(), scheme: c.Scheme}, e.clock.Now())
	if !ok {
		return c.duration()
	}
	return v.Remaining
}

// classPermKey reserves a temporal-key namespace for class pools so a
// class id can never collide with a permission id.
func classPermKey(id ClassID) rbac.PermID {
	return rbac.PermID(classKeyPrefix + string(id))
}

const classKeyPrefix = "class\x00"

// temporalKey is a permission's temporal parameters under the current
// policy: the key its validity is kept under (its class pool when
// classed, its own ID otherwise), dur(perm) and the base-time scheme.
type temporalKey struct {
	key    rbac.PermID
	dur    float64
	scheme temporal.Scheme
}

// lookup resolves a permission's spec and temporal parameters under one
// policy read-lock; known is false for a permission registered only on
// the RBAC layer, which resolves to an unconstrained spec (T,
// time-insensitive). Callers hold no engine lock.
func (e *Engine) lookup(perm rbac.Permission) (ps PermSpec, tk temporalKey, known bool) {
	e.policyMu.RLock()
	defer e.policyMu.RUnlock()
	return e.lookupLocked(perm)
}

// lookupLocked is lookup with e.policyMu already held (read suffices).
func (e *Engine) lookupLocked(perm rbac.Permission) (ps PermSpec, tk temporalKey, known bool) {
	ps, known = e.specs[perm.ID]
	if !known {
		ps = PermSpec{Perm: perm}
	}
	if cid, classed := e.classOf[perm.ID]; classed {
		c := e.classes[cid]
		return ps, temporalKey{key: classPermKey(cid), dur: c.duration(), scheme: c.Scheme}, known
	}
	return ps, temporalKey{key: perm.ID, dur: ps.duration(), scheme: ps.Scheme}, known
}

// keyParamsLocked reads a temporal key's dur and scheme from the
// current policy; e.policyMu is held (read suffices).
func (e *Engine) keyParamsLocked(key rbac.PermID) (float64, temporal.Scheme) {
	if cid, ok := strings.CutPrefix(string(key), classKeyPrefix); ok {
		c := e.classes[ClassID(cid)]
		return c.duration(), c.Scheme
	}
	ps := e.specs[key]
	return ps.duration(), ps.Scheme
}

// ClassifyByDuration computes the canonical classification of a
// permission set: permissions with identical (Duration, Scheme) are
// grouped into one class whose pool equals that duration. It is the
// automated form of the paper's "classify the temporal permissions";
// apply the result (or an edited version) with DefineClass.
func ClassifyByDuration(specs []PermSpec) []Class {
	type bucket struct {
		dur    float64
		scheme temporal.Scheme
	}
	groups := map[bucket][]rbac.PermID{}
	for _, ps := range specs {
		b := bucket{dur: ps.duration(), scheme: ps.Scheme}
		groups[b] = append(groups[b], ps.Perm.ID)
	}
	keys := make([]bucket, 0, len(groups))
	for b := range groups {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dur != keys[j].dur {
			return keys[i].dur < keys[j].dur
		}
		return keys[i].scheme < keys[j].scheme
	})
	var out []Class
	for i, b := range keys {
		members := groups[b]
		sort.Slice(members, func(x, y int) bool { return members[x] < members[y] })
		out = append(out, Class{
			ID:       ClassID(fmt.Sprintf("class-%d", i+1)),
			Members:  members,
			Duration: b.dur,
			Scheme:   b.scheme,
		})
	}
	return out
}
