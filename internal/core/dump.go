package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
)

// PolicyDigest fingerprints an engine's loaded policy: the SHA-256 of
// its canonical textual dump, hex-encoded. Two coalition members
// running the same policy produce the same digest regardless of load
// order, because DumpPolicy emits a normalised form. The flight
// recorder stamps it on every record so replays can tell whether they
// run the policy that produced the stream.
//
// The digest is rendered once per policy change: every mutation the
// dump renders bumps the RBAC generation (users, roles, permissions,
// grants, hierarchy, assignments, separation of duty) or the engine's
// (permission specs, classes), and a digest memoised under both is
// served until either moves.
func PolicyDigest(e *Engine) string {
	// The generations are read before the render, so a mutation racing
	// it leaves a memo keyed older than the policy: recomputed, never
	// served stale.
	rbacGen, gen := e.RBAC.Generation(), e.policyGen.Load()
	if d := e.digest.Load(); d != nil && d.rbacGen == rbacGen && d.gen == gen {
		return d.sum
	}
	sum := sha256.Sum256([]byte(DumpPolicy(e)))
	d := &policyDigest{rbacGen: rbacGen, gen: gen, sum: hex.EncodeToString(sum[:])}
	e.digest.Store(d)
	return d.sum
}

// policyDigest is a PolicyDigest with the generations it was rendered
// at.
type policyDigest struct {
	rbacGen, gen uint64
	sum          string
}

// DumpPolicy renders the engine's policy in the text format LoadPolicy
// accepts, so a running coalition's configuration can be exported,
// reviewed and re-imported (LoadPolicy(Dump(e)) reconstructs an
// equivalent engine). Sessions and activation clocks are runtime state
// and are not exported.
func DumpPolicy(e *Engine) string {
	var b strings.Builder
	b.WriteString("# stacd policy (generated)\n")

	for _, u := range e.RBAC.Users() {
		fmt.Fprintf(&b, "user %s\n", u)
	}
	roles := e.RBAC.Roles()
	for _, r := range roles {
		fmt.Fprintf(&b, "role %s\n", r)
	}
	// Inheritance edges: senior > junior pairs recovered from the
	// permission closure are ambiguous, so the RBAC layer exposes them
	// directly.
	for _, edge := range e.RBAC.InheritanceEdges() {
		fmt.Fprintf(&b, "inherit %s %s\n", edge[0], edge[1])
	}
	for _, u := range e.RBAC.Users() {
		for _, r := range e.RBAC.AuthorizedRoles(u) {
			fmt.Fprintf(&b, "assign %s %s\n", u, r)
		}
	}

	e.policyMu.RLock()
	ids := make([]rbac.PermID, 0, len(e.specs))
	for id := range e.specs {
		ids = append(ids, id)
	}
	specs := make(map[rbac.PermID]PermSpec, len(e.specs))
	for id, ps := range e.specs {
		specs[id] = ps
	}
	classes := make([]Class, 0, len(e.classes))
	for _, c := range e.classes {
		classes = append(classes, c)
	}
	e.policyMu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(classes, func(i, j int) bool { return classes[i].ID < classes[j].ID })

	star := func(s string) string {
		if s == "" {
			return "*"
		}
		return s
	}
	for _, id := range ids {
		ps := specs[id]
		header := fmt.Sprintf("permission %s %s %s @ %s", ps.Perm.ID,
			star(string(ps.Perm.Op)), star(string(ps.Perm.Resource)), star(string(ps.Perm.Server)))
		var body []string
		if ps.Spatial != nil {
			body = append(body, "spatial  "+srac.String(ps.Spatial))
		}
		if ps.Mode == Strict {
			body = append(body, "mode     strict")
		}
		if ps.Duration != 0 && ps.Duration != temporal.Infinite {
			body = append(body, "duration "+FormatDuration(ps.Duration))
		}
		if ps.Scheme == temporal.PerServerBase {
			body = append(body, "scheme   per-server")
		}
		if ps.Perm.Description != "" {
			body = append(body, "describe "+ps.Perm.Description)
		}
		if len(body) == 0 {
			b.WriteString(header + "\n")
			continue
		}
		b.WriteString(header + " {\n")
		for _, line := range body {
			b.WriteString("    " + line + "\n")
		}
		b.WriteString("}\n")
	}

	for _, r := range roles {
		for _, g := range e.RBAC.DirectGrants(r) {
			fmt.Fprintf(&b, "grant %s %s\n", r, g)
		}
	}
	for _, c := range classes {
		members := make([]string, len(c.Members))
		for i, m := range c.Members {
			members[i] = string(m)
		}
		sort.Strings(members)
		fmt.Fprintf(&b, "class %s %s %s %s\n", c.ID, FormatDuration(c.duration()),
			c.Scheme, strings.Join(members, " "))
	}
	for _, c := range e.RBAC.SSDConstraints() {
		fmt.Fprintf(&b, "ssd %s %d %s\n", c.Name, c.Cardinality, joinRoles(c.Roles))
	}
	for _, c := range e.RBAC.DSDConstraints() {
		fmt.Fprintf(&b, "dsd %s %d %s\n", c.Name, c.Cardinality, joinRoles(c.Roles))
	}
	return b.String()
}

func joinRoles(rs []rbac.RoleID) string {
	ss := make([]string, len(rs))
	for i, r := range rs {
		ss[i] = string(r)
	}
	return strings.Join(ss, " ")
}
