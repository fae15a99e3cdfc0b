// Package model defines the syntactic sets of the coalition mobile
// computing system model (Section 2 of Fu & Xu, IPPS 2005).
//
// A coalition environment consists of a set of cooperating servers S
// that expose shared resources R on which operations OP may be
// exercised. A mobile object o roams across the servers; each shared
// resource access is the tuple a = (o, op, r, s), meaning mobile
// object o exercises operation op on resource r at server s. The
// remaining syntactic sets — channels Z, variables V, boolean
// expressions C and signals E — support the synchronisation and
// control constructs of the SRAL language and are defined here as
// identifier types so that every other package shares one vocabulary.
package model

import (
	"errors"
	"fmt"
	"strings"
)

// ServerID names a coalition server (an element of the set S).
type ServerID string

// ResourceID names a shared resource (an element of the set R).
type ResourceID string

// Operation names an operation on shared resources (an element of the
// set OP), such as "read", "write" or "execute".
type Operation string

// ObjectID names a mobile object (the roaming computation o). Cloned
// agents receive derived IDs (see the agent package) but share the
// coalition-wide access history of their family unless a policy says
// otherwise.
type ObjectID string

// ChannelID names a communication channel (an element of the set Z).
type ChannelID string

// VarID names a program variable (an element of the set V).
type VarID string

// SignalID names an order-synchronisation signal (an element of the
// set E); signal(ξ) must be performed before wait(ξ) may proceed.
type SignalID string

// Common operations used throughout the examples and tests. The model
// places no restriction on the operation vocabulary; these are the
// file-system style operations the paper mentions.
const (
	OpRead    Operation = "read"
	OpWrite   Operation = "write"
	OpExecute Operation = "execute"
)

// Access is the shared-resource access tuple a = (o, op, r, s): mobile
// object Object exercises operation Op on resource Resource at server
// Server. Access values are comparable and may be used as map keys.
type Access struct {
	Object   ObjectID
	Op       Operation
	Resource ResourceID
	Server   ServerID
}

// NewAccess constructs the access tuple (o, op, r, s).
func NewAccess(o ObjectID, op Operation, r ResourceID, s ServerID) Access {
	return Access{Object: o, Op: op, Resource: r, Server: s}
}

// String renders the access in the paper's "op r @ s" notation,
// prefixed with the mobile object when one is set.
func (a Access) String() string {
	if a.Object == "" {
		return string(a.Op) + " " + string(a.Resource) + " @ " + string(a.Server)
	}
	return string(a.Object) + ": " + string(a.Op) + " " + string(a.Resource) + " @ " + string(a.Server)
}

// WithObject returns a copy of the access attributed to object o.
// SRAL programs are written without the object component (the object
// is implied by whoever executes the program); the interpreter stamps
// the executing object onto each access before it is checked.
func (a Access) WithObject(o ObjectID) Access {
	a.Object = o
	return a
}

// Anonymous returns a copy of the access with the object component
// cleared. Constraints that should apply to any mobile object are
// written against anonymous accesses.
func (a Access) Anonymous() Access {
	a.Object = ""
	return a
}

// Matches reports whether access b matches a treated as a pattern:
// every non-empty component of a must equal the corresponding
// component of b. An all-empty pattern matches every access.
func (a Access) Matches(b Access) bool {
	if a.Object != "" && a.Object != b.Object {
		return false
	}
	if a.Op != "" && a.Op != b.Op {
		return false
	}
	if a.Resource != "" && a.Resource != b.Resource {
		return false
	}
	if a.Server != "" && a.Server != b.Server {
		return false
	}
	return true
}

// Validate reports an error when the access misses a mandatory
// component. The object component is optional (see WithObject).
func (a Access) Validate() error {
	var missing []string
	if a.Op == "" {
		missing = append(missing, "operation")
	}
	if a.Resource == "" {
		missing = append(missing, "resource")
	}
	if a.Server == "" {
		missing = append(missing, "server")
	}
	if len(missing) > 0 {
		return fmt.Errorf("access %v: missing %s", a, strings.Join(missing, ", "))
	}
	return nil
}

// ErrUnknownServer is returned by registries and routers when a server
// id does not name a live coalition member.
var ErrUnknownServer = errors.New("model: unknown coalition server")

// ErrUnknownResource is returned by servers when an access names a
// resource they do not host.
var ErrUnknownResource = errors.New("model: unknown shared resource")

// Selector is a predicate over accesses: the σ of the paper's
// #(m, n, σ(A)) counting constraint. A selector selects the subset of
// an access set (or trace) that meets its conditions.
//
// The zero Selector selects every access. Non-empty fields restrict by
// equality; the sets are alternatives (OR within a field, AND across
// fields). For example Selector{Resources: {"rsw-licensed","rsw-trial"}}
// is the σ_RSW of Example 3.5: it selects accesses to the restricted
// software package in either form, at any server, by any object.
type Selector struct {
	// Name labels the selector in diagnostics and policy files.
	Name string
	// Objects restricts to accesses by any of these mobile objects.
	Objects []ObjectID
	// Ops restricts to any of these operations.
	Ops []Operation
	// Resources restricts to any of these resources.
	Resources []ResourceID
	// Servers restricts to accesses performed at any of these servers.
	Servers []ServerID
}

// SelectAccess reports whether the selector selects access a.
func (sel Selector) SelectAccess(a Access) bool {
	if len(sel.Objects) > 0 && !containsID(sel.Objects, a.Object) {
		return false
	}
	if len(sel.Ops) > 0 && !containsID(sel.Ops, a.Op) {
		return false
	}
	if len(sel.Resources) > 0 && !containsID(sel.Resources, a.Resource) {
		return false
	}
	if len(sel.Servers) > 0 && !containsID(sel.Servers, a.Server) {
		return false
	}
	return true
}

// Empty reports whether the selector has no restrictions (selects all).
func (sel Selector) Empty() bool {
	return len(sel.Objects) == 0 && len(sel.Ops) == 0 &&
		len(sel.Resources) == 0 && len(sel.Servers) == 0
}

// String renders the selector in a compact σ-notation used by the
// SRAC printer, e.g. `sigma[op=read,write; r=f1; s=s1]`.
func (sel Selector) String() string {
	if sel.Name != "" {
		return "sigma:" + sel.Name
	}
	var parts []string
	if len(sel.Objects) > 0 {
		parts = append(parts, "o="+joinIDs(sel.Objects))
	}
	if len(sel.Ops) > 0 {
		parts = append(parts, "op="+joinIDs(sel.Ops))
	}
	if len(sel.Resources) > 0 {
		parts = append(parts, "r="+joinIDs(sel.Resources))
	}
	if len(sel.Servers) > 0 {
		parts = append(parts, "s="+joinIDs(sel.Servers))
	}
	if len(parts) == 0 {
		return "sigma[*]"
	}
	return "sigma[" + strings.Join(parts, "; ") + "]"
}

func containsID[T ~string](xs []T, x T) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func joinIDs[T ~string](xs []T) string {
	ss := make([]string, len(xs))
	for i, v := range xs {
		ss[i] = string(v)
	}
	return strings.Join(ss, ",")
}
