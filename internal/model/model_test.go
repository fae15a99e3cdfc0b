package model

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAccess(t *testing.T) {
	a := NewAccess("agent1", OpRead, "f1", "s1")
	if a.Object != "agent1" || a.Op != OpRead || a.Resource != "f1" || a.Server != "s1" {
		t.Fatalf("NewAccess produced %+v", a)
	}
}

func TestAccessString(t *testing.T) {
	tests := []struct {
		a    Access
		want string
	}{
		{Access{Op: OpRead, Resource: "f1", Server: "s1"}, "read f1 @ s1"},
		{Access{Object: "o1", Op: OpWrite, Resource: "r2", Server: "s2"}, "o1: write r2 @ s2"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// String is built by concatenation; each form must equal the Sprintf
// it replaced.
func TestAccessStringMatchesSprintf(t *testing.T) {
	for _, a := range []Access{
		{},
		{Op: OpRead, Resource: "f1", Server: "s1"},
		{Object: "o1", Op: OpWrite, Resource: "f2", Server: "s2"},
		{Object: "o:1", Op: "op with space", Resource: "@", Server: ""},
	} {
		want := fmt.Sprintf("%s: %s %s @ %s", a.Object, a.Op, a.Resource, a.Server)
		if a.Object == "" {
			want = fmt.Sprintf("%s %s @ %s", a.Op, a.Resource, a.Server)
		}
		if got := a.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", a, got, want)
		}
	}
}

func TestWithObjectAndAnonymous(t *testing.T) {
	a := Access{Op: OpRead, Resource: "f1", Server: "s1"}
	b := a.WithObject("bot")
	if b.Object != "bot" {
		t.Fatalf("WithObject did not set object: %+v", b)
	}
	if a.Object != "" {
		t.Fatalf("WithObject mutated receiver: %+v", a)
	}
	if c := b.Anonymous(); c.Object != "" || c.Op != OpRead {
		t.Fatalf("Anonymous() = %+v", c)
	}
}

func TestAccessMatches(t *testing.T) {
	target := NewAccess("o1", OpRead, "f1", "s1")
	tests := []struct {
		name    string
		pattern Access
		want    bool
	}{
		{"empty pattern matches everything", Access{}, true},
		{"exact match", target, true},
		{"op only", Access{Op: OpRead}, true},
		{"wrong op", Access{Op: OpWrite}, false},
		{"resource+server", Access{Resource: "f1", Server: "s1"}, true},
		{"wrong server", Access{Server: "s9"}, false},
		{"wrong object", Access{Object: "o2"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.pattern.Matches(target); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAccessValidate(t *testing.T) {
	if err := (Access{Op: OpRead, Resource: "f1", Server: "s1"}).Validate(); err != nil {
		t.Fatalf("valid access rejected: %v", err)
	}
	err := (Access{Op: OpRead}).Validate()
	if err == nil {
		t.Fatal("access missing resource and server accepted")
	}
	if !strings.Contains(err.Error(), "resource") || !strings.Contains(err.Error(), "server") {
		t.Fatalf("error should name missing parts: %v", err)
	}
	if err := (Access{Resource: "r", Server: "s"}).Validate(); err == nil {
		t.Fatal("access missing operation accepted")
	}
}

func TestSelectorEmpty(t *testing.T) {
	if !(Selector{}).Empty() {
		t.Fatal("zero selector should be Empty")
	}
	if (Selector{Ops: []Operation{OpRead}}).Empty() {
		t.Fatal("selector with restriction should not be Empty")
	}
}

func TestSelectorSelectAccess(t *testing.T) {
	a := NewAccess("o1", OpRead, "rsw-licensed", "s1")
	tests := []struct {
		name string
		sel  Selector
		want bool
	}{
		{"empty selects all", Selector{}, true},
		{"matching resource alternative", Selector{Resources: []ResourceID{"rsw-licensed", "rsw-trial"}}, true},
		{"non-matching resource", Selector{Resources: []ResourceID{"other"}}, false},
		{"op and server", Selector{Ops: []Operation{OpRead}, Servers: []ServerID{"s1"}}, true},
		{"op matches server does not", Selector{Ops: []Operation{OpRead}, Servers: []ServerID{"s2"}}, false},
		{"object restriction", Selector{Objects: []ObjectID{"o1"}}, true},
		{"object mismatch", Selector{Objects: []ObjectID{"o2"}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.sel.SelectAccess(a); got != tt.want {
				t.Errorf("SelectAccess = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSelectorString(t *testing.T) {
	if got := (Selector{Name: "RSW"}).String(); got != "sigma:RSW" {
		t.Errorf("named selector String = %q", got)
	}
	if got := (Selector{}).String(); got != "sigma[*]" {
		t.Errorf("empty selector String = %q", got)
	}
	s := Selector{Ops: []Operation{OpRead, OpWrite}, Servers: []ServerID{"s1"}}
	got := s.String()
	if !strings.Contains(got, "op=read,write") || !strings.Contains(got, "s=s1") {
		t.Errorf("selector String = %q", got)
	}
}

// Property: an access always matches itself as a pattern, and the
// empty pattern matches every access.
func TestAccessMatchesReflexive(t *testing.T) {
	f := func(o, op, r, s string) bool {
		a := NewAccess(ObjectID(o), Operation(op), ResourceID(r), ServerID(s))
		return a.Matches(a) && (Access{}).Matches(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WithObject then Anonymous is the identity on anonymous
// accesses.
func TestWithObjectAnonymousRoundTrip(t *testing.T) {
	f := func(o, op, r, s string) bool {
		a := Access{Op: Operation(op), Resource: ResourceID(r), Server: ServerID(s)}
		return a.WithObject(ObjectID(o)).Anonymous() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a selector listing exactly an access's components selects
// that access.
func TestSelectorSelectsOwnComponents(t *testing.T) {
	f := func(o, op, r, s string) bool {
		a := NewAccess(ObjectID(o), Operation(op), ResourceID(r), ServerID(s))
		sel := Selector{
			Objects:   []ObjectID{a.Object},
			Ops:       []Operation{a.Op},
			Resources: []ResourceID{a.Resource},
			Servers:   []ServerID{a.Server},
		}
		return sel.SelectAccess(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
