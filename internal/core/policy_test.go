package core

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"stac/internal/model"
	"stac/internal/srac"
	"stac/internal/temporal"
	"stac/internal/workload"
)

const samplePolicy = `
# Coalition audit policy.
user o1
user officer
role auditor
role admin
role reader
inherit admin auditor
assign o1 auditor
assign officer admin

permission p-audit read module-a @ * {
    spatial  [read dep-1 @ *] >> [read module-a @ *]
    duration 10m
    scheme   global
    describe audit module-a after its dependency
}
permission p-rsw execute rsw @ * {
    spatial  count(0, 5, sigma[r=rsw])
    duration inf
}
permission p-plain read notes @ s1
grant auditor p-audit
grant auditor p-rsw
grant reader p-plain

ssd no-admin-reader 2 admin reader
dsd no-dual 2 auditor reader
`

func TestLoadPolicy(t *testing.T) {
	e := NewEngine(temporal.NewSimClock(0))
	if err := LoadPolicyString(e, samplePolicy); err != nil {
		t.Fatal(err)
	}
	users, roles, perms, _ := e.RBAC.Stats()
	if users != 2 || roles != 3 || perms != 3 {
		t.Fatalf("stats = %d users %d roles %d perms", users, roles, perms)
	}
	ps, err := e.Spec("p-audit")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Duration != 600 || ps.Scheme != temporal.GlobalBase {
		t.Fatalf("p-audit spec = %+v", ps)
	}
	if _, ok := ps.Spatial.(srac.Ordered); !ok {
		t.Fatalf("p-audit spatial = %T", ps.Spatial)
	}
	if ps.Perm.Server != "" || ps.Perm.Resource != "module-a" {
		t.Fatalf("p-audit perm = %+v", ps.Perm)
	}
	if ps.Perm.Description == "" {
		t.Fatal("describe not recorded")
	}
	rsw, err := e.Spec("p-rsw")
	if err != nil {
		t.Fatal(err)
	}
	if rsw.Duration != temporal.Infinite {
		t.Fatalf("p-rsw duration = %v", rsw.Duration)
	}
	plain, err := e.Spec("p-plain")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Spatial != nil || plain.Perm.Server != "s1" {
		t.Fatalf("p-plain spec = %+v", plain)
	}
	// The loaded policy is enforceable end to end.
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("auditor"); err != nil {
		t.Fatal(err)
	}
	d := e.Authorize(Request{Session: sess, Access: model.NewAccess("o1", "read", "module-a", "s2")})
	if !d.Granted {
		t.Fatalf("policy-driven grant failed: %s", d)
	}
}

func TestLoadPolicyErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown directive", "frobnicate x", "unknown directive"},
		{"user arity", "user", "one argument"},
		{"role arity", "role a b", "one argument"},
		{"assign arity", "assign alice", "user and role"},
		{"assign unknown", "assign alice r", "not found"},
		{"inherit arity", "inherit a", "senior and junior"},
		{"grant arity", "grant r", "role and permission"},
		{"ssd arity", "ssd x 2 a", "at least two roles"},
		{"ssd bad card", "role a\nrole b\nssd x two a b", "cardinality"},
		{"perm header", "permission p read", "header"},
		{"perm missing @", "permission p read f s1 {", "missing @"},
		{"perm trailing", "permission p read f @ s1 junk", "unexpected tokens"},
		{"perm unterminated", "permission p read f @ s1 {\nspatial T", "unterminated"},
		{"perm bad spatial", "permission p read f @ s1 {\nspatial [[\n}", "spatial"},
		{"perm bad duration", "permission p read f @ s1 {\nduration soon\n}", "duration"},
		{"perm bad scheme", "permission p read f @ s1 {\nscheme sometimes\n}", "scheme"},
		{"perm bad directive", "permission p read f @ s1 {\ncolour red\n}", "unknown permission directive"},
		{"dup user", "user a\nuser a", "exists"},
		{"line after a block", "permission p read f @ s1 {\nduration 5s\n}\nfrob", "line 4: unknown directive"},
		// An ID that is not UTF-8 would reach a JSON credential as
		// U+FFFD and name another object.
		{"user not utf-8", "user bad\xffbyte", "line 1: text is not valid UTF-8"},
		{"role not utf-8", "user a\nrole r\xc3", "line 2: text is not valid UTF-8"},
		{"assign not utf-8", "user a\nrole r\nassign a r\xff", "line 3: text is not valid UTF-8"},
		{"perm header not utf-8", "permission p\xfe read f @ s1", "line 1: text is not valid UTF-8"},
		{"perm body not utf-8", "permission p read f @ s1 {\ndescribe caf\xe9\n}", "line 2: text is not valid UTF-8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(nil)
			err := LoadPolicyString(e, tc.src)
			if err == nil {
				t.Fatalf("policy accepted: %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// A byte that is not UTF-8 inside a comment is no part of the policy.
func TestLoadPolicyAcceptsAnyBytesInComments(t *testing.T) {
	e := NewEngine(nil)
	if err := LoadPolicyString(e, "# caf\xe9\nuser a # \xff\xfe\n"); err != nil {
		t.Fatal(err)
	}
	if !e.RBAC.HasUser("a") {
		t.Fatal("user a not registered")
	}
}

// roamPolicy is the policy of the repository benchmark's roam
// workload: 4096 devices, each assigned the one role.
func roamPolicy() string {
	return workload.GeneratePolicy(workload.PolicySpec{Workers: 4096, Servers: 3, Resources: 8,
		Permissions: 8, Flavor: workload.FlavorCount, CountMax: 1000}).Text
}

// The roam policy's digest is pinned: how LoadPolicy stores its IDs
// changes no byte of the policy. Every one of its 4096 users holds the
// one role through one string, not a substring of the assign line that
// named it.
func TestRoamPolicyDigestAndSharedRole(t *testing.T) {
	e := NewEngine(nil)
	if err := LoadPolicyString(e, roamPolicy()); err != nil {
		t.Fatal(err)
	}
	const want = "9f122271951ca8eeb145400bc72f96cd4ef3623ea2ffc965a4c176852f04376c"
	if got := PolicyDigest(e); got != want {
		t.Fatalf("roam policy digest %s, want %s", got, want)
	}
	users := e.RBAC.Users()
	if len(users) != 4096 {
		t.Fatalf("%d users, want 4096", len(users))
	}
	role := unsafe.StringData(string(e.RBAC.AuthorizedRoles(users[0])[0]))
	for _, u := range users {
		rs := e.RBAC.AuthorizedRoles(u)
		if len(rs) != 1 || unsafe.StringData(string(rs[0])) != role {
			t.Fatalf("user %s holds %v through its own string, want the one shared role", u, rs)
		}
	}
}

// appendFields splits a line as strings.Fields does, Unicode white
// space included.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	buf := []string{"stale"}
	for _, s := range []string{"", " ", "user a", "  assign  a\tb ", "a\u2028b\u00a0c\u3000", "caf\u00e9 x", "x\u0085y\v\fz"} {
		buf = appendFields(buf[:0], s)
		if want := strings.Fields(s); !reflect.DeepEqual(buf, want) && len(buf)+len(want) > 0 {
			t.Fatalf("appendFields(%q) = %q, strings.Fields %q", s, buf, want)
		}
	}
}

// BenchmarkLoadPolicy loads the roam policy into a fresh engine: what
// the registry costs a starting daemon in time and allocations.
func BenchmarkLoadPolicy(b *testing.B) {
	src := roamPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := LoadPolicyString(NewEngine(nil), src); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseDuration(t *testing.T) {
	tests := []struct {
		in   string
		want float64
		err  bool
	}{
		{"30", 30, false},
		{"30s", 30, false},
		{"1.5s", 1.5, false},
		{"5m", 300, false},
		{"2h", 7200, false},
		{"250ms", 0.25, false},
		{"inf", temporal.Infinite, false},
		{"-3s", 0, true},
		{"abc", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseDuration(tt.in)
		if (err != nil) != tt.err {
			t.Errorf("ParseDuration(%q) error = %v", tt.in, err)
			continue
		}
		if !tt.err && got != tt.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{temporal.Infinite, "inf"},
		{7200, "2h"},
		{300, "5m"},
		{90, "90s"},
		{1.5, "1.5s"},
	}
	for _, tt := range tests {
		if got := FormatDuration(tt.in); got != tt.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestPolicyCommentsAndBlankLines(t *testing.T) {
	e := NewEngine(nil)
	src := "# full line comment\n\n   \nuser a # trailing comment\n"
	if err := LoadPolicyString(e, src); err != nil {
		t.Fatal(err)
	}
	if !e.RBAC.HasUser("a") {
		t.Fatal("user not added")
	}
}
