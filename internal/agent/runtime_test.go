package agent

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"stac/internal/model"
	"stac/internal/server"
)

// TestRuntimesAgree runs every program through both runtimes — the
// in-process Launch and the RemoteRuntime over TCP — against a fresh
// roamPolicy coalition each, and asserts the same verdict sequence and
// proof count on both.
func TestRuntimesAgree(t *testing.T) {
	runtimes := []struct {
		name string
		run  func(c *server.Coalition, ag *Agent) error
	}{
		{"inprocess", func(c *server.Coalition, ag *Agent) error { return Launch(c, ag) }},
		{"tcp", func(c *server.Coalition, ag *Agent) error {
			return (&RemoteRuntime{Addrs: startTCP(t, c)}).Launch(ag)
		}},
	}
	cases := []struct {
		name string
		prog string
		// want lists the granted accesses in order, then "deny" when
		// the run ends on a denial.
		want   []string
		proofs int
		// anyOrder compares want as a multiset, for parallel branches
		// that race each other.
		anyOrder bool
	}{
		{
			name:   "roam",
			prog:   "read f-s1 @ s1; read f-s2 @ s2; read f-s3 @ s3",
			want:   []string{"read f-s1 @ s1", "read f-s2 @ s2", "read f-s3 @ s3"},
			proofs: 3,
		},
		{
			// The loop keeps the program statically admissible; the 3rd
			// rsw read is denied at a server the agent never visited.
			name: "ceiling-across-servers",
			prog: `ch ! 3; ch ? x;
				while x > 0 do {
					if x == 3 then { read rsw @ s1 };
					if x == 2 then { read rsw @ s2 };
					if x == 1 then { read rsw @ s3 };
					ch ! x - 1; ch ? x
				}`,
			want:   []string{"read rsw @ s1", "read rsw @ s2", "deny"},
			proofs: 2,
		},
		{
			name:   "static-reject",
			prog:   "read rsw @ s1; read rsw @ s1; read rsw @ s1",
			want:   []string{"deny"},
			proofs: 0,
		},
		{
			name:     "parallel-clones",
			prog:     "read f-s1 @ s1 || read f-s2 @ s2 || read f-s3 @ s3",
			want:     []string{"read f-s1 @ s1", "read f-s2 @ s2", "read f-s3 @ s3"},
			proofs:   3,
			anyOrder: true,
		},
		{
			name:   "channels-and-signals",
			prog:   "{ ch ! 7; wait(done) } || { ch ? x; read f-s1 @ s1; signal(done) }",
			want:   []string{"read f-s1 @ s1"},
			proofs: 1,
		},
		{
			// The right clone decides after the left one's grant, on a
			// connection dialled before it: the sibling's proof must
			// reach its history, or the third rsw read overshoots the
			// ceiling of 2.
			name: "sibling-ceiling",
			prog: `ch ! 1; ch ? x; read rsw @ s1;
				{ wait(a); read rsw @ s1; signal(b) } ||
				{ signal(a); wait(b); if x == 1 then { read rsw @ s1 } }`,
			want:   []string{"read rsw @ s1", "read rsw @ s1", "deny"},
			proofs: 2,
		},
	}
	for _, tc := range cases {
		for _, r := range runtimes {
			t.Run(tc.name+"/"+r.name, func(t *testing.T) {
				c, _ := newCoalition(t)
				ag := newAgent(t, c, "o1", tc.prog)
				var mu sync.Mutex
				var got []string
				ag.Hooks.OnAccess = func(a model.Access, _ []byte) {
					mu.Lock()
					got = append(got, fmt.Sprintf("%s %s @ %s", a.Op, a.Resource, a.Server))
					mu.Unlock()
				}
				err := r.run(c, ag)
				switch {
				case errors.Is(err, server.ErrDenied):
					got = append(got, "deny")
				case err != nil:
					t.Fatalf("run: %v", err)
				}
				want := tc.want
				if tc.anyOrder {
					got, want = sorted(got), sorted(want)
				}
				if strings.Join(got, ", ") != strings.Join(want, ", ") {
					t.Fatalf("verdicts = %v, want %v (err %v)", got, want, err)
				}
				if n := ag.Proofs.Len(); n != tc.proofs {
					t.Fatalf("proofs = %d, want %d", n, tc.proofs)
				}
			})
		}
	}
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
