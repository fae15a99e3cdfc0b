package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/sral"
)

func TestProgramCacheInternsOnce(t *testing.T) {
	const src = "read f-s1 @ s1; { read rsw @ s1 || write scratch @ s2 }"
	c := newProgramCache()
	first, err := c.intern([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.intern([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("a repeated source was parsed again")
	}
	parsed, err := sral.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !sral.Equal(first.node, parsed) {
		t.Fatalf("interned program %s, parser gives %s", sral.String(first.node), sral.String(parsed))
	}
	if want := core.ProgramDigest(parsed); first.digest != want {
		t.Fatalf("interned digest %s, want %s", first.digest, want)
	}
}

func TestProgramCacheRejectsMalformedEveryTime(t *testing.T) {
	c := newProgramCache()
	_, want := sral.Parse("((")
	for i := 0; i < 3; i++ {
		if _, err := c.intern([]byte("((")); err == nil || err.Error() != want.Error() {
			t.Fatalf("attempt %d: %v, want %v", i, err, want)
		}
	}
	if n := len(c.entries); n != 0 {
		t.Fatalf("%d malformed programs cached", n)
	}
}

func TestProgramCacheBounded(t *testing.T) {
	c := newProgramCache()
	src := func(i int) string { return fmt.Sprintf("read f%d @ s1", i) }
	var last *internedProgram
	for i := 0; i < 3*programCacheSize; i++ {
		p, err := c.intern([]byte(src(i)))
		if err != nil {
			t.Fatal(err)
		}
		last = p
		if n := len(c.entries); n > programCacheSize {
			t.Fatalf("after %d programs the cache holds %d, bound %d", i+1, n, programCacheSize)
		}
	}
	if p, _ := c.intern([]byte(src(3*programCacheSize - 1))); p != last {
		t.Fatal("the newest program was evicted")
	}
	if _, ok := c.entries[src(0)]; ok {
		t.Fatal("the oldest program survived eviction")
	}
}

// TestTCPProgramInterned sends one program from clients on two member
// daemons at once, plus a malformed one twice. The coalition parses the
// program once, every static check lands on the row of its canonical
// digest, and the malformed program gets the same error both times.
func TestTCPProgramInterned(t *testing.T) {
	const (
		src      = "read f-s1 @ s1; read f-s2 @ s2"
		accesses = 10
	)
	c, _ := newCoalition(t)
	c.Engine.EnableCostProfiling()
	addrs := startDaemons(t, c)
	var wg sync.WaitGroup
	for _, srv := range []model.ServerID{"s1", "s2"} {
		wg.Add(1)
		go func(srv model.ServerID) {
			defer wg.Done()
			cl, err := Dial(addrs[srv])
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < accesses; i++ {
				if _, err := cl.Access(model.OpRead, "f-"+model.ResourceID(srv), src, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(srv)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if n := len(c.programs.entries); n != 1 {
		t.Fatalf("coalition interned %d programs, want 1", n)
	}
	parsed, err := sral.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	static := c.Engine.CostReport().Static
	if len(static) != 1 || static[0].ProgramDigest != core.ProgramDigest(parsed) || static[0].Checks != 2*accesses {
		t.Fatalf("static-check rows %+v, want one row of %d checks under digest %s",
			static, 2*accesses, core.ProgramDigest(parsed))
	}

	cl, err := Dial(addrs["s1"])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	_, parseErr := sral.Parse("((")
	var first string
	for i := 0; i < 2; i++ {
		_, err := cl.Access(model.OpRead, "f-s1", "((", nil)
		if err == nil || !strings.Contains(err.Error(), "access: bad program: "+parseErr.Error()) {
			t.Fatalf("malformed program, attempt %d: %v", i, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("malformed program errors differ: %q then %q", first, err.Error())
		}
	}
}
