package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
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
	if n := c.entries.Len(); n != 0 {
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
		if n := c.entries.Len(); n > programCacheSize {
			t.Fatalf("after %d programs the cache holds %d, bound %d", i+1, n, programCacheSize)
		}
	}
	if p, _ := c.intern([]byte(src(3*programCacheSize - 1))); p != last {
		t.Fatal("the newest program was evicted")
	}
	if _, ok := c.entries.Get(sha256.Sum256([]byte(src(0)))); ok {
		t.Fatal("the oldest program survived eviction")
	}
}

// TestTCPProgramInterned sends one program from clients on two member
// daemons at once, plus a malformed one twice. The coalition parses the
// program once, and the malformed program gets the same error both
// times.
func TestTCPProgramInterned(t *testing.T) {
	const (
		src      = "read f-s1 @ s1; read f-s2 @ s2"
		accesses = 10
	)
	c, _ := newCoalition(t)
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

	if n := c.programs.entries.Len(); n != 1 {
		t.Fatalf("coalition interned %d programs, want 1", n)
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

// sha names a program text as a Client names it on the wire.
func sha(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// decideRecords counts the decide records in the coalition's decision
// log.
func decideRecords(c *Coalition) int {
	n := 0
	for _, r := range c.Engine.Recorder().Records() {
		if r.Kind == record.KindDecide {
			n++
		}
	}
	return n
}

// dedupHolds reports whether the daemon's dedup window holds request id
// of object obj.
func dedupHolds(d *Daemon, obj model.ObjectID, id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.seen.Get(dedupKey{obj: obj, id: id})
	return ok
}

// sentLines records the access requests a Client writes, decoded.
type sentLines struct {
	net.Conn
	mu   sync.Mutex
	reqs []wireRequest
}

func (s *sentLines) Write(b []byte) (int, error) {
	var req wireRequest
	if err := json.Unmarshal(b, &req); err == nil && req.Type == "access" {
		s.mu.Lock()
		s.reqs = append(s.reqs, req)
		s.mu.Unlock()
	}
	return s.Conn.Write(b)
}

// take returns the access requests written since the last take.
func (s *sentLines) take() []wireRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reqs
	s.reqs = nil
	return out
}

// dialSentLines dials addr with a Client whose access requests are
// recorded.
func dialSentLines(t *testing.T, addr string) (*Client, *sentLines) {
	t.Helper()
	sent := &sentLines{}
	cl, err := DialConfig(addr, ClientConfig{Dial: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		sent.Conn = conn
		return sent, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl, sent
}

// An access naming a program by a digest the coalition does not hold is
// answered before anything is decided: no decision, no decide record,
// no proof and no dedup entry. The resend with the text, under the same
// request ID, is decided once.
func TestTCPUnknownProgramRefusedBeforeDeciding(t *testing.T) {
	const src = "read f-s1 @ s1; read f-s2 @ s2"
	c, _ := newCoalition(t)
	d, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: obs.NewRegistry()})
	rc := dialRaw(t, addr)
	tok := rc.auth(cred(c, "o1", "owner", "traveler"))
	req := wireRequest{Type: "access", Token: tok, Op: string(model.OpRead), Resource: "f-s1",
		ProgramSHA: sha(src), ID: "r1"}

	resp := rc.send(req)
	if resp.OK || resp.Error != msgUnknownProgram || resp.DecisionID != "" || resp.Proof != nil {
		t.Fatalf("reply to an unknown digest = %+v, want %q and no decision", resp, msgUnknownProgram)
	}
	if n := decideRecords(c); n != 0 {
		t.Fatalf("%d decide records after the refused access, want 0", n)
	}
	if dedupHolds(d, "o1", "r1") {
		t.Fatal("the refused access entered the dedup window")
	}

	req.Program = src
	resp = rc.send(req)
	if !resp.OK || resp.DecisionID == "" || resp.Proof == nil {
		t.Fatalf("resend with the text = %+v, want a grant", resp)
	}
	if n := decideRecords(c); n != 1 {
		t.Fatalf("%d decide records after the resend, want 1", n)
	}
	if !dedupHolds(d, "o1", "r1") {
		t.Fatal("the decided resend is not in the dedup window")
	}
	// Now held, the digest alone is enough, and names the same program.
	req.Program, req.ID = "", "r2"
	if resp := rc.send(req); !resp.OK {
		t.Fatalf("access by a held digest = %+v", resp)
	}
}

// A Client names a program by digest after the connection carried its
// text. Once another client's 64 programs have evicted it from the
// coalition's cache, the next access naming it is refused as unknown,
// and the Client's one resend with the text is decided once.
func TestTCPEvictedProgramRecovers(t *testing.T) {
	const src = "read f-s1 @ s1"
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: obs.NewRegistry()})
	cl, sent := dialSentLines(t, addr)
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	access := func(program string) []wireRequest {
		t.Helper()
		before := decideRecords(c)
		if _, err := cl.Access(model.OpRead, "f-s1", program, nil); err != nil {
			t.Fatalf("access declaring %q: %v", program, err)
		}
		if n := decideRecords(c) - before; n != 1 {
			t.Fatalf("access declaring %q made %d decide records, want 1", program, n)
		}
		return sent.take()
	}

	if reqs := access(src); len(reqs) != 1 || reqs[0].Program != src {
		t.Fatalf("first access sent %+v, want the text once", reqs)
	}
	if reqs := access(src); len(reqs) != 1 || reqs[0].Program != "" || reqs[0].ProgramSHA != sha(src) {
		t.Fatalf("second access sent %+v, want the digest alone", reqs)
	}
	// Another client of the coalition declares 64 other programs.
	evict, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer evict.Close()
	if err := evict.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	for i := range programCacheSize {
		if _, err := evict.Access(model.OpRead, "f-s1", fmt.Sprintf("read f-s1 @ s1; read f-s%d @ s2", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.programs.lookup(sha256.Sum256([]byte(src))); ok {
		t.Fatalf("the first program survived %d newer ones", programCacheSize)
	}
	reqs := access(src)
	if len(reqs) != 2 || reqs[0].ProgramSHA != sha(src) || reqs[0].Program != "" ||
		reqs[1].Program != src || reqs[1].ID != reqs[0].ID {
		t.Fatalf("access after eviction sent %+v, want the digest, then the text under the same ID", reqs)
	}
	if reqs := access(src); len(reqs) != 1 || reqs[0].ProgramSHA != sha(src) {
		t.Fatalf("access after recovery sent %+v, want the digest alone", reqs)
	}
}

// The daemon keys a program by the digest of the text it received,
// never by the digest a client claims for it: text sent beside a wrong
// program_sha is interned under its own digest, and another client
// naming the wrong digest gets an unknown program, not that text.
func TestTCPProgramDigestIsTheDaemonsOwn(t *testing.T) {
	const (
		src   = "read f-s1 @ s1"
		other = "read rsw @ s1; read rsw @ s1; read rsw @ s1"
	)
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{Obs: obs.NewRegistry()})
	first := dialRaw(t, addr)
	tok := first.auth(cred(c, "o1", "owner", "traveler"))
	resp := first.send(wireRequest{Type: "access", Token: tok, Op: string(model.OpRead), Resource: "f-s1",
		Program: src, ProgramSHA: sha(other)})
	if !resp.OK {
		t.Fatalf("access with text and a wrong digest = %+v", resp)
	}
	if _, ok := c.programs.lookup(sha256.Sum256([]byte(src))); !ok {
		t.Fatal("the text was not interned under its own digest")
	}
	if _, ok := c.programs.lookup(sha256.Sum256([]byte(other))); ok {
		t.Fatal("the text was interned under the digest its client claimed")
	}

	second := dialRaw(t, addr)
	tok2 := second.auth(cred(c, "o1", "owner", "traveler"))
	for _, name := range []string{sha(other), strings.ToUpper(sha(other)), "not hex", sha(src)[:62]} {
		resp := second.send(wireRequest{Type: "access", Token: tok2, Op: string(model.OpRead), Resource: "f-s1",
			ProgramSHA: name})
		if resp.OK || resp.Error != msgUnknownProgram {
			t.Fatalf("access naming %q = %+v, want %q", name, resp, msgUnknownProgram)
		}
	}
	if resp := second.send(wireRequest{Type: "access", Token: tok2, Op: string(model.OpRead), Resource: "f-s1",
		ProgramSHA: sha(src)}); !resp.OK {
		t.Fatalf("access naming the text's own digest = %+v", resp)
	}
}
