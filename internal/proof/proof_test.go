package proof

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"stac/internal/model"
	"stac/internal/srac"
)

var key = []byte("coalition-test-key")

func acc(o, op, r, s string) model.Access {
	return model.Access{
		Object:   model.ObjectID(o),
		Op:       model.Operation(op),
		Resource: model.ResourceID(r),
		Server:   model.ServerID(s),
	}
}

func TestIssueVerify(t *testing.T) {
	s := NewSigner(key)
	p := s.Issue(acc("o1", "read", "f1", "s1"), 12.5)
	if err := s.Verify(p); err != nil {
		t.Fatalf("verify fresh proof: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	s := NewSigner(key)
	p := s.Issue(acc("o1", "read", "f1", "s1"), 12.5)
	cases := []func(Proof) Proof{
		func(p Proof) Proof { p.Access.Resource = "f2"; return p },
		func(p Proof) Proof { p.Access.Object = "o2"; return p },
		func(p Proof) Proof { p.Access.Server = "s2"; return p },
		func(p Proof) Proof { p.Time = 99; return p },
		func(p Proof) Proof { p.Sig = p.Sig[:len(p.Sig)-2] + "00"; return p },
		func(p Proof) Proof { p.Sig = "zz" + p.Sig[2:]; return p }, // bad hex
	}
	for i, mutate := range cases {
		if err := s.Verify(mutate(p)); err == nil {
			t.Errorf("tampered proof %d accepted", i)
		}
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	s1 := NewSigner(key)
	s2 := NewSigner([]byte("other-key"))
	p := s1.Issue(acc("o1", "read", "f1", "s1"), 1)
	if err := s2.Verify(p); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong-key verify = %v", err)
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	s := NewSigner(key)
	p := s.Issue(model.Access{Op: "read", Resource: "f1", Server: "s1"}, 1)
	if err := s.Verify(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("objectless proof = %v", err)
	}
	bad := s.Issue(acc("o1", "read", "f1", "s1"), 1)
	bad.Access.Op = ""
	if err := s.Verify(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("malformed access = %v", err)
	}
}

func TestSignerKeyIsCopied(t *testing.T) {
	k := []byte("mutable-key")
	s := NewSigner(k)
	p := s.Issue(acc("o1", "read", "f1", "s1"), 1)
	k[0] = 'X'
	if err := s.Verify(p); err != nil {
		t.Fatal("signer shares caller's key slice")
	}
}

func TestStoreAddProvenExact(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	a := acc("o1", "read", "f1", "s1")
	if st.Proven(a) {
		t.Fatal("empty store proves access")
	}
	if err := st.Add(s.Issue(a, 1)); err != nil {
		t.Fatal(err)
	}
	if !st.Proven(a) {
		t.Fatal("stored proof not found")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestStoreRejectsForgedProof(t *testing.T) {
	st := NewStore(NewSigner(key))
	forged := NewSigner([]byte("attacker")).Issue(acc("o1", "read", "f1", "s1"), 1)
	if err := st.Add(forged); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged proof Add = %v", err)
	}
	if st.Len() != 0 {
		t.Fatal("forged proof stored")
	}
}

func TestStorePatternProven(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	if err := st.Add(s.Issue(acc("o1", "read", "f1", "s1"), 1)); err != nil {
		t.Fatal(err)
	}
	// Anonymous pattern matches.
	if !st.Proven(model.Access{Op: "read", Resource: "f1", Server: "s1"}) {
		t.Fatal("pattern lookup failed")
	}
	if st.Proven(model.Access{Op: "write", Resource: "f1", Server: "s1"}) {
		t.Fatal("wrong pattern matched")
	}
	// Store satisfies the srac oracle interface.
	var _ srac.ProofOracle = st
}

func TestStoreCountMatching(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	for i, sv := range []string{"s1", "s2", "s1"} {
		if err := st.Add(s.Issue(acc("o1", "execute", "rsw", sv), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.CountMatching(model.Selector{Resources: []model.ResourceID{"rsw"}}); n != 3 {
		t.Fatalf("CountMatching = %d", n)
	}
	if n := st.CountMatching(model.Selector{Servers: []model.ServerID{"s1"}}); n != 2 {
		t.Fatalf("CountMatching s1 = %d", n)
	}
}

func TestStoreTraceOrders(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	a1 := acc("o1", "read", "f1", "s1")
	a2 := acc("o1", "read", "f2", "s2")
	a3 := acc("o1", "read", "f3", "s3")
	// Inserted in causal (execution) order, but with skewed
	// cross-server timestamps: s2's clock is far ahead.
	if err := st.Add(s.Issue(a1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(s.Issue(a2, 500)); err != nil { // skewed clock
		t.Fatal(err)
	}
	if err := st.Add(s.Issue(a3, 9)); err != nil {
		t.Fatal(err)
	}
	// Trace preserves the causal insertion order regardless of skew.
	tr := st.Trace()
	if len(tr) != 3 || tr[0] != a1 || tr[1] != a2 || tr[2] != a3 {
		t.Fatalf("Trace = %v", tr)
	}
	// TraceByTime follows the (skewed) timestamps.
	byTime := st.TraceByTime()
	if byTime[0] != a1 || byTime[1] != a3 || byTime[2] != a2 {
		t.Fatalf("TraceByTime = %v", byTime)
	}
}

func TestStoreMarshalRoundTrip(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	for i := 0; i < 5; i++ {
		if err := st.Add(s.Issue(acc("o1", "read", string(rune('a'+i)), "s1"), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(s)
	if err := st2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 5 {
		t.Fatalf("restored Len = %d", st2.Len())
	}
	// Tampering with serialised proofs is caught on load.
	tampered := []byte(string(data[:len(data)-20]) + `1}]` + "")
	_ = tampered
	var bad []Proof
	_ = bad
	mutated := make([]byte, len(data))
	copy(mutated, data)
	for i := range mutated {
		if mutated[i] == 'f' {
			mutated[i] = 'g'
			break
		}
	}
	st3 := NewStore(s)
	if err := st3.Unmarshal(mutated); err == nil {
		t.Fatal("tampered serialisation accepted")
	}
	if err := st3.Unmarshal([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a := acc("o1", "read", string(rune('a'+g)), "s1")
				_ = st.Add(s.Issue(a, float64(i)))
				st.Proven(a)
				st.CountMatching(model.Selector{})
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != 800 {
		t.Fatalf("concurrent adds lost proofs: %d", st.Len())
	}
}

func TestCredentials(t *testing.T) {
	s := NewSigner(key)
	c := s.IssueCredential("o1", "song@wayne.edu", []string{"NapletPrincipal", "auditor"})
	if err := s.VerifyCredential(c); err != nil {
		t.Fatalf("verify credential: %v", err)
	}
	c2 := c
	c2.Owner = "mallory@evil.example"
	if err := s.VerifyCredential(c2); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered owner = %v", err)
	}
	c3 := c
	c3.Roles = append([]string{}, "root")
	if err := s.VerifyCredential(c3); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered roles = %v", err)
	}
	if err := s.VerifyCredential(Credential{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty credential = %v", err)
	}
	c4 := c
	c4.Sig = "not-hex"
	if err := s.VerifyCredential(c4); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad hex credential = %v", err)
	}
}

func TestCredentialRolesCopied(t *testing.T) {
	s := NewSigner(key)
	roles := []string{"a", "b"}
	c := s.IssueCredential("o1", "owner", roles)
	roles[0] = "mutated"
	if err := s.VerifyCredential(c); err != nil {
		t.Fatal("credential shares caller's roles slice")
	}
}

// Property: Issue/Verify round-trips for arbitrary access components
// and times.
func TestIssueVerifyProperty(t *testing.T) {
	s := NewSigner(key)
	f := func(o, op, r, sv string, tm float64) bool {
		if o == "" || op == "" || r == "" || sv == "" {
			return true // Verify rejects these by design
		}
		p := s.Issue(acc(o, op, r, sv), tm)
		return s.Verify(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a proof body is never valid under a different access.
func TestNoCrossAccessForgery(t *testing.T) {
	s := NewSigner(key)
	f := func(r1, r2 string) bool {
		if r1 == "" || r2 == "" || r1 == r2 {
			return true
		}
		p := s.Issue(acc("o1", "read", r1, "s1"), 1)
		p.Access.Resource = model.ResourceID(r2)
		return s.Verify(p) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNonceMakesIdenticalAccessesDistinct(t *testing.T) {
	s := NewSigner(key)
	a := acc("o1", "read", "rsw", "s1")
	p1 := s.Issue(a, 5)
	p2 := s.Issue(a, 5)
	if p1.Sig == p2.Sig {
		t.Fatal("two issues of the same access share a signature")
	}
	if err := s.Verify(p1); err != nil {
		t.Fatal(err)
	}
	// Tampering with the nonce invalidates the proof.
	p1.Nonce = p2.Nonce
	if err := s.Verify(p1); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("nonce swap accepted: %v", err)
	}
}

func TestMergedTraceDedupsAndOrders(t *testing.T) {
	s := NewSigner(key)
	ledger := NewStore(s)
	carried := NewStore(s)
	p1 := s.Issue(acc("o1", "read", "f1", "s1"), 1)
	p2 := s.Issue(acc("o2", "read", "f2", "s2"), 2)
	p3 := s.Issue(acc("o1", "read", "f3", "s1"), 3)
	// Ledger has everything; the carried store has o1's own proofs —
	// overlapping with the ledger.
	for _, p := range []Proof{p1, p2, p3} {
		if err := ledger.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []Proof{p1, p3} {
		if err := carried.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	tr := MergedTrace(ledger, carried)
	if len(tr) != 3 {
		t.Fatalf("merged trace = %v", tr)
	}
	if tr[0].Resource != "f1" || tr[1].Resource != "f2" || tr[2].Resource != "f3" {
		t.Fatalf("merged order = %v", tr)
	}
	// Nil stores are skipped.
	if got := MergedTrace(nil, carried, nil); len(got) != 2 {
		t.Fatalf("nil-skipping merge = %v", got)
	}
	if got := MergedTrace(); len(got) != 0 {
		t.Fatalf("empty merge = %v", got)
	}
}

func TestMergedOracle(t *testing.T) {
	s := NewSigner(key)
	st1 := NewStore(s)
	st2 := NewStore(s)
	a1 := acc("o1", "read", "f1", "s1")
	a2 := acc("o2", "read", "f2", "s2")
	if err := st1.Add(s.Issue(a1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Add(s.Issue(a2, 2)); err != nil {
		t.Fatal(err)
	}
	oracle := MergedOracle(st1, nil, st2)
	if !oracle(a1) || !oracle(a2) {
		t.Fatal("merged oracle missed a store")
	}
	if oracle(acc("o3", "read", "f9", "s9")) {
		t.Fatal("merged oracle over-proves")
	}
}

// TestStoreTraceRacesUnmarshal reads the history while another
// goroutine replaces it: Trace must read the log under the store's lock,
// which Unmarshal holds while it swaps the log in. Under -race a bare
// field read here is reported.
func TestStoreTraceRacesUnmarshal(t *testing.T) {
	s := NewSigner(key)
	src := NewStore(s)
	for i := 0; i < 3; i++ {
		if err := src.Add(s.Issue(acc("o1", "read", "f", "s1"), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(s)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := st.Unmarshal(data); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if n := len(st.Trace()); n != 0 && n != 3 {
				t.Errorf("trace of %d entries, want 0 or 3", n)
				return
			}
		}
	}()
	wg.Wait()
}

// TestStorePeekKeepsStatePerMonitor follows one monitor state on a
// store: each Peek steps only the proofs added since the last one plus
// the requested access, never commits that access, refuses a history
// that is not the store's current trace, restarts after Unmarshal, and
// keeps states apart per monitor and object, at most maxMonitors.
func TestStorePeekKeepsStatePerMonitor(t *testing.T) {
	s := NewSigner(key)
	st := NewStore(s)
	read := acc("o1", "read", "f", "s1")
	ceiling := srac.AtMost(2, model.Selector{Resources: []model.ResourceID{"f"}})
	m := srac.Compile(ceiling)
	peek := func(hist []model.Access, obj model.ObjectID) (srac.NodeEval, int, bool) {
		t.Helper()
		nodes, n, ok := st.Peek(m, obj, hist, acc(string(obj), "read", "f", "s1"), nil, false)
		if !ok {
			return srac.NodeEval{}, n, false
		}
		return nodes[0], n, true
	}
	for i := 0; i < 3; i++ {
		root, n, ok := peek(st.Trace(), "o1")
		if !ok || root.Count != i+1 {
			t.Fatalf("peek %d: count %d ok %v, want %d", i, root.Count, ok, i+1)
		}
		if want := map[bool]int{true: 1, false: 2}[i == 0]; n != want {
			t.Fatalf("peek %d consumed %d entries, want %d", i, n, want)
		}
		if err := st.Add(s.Issue(read, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if root, _, _ := peek(st.Trace(), "o1"); root.Status != srac.Violated {
		t.Fatalf("fourth read over count(0,2) = %s, want violated", root.Status)
	}
	// A stale view is refused, not evaluated.
	stale := st.Trace()[:2]
	if _, _, ok := peek(stale, "o1"); ok {
		t.Fatal("peek over a stale view accepted")
	}
	// Another object's state starts from the beginning: o2 did none of
	// o1's reads.
	if root, n, _ := peek(st.Trace(), "o2"); root.Count != 1 || n != 4 {
		t.Fatalf("o2 peek: count %d consumed %d, want 1 and 4", root.Count, n)
	}
	// Unmarshal replaces the history, and the states with it.
	data, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if _, n, ok := peek(st.Trace(), "o1"); !ok || n != 4 {
		t.Fatalf("after Unmarshal consumed %d ok %v, want a fresh catch-up of 4", n, ok)
	}
	// Past maxMonitors the oldest state goes.
	for i := 0; i < maxMonitors; i++ {
		if _, _, ok := st.Peek(srac.Compile(ceiling), "o1", st.Trace(), read, nil, false); !ok {
			t.Fatal("peek refused")
		}
	}
	if len(st.mons) != maxMonitors {
		t.Fatalf("%d monitor states kept, want %d", len(st.mons), maxMonitors)
	}
	if _, n, _ := peek(st.Trace(), "o1"); n != 4 {
		t.Fatalf("evicted state consumed %d, want a fresh catch-up of 4", n)
	}
}

// TestSignaturesPinned holds proof and credential signatures to the
// bytes the coalition has always issued: a change to how a body is
// serialised or a MAC is keyed would strand every proof in flight.
func TestSignaturesPinned(t *testing.T) {
	s := NewSigner([]byte("pinned-coalition-key"))
	for _, c := range []struct {
		a     model.Access
		t     float64
		nonce string
		sig   string
	}{
		{model.NewAccess("dev-1", "read", "f1", "s1"), 12.5, "0011223344556677",
			"1d7911a7b789a80a967287cb223be7940ba3ce1ee9244fe78099ec8efc1084ed"},
		{model.NewAccess("o2", "write", "plan", "s3"), 1e-7, "deadbeefcafef00d",
			"e69f33a339edfc43571217034a23a3477bcfd8cabf97a1e080990828db4903f9"},
		{model.NewAccess("auditor-1", "execute", "bin", "hq"), 0, "",
			"61578e383ae3151c175ff651372d6184517ad5ff843e02f928a03acb2237119f"},
	} {
		p := s.issue(c.a, c.t, c.nonce)
		if p.Sig != c.sig {
			t.Errorf("proof %v at %v: sig %s, want %s", c.a, c.t, p.Sig, c.sig)
		}
		if err := s.Verify(p); err != nil {
			t.Errorf("pinned proof %v: %v", c.a, err)
		}
		p.Sig = strings.ToUpper(p.Sig)
		if err := s.Verify(p); err != nil {
			t.Errorf("upper-case hex of pinned proof %v: %v", c.a, err)
		}
	}
	for _, c := range []struct {
		o     model.ObjectID
		owner string
		roles []string
		sig   string
	}{
		{"dev-1", "owner@hq", []string{"courier"},
			"4a688e408503b1437976cdf801dc57e571d5eebad5b1c3fd6464f54fe6cbe9a3"},
		{"o2", "alice", []string{"worker", "auditor", "field"},
			"cc57fb8052a11f64863fc682b5593fed96090924c9d591e79a6167c64a5027c7"},
		{"o3", "bob", nil,
			"b6a7f43993e944b3e9bfda4eebadfbbdb31035f3f35ad41a1cab67025e1436ae"},
	} {
		cred := s.IssueCredential(c.o, c.owner, c.roles)
		if cred.Sig != c.sig {
			t.Errorf("credential %s: sig %s, want %s", c.o, cred.Sig, c.sig)
		}
		if err := s.VerifyCredential(cred); err != nil {
			t.Errorf("pinned credential %s: %v", c.o, err)
		}
	}
}

// TestVerifyAllocationFree: a signer verifies from its pool of keyed
// MACs, with no re-keying and no allocation per proof.
func TestVerifyAllocationFree(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool drops pooled MACs under the race detector")
	}
	s := NewSigner([]byte("k"))
	p := s.Issue(model.NewAccess("o1", "read", "f1", "s1"), 3)
	cred := s.IssueCredential("o1", "owner", []string{"r"})
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.Verify(p); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("Verify allocates %v times per proof, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.VerifyCredential(cred); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("VerifyCredential allocates %v times per credential, want 0", allocs)
	}
}
