// Package proof implements execution proofs and authentication
// credentials for the coalition environment.
//
// Section 2 of the paper: when a coalition server executes an access
// request to a shared resource, it issues an execution proof to the
// mobile object recording (o, op, r, s) and the execution time; the
// semantics of Pr_x(a) is that the proof exists iff access a was
// successfully carried out by server a.s. The constraint checkers
// consume proofs through the srac.ProofOracle interface, which the
// Store type implements.
//
// Proofs are authenticated with HMAC-SHA-256 under a per-coalition
// signing key — the stdlib-only stand-in for the certificate
// infrastructure of the Naplet prototype. The same mechanism backs
// owner credentials used to authenticate arriving mobile objects.
package proof

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"sync"

	"stac/internal/model"
	"stac/internal/srac"
	"stac/internal/trace"
)

// Proof is an execution proof for one shared-resource access: server
// Access.Server attests that Access was successfully carried out at
// time Time (seconds on the issuing server's clock).
type Proof struct {
	Access model.Access `json:"access"`
	Time   float64      `json:"time"`
	// Nonce makes every issued proof unique, so that two identical
	// accesses at the same timestamp remain two distinct events (the
	// ledger deduplicates carried copies by signature).
	Nonce string `json:"nonce"`
	// Sig is the hex HMAC-SHA-256 over the proof body under the
	// coalition key.
	Sig string `json:"sig"`
}

// Errors returned by proof verification.
var (
	ErrBadSignature = errors.New("proof: signature verification failed")
	ErrMalformed    = errors.New("proof: malformed")
)

// Signer issues and verifies proofs under a coalition signing key.
type Signer struct {
	// macs pools HMAC states (*keyedMAC) keyed with a private copy of
	// the coalition key: Reset returns one to the keyed state, so a
	// signature costs no re-keying and no allocation.
	macs sync.Pool
}

// keyedMAC is one pooled HMAC-SHA-256 state under the signer's key,
// with the buffers a signature needs.
type keyedMAC struct {
	h    hash.Hash
	body []byte
	sum  []byte
}

// NewSigner creates a signer for the given coalition key. The key is
// copied.
func NewSigner(key []byte) *Signer {
	k := make([]byte, len(key))
	copy(k, key)
	s := &Signer{}
	s.macs.New = func() any {
		return &keyedMAC{h: hmac.New(sha256.New, k), sum: make([]byte, 0, sha256.Size)}
	}
	return s
}

// sign returns the HMAC of the body a fills in, in m.sum; the caller
// puts m back into the pool once it is done with the sum.
func (s *Signer) sign(fill func([]byte) []byte) *keyedMAC {
	m := s.macs.Get().(*keyedMAC)
	m.body = fill(m.body[:0])
	m.h.Reset()
	m.h.Write(m.body)
	m.sum = m.h.Sum(m.sum[:0])
	return m
}

// appendBody appends the signed portion of a proof, its fields joined
// by the unit separator.
func appendBody(b []byte, a model.Access, t float64, nonce string) []byte {
	for _, f := range [...]string{"proof", string(a.Object), string(a.Op), string(a.Resource), string(a.Server)} {
		b = append(append(b, f...), '\x1f')
	}
	b = strconv.AppendFloat(b, t, 'g', -1, 64)
	return append(append(b, '\x1f'), nonce...)
}

// Issue creates a signed execution proof for access a at time t.
func (s *Signer) Issue(a model.Access, t float64) Proof { return s.issue(a, t, newNonce()) }

// issue signs the proof of access a at time t under nonce.
func (s *Signer) issue(a model.Access, t float64, nonce string) Proof {
	m := s.sign(func(b []byte) []byte { return appendBody(b, a, t, nonce) })
	sig := hex.EncodeToString(m.sum)
	s.macs.Put(m)
	return Proof{Access: a, Time: t, Nonce: nonce, Sig: sig}
}

// newNonce returns 8 random bytes in hex.
func newNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal; a constant nonce
		// degrades dedup but never forges signatures.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Verify checks the proof's signature and structural validity.
func (s *Signer) Verify(p Proof) error {
	if err := p.Access.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if p.Access.Object == "" {
		return fmt.Errorf("%w: proof without mobile object", ErrMalformed)
	}
	m := s.sign(func(b []byte) []byte { return appendBody(b, p.Access, p.Time, p.Nonce) })
	defer s.macs.Put(m)
	return checkSig(m.sum, p.Sig)
}

// checkSig compares a computed HMAC with a hex signature in constant
// time, decoding the hex without allocating.
func checkSig(sum []byte, sig string) error {
	var want [sha256.Size]byte
	if len(sig)%2 != 0 {
		return fmt.Errorf("%w: bad signature encoding", ErrMalformed)
	}
	n := len(sig) / 2
	for i := 0; i < n; i++ {
		hi, ok1 := unhex(sig[2*i])
		lo, ok2 := unhex(sig[2*i+1])
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: bad signature encoding", ErrMalformed)
		}
		if i < len(want) {
			want[i] = hi<<4 | lo
		}
	}
	if n != len(want) || !hmac.Equal(sum, want[:]) {
		return ErrBadSignature
	}
	return nil
}

// unhex decodes one hex digit, either case.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Store is a mobile object's collection of execution proofs. It
// implements srac.ProofOracle (structurally: it has a Proven method)
// and is safe for concurrent use. Proofs carried by an agent migrate
// with it; a server consults the store when it checks spatial
// constraints that reference accesses performed at *other* servers —
// the coordination the paper's model is about. The store also keeps
// the SRAC monitor states that follow its history (see Peek), so they
// move, park and drop with it.
type Store struct {
	mu     sync.RWMutex
	signer *Signer
	proofs []Proof
	// hist mirrors the proofs' access tuples in an append-only log, so
	// Trace hands out zero-copy views instead of cloning the history
	// on every decision (the E12/E13 deep-copy tax).
	hist *trace.Log
	// byAccess indexes proofs by exact access tuple.
	byAccess map[model.Access][]int
	// mons are the monitor states kept on hist (see Peek), oldest
	// first, at most maxMonitors.
	mons []monitorState
}

// monitorState is one monitor's state on a store's history, keyed by
// the compiled monitor and the object it is bound to.
type monitorState struct {
	m   *srac.Monitor
	obj model.ObjectID
	st  *srac.State
}

// maxMonitors caps the monitor states one store keeps: enough for the
// permissions an object meets on a tour under the policy and a shadow
// policy; past it the oldest state goes, and its next evaluation
// catches up from the start of the history.
const maxMonitors = 16

// NewStore creates an empty proof store. Proofs added with Add are
// verified against signer; a nil signer disables verification (used
// for hypothetical traces in tests and workloads).
func NewStore(signer *Signer) *Store {
	return &Store{signer: signer, hist: trace.NewLog(0), byAccess: make(map[model.Access][]int)}
}

// Add verifies and records a proof.
func (st *Store) Add(p Proof) error {
	if st.signer != nil {
		if err := st.signer.Verify(p); err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.byAccess[p.Access] = append(st.byAccess[p.Access], len(st.proofs))
	st.proofs = append(st.proofs, p)
	st.hist.Append(p.Access)
	return nil
}

// Proven reports whether an execution proof exists for an access
// matching the pattern a (empty components match anything) — the
// Pr_x(·) semantics consumed by the SRAC evaluators.
func (st *Store) Proven(a model.Access) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if _, ok := st.byAccess[a]; ok {
		return true
	}
	// Pattern lookup falls back to a scan.
	for _, p := range st.proofs {
		if a.Matches(p.Access) {
			return true
		}
	}
	return false
}

// CountMatching returns the number of proofs selected by sel.
func (st *Store) CountMatching(sel model.Selector) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, p := range st.proofs {
		if sel.SelectAccess(p.Access) {
			n++
		}
	}
	return n
}

// All returns the proofs in issue order.
func (st *Store) All() []Proof {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]Proof, len(st.proofs))
	copy(out, st.proofs)
	return out
}

// Len returns the number of stored proofs.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.proofs)
}

// Trace returns the access history attested by the store in insertion
// order — the executed trace the runtime constraint checker evaluates.
//
// Insertion order is the mobile object's own causal order: the store
// travels with the object and each proof is appended as the access is
// granted. It is deliberately NOT sorted by proof timestamps, because
// coalition servers share no global clock (Section 4) — cross-server
// timestamps may be skewed and would scramble the causal order an
// ordering constraint (a1 ⊗ a2) depends on. TraceByTime gives the
// timestamp ordering for callers that need it (e.g. merging histories
// of different objects, where no causal order exists).
//
// The result is a ZERO-COPY view of the store's append-only history
// log: taking it costs O(1) regardless of history length, it never
// observes proofs added later, and callers must treat it as read-only
// (appending to it copies, writing its elements is a bug).
func (st *Store) Trace() []model.Access {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.hist.View()
}

// Peek is the decision-time prefix evaluation of monitor m, bound to
// obj, over the store's history followed by the access a — the
// post-state of granting a. The store's state for (m, obj) first
// catches up on the proofs added since its last evaluation; a is then
// stepped on out, so the state does not consume it. Every history entry
// is proven by construction and a counts as proven, so no oracle is
// consulted. hist must be the store's current Trace: when it is not (a
// view taken before later Adds or an Unmarshal), ok is false and
// nothing is evaluated. consumed is the entries the evaluation stepped:
// the catch-up plus a.
func (st *Store) Peek(m *srac.Monitor, obj model.ObjectID, hist []model.Access, a model.Access, out []srac.NodeEval, timed bool) (nodes []srac.NodeEval, consumed int, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.hist.View()
	if len(hist) != len(cur) || len(cur) > 0 && &hist[0] != &cur[0] {
		return out, 0, false
	}
	s := st.monitor(m, obj)
	before := s.Len()
	nodes = s.Peek(cur, nil, a, out, timed)
	return nodes, s.Len() - before + 1, true
}

// monitor returns the state kept for (m, obj), making a fresh one (and
// dropping the oldest past maxMonitors) when there is none. The caller
// holds st.mu.
func (st *Store) monitor(m *srac.Monitor, obj model.ObjectID) *srac.State {
	for _, ms := range st.mons {
		if ms.m == m && ms.obj == obj {
			return ms.st
		}
	}
	if len(st.mons) == maxMonitors {
		st.mons = append(st.mons[:0], st.mons[1:]...)
	}
	s := m.NewState(obj)
	st.mons = append(st.mons, monitorState{m, obj, s})
	return s
}

// TraceByTime returns the access history ordered by proof timestamps
// (ties keep insertion order). Only meaningful when the proofs were
// issued against one clock.
func (st *Store) TraceByTime() []model.Access {
	st.mu.RLock()
	defer st.mu.RUnlock()
	idx := make([]int, len(st.proofs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return st.proofs[idx[i]].Time < st.proofs[idx[j]].Time
	})
	out := make([]model.Access, len(idx))
	for i, k := range idx {
		out[i] = st.proofs[k].Access
	}
	return out
}

// Marshal serialises the store's proofs for migration.
func (st *Store) Marshal() ([]byte, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return json.Marshal(st.proofs)
}

// Unmarshal loads (and verifies) proofs serialised by Marshal,
// replacing the store's contents.
func (st *Store) Unmarshal(data []byte) error {
	var proofs []Proof
	if err := json.Unmarshal(data, &proofs); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	fresh := NewStore(st.signer)
	for _, p := range proofs {
		if err := fresh.Add(p); err != nil {
			return err
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.proofs = fresh.proofs
	st.hist = fresh.hist
	st.byAccess = fresh.byAccess
	st.mons = nil // the states followed the replaced history
	return nil
}

// View returns the proofs in insertion order as a capacity-clamped
// read-only view — the copy-free counterpart of All. The proofs slice
// is append-only (Unmarshal swaps the whole backing), so the view stays
// valid, and fixed, across concurrent Adds; callers must not write its
// elements.
func (st *Store) View() []Proof {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.proofs[:len(st.proofs):len(st.proofs)]
}

// MergedTrace combines the access histories of several stores into one
// time-ordered trace, deduplicating proofs by signature (an agent's
// carried proofs typically also appear in a coalition ledger). Nil
// stores are skipped.
func MergedTrace(stores ...*Store) []model.Access {
	var all []Proof
	seen := map[string]bool{}
	for _, st := range stores {
		if st == nil {
			continue
		}
		for _, p := range st.View() {
			if seen[p.Sig] {
				continue
			}
			seen[p.Sig] = true
			all = append(all, p)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	out := make([]model.Access, len(all))
	for i, p := range all {
		out[i] = p.Access
	}
	return out
}

// MergedOracle attests an access when any of the stores does.
func MergedOracle(stores ...*Store) func(model.Access) bool {
	return func(a model.Access) bool {
		for _, st := range stores {
			if st != nil && st.Proven(a) {
				return true
			}
		}
		return false
	}
}

// --- Credentials ------------------------------------------------------

// Credential authenticates a mobile object's owner to coalition
// servers — the stand-in for the owner certificate "issued by an
// authority or via a priori registration" in Section 5.1.
type Credential struct {
	Object model.ObjectID `json:"object"`
	Owner  string         `json:"owner"`
	// Roles lists the role names the owner is entitled to request.
	Roles []string `json:"roles"`
	Sig   string   `json:"sig"`
}

// appendCredBody appends the signed portion of a credential, its
// fields joined by the unit separator.
func appendCredBody(b []byte, c Credential) []byte {
	b = append(append(append(b, "credential\x1f"...), c.Object...), '\x1f')
	b = append(b, c.Owner...)
	for _, r := range c.Roles {
		b = append(append(b, '\x1f'), r...)
	}
	return b
}

// IssueCredential signs a credential for the mobile object.
func (s *Signer) IssueCredential(object model.ObjectID, owner string, roles []string) Credential {
	c := Credential{Object: object, Owner: owner, Roles: append([]string(nil), roles...)}
	m := s.sign(func(b []byte) []byte { return appendCredBody(b, c) })
	c.Sig = hex.EncodeToString(m.sum)
	s.macs.Put(m)
	return c
}

// VerifyCredential checks a credential's signature.
func (s *Signer) VerifyCredential(c Credential) error {
	if c.Object == "" || c.Owner == "" {
		return fmt.Errorf("%w: credential missing object or owner", ErrMalformed)
	}
	m := s.sign(func(b []byte) []byte { return appendCredBody(b, c) })
	defer s.macs.Put(m)
	return checkSig(m.sum, c.Sig)
}
