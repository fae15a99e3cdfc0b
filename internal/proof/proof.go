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
	"sort"
	"strconv"
	"strings"
	"sync"

	"stac/internal/model"
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
	key []byte
}

// NewSigner creates a signer for the given coalition key. The key is
// copied.
func NewSigner(key []byte) *Signer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Signer{key: k}
}

// body serialises the signed portion of a proof deterministically.
func body(a model.Access, t float64, nonce string) []byte {
	return []byte(strings.Join([]string{
		"proof", string(a.Object), string(a.Op), string(a.Resource),
		string(a.Server), strconv.FormatFloat(t, 'g', -1, 64), nonce,
	}, "\x1f"))
}

// Issue creates a signed execution proof for access a at time t.
func (s *Signer) Issue(a model.Access, t float64) Proof {
	nonce := newNonce()
	mac := hmac.New(sha256.New, s.key)
	mac.Write(body(a, t, nonce))
	return Proof{Access: a, Time: t, Nonce: nonce, Sig: hex.EncodeToString(mac.Sum(nil))}
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
	want, err := hex.DecodeString(p.Sig)
	if err != nil {
		return fmt.Errorf("%w: bad signature encoding", ErrMalformed)
	}
	mac := hmac.New(sha256.New, s.key)
	mac.Write(body(p.Access, p.Time, p.Nonce))
	if !hmac.Equal(mac.Sum(nil), want) {
		return ErrBadSignature
	}
	return nil
}

// Store is a mobile object's collection of execution proofs. It
// implements srac.ProofOracle (structurally: it has a Proven method)
// and is safe for concurrent use. Proofs carried by an agent migrate
// with it; a server consults the store when it checks spatial
// constraints that reference accesses performed at *other* servers —
// the coordination the paper's model is about.
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
}

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
	return st.hist.View()
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

// credBody serialises the signed portion of a credential.
func credBody(c Credential) []byte {
	return []byte(strings.Join(append([]string{
		"credential", string(c.Object), c.Owner,
	}, c.Roles...), "\x1f"))
}

// IssueCredential signs a credential for the mobile object.
func (s *Signer) IssueCredential(object model.ObjectID, owner string, roles []string) Credential {
	c := Credential{Object: object, Owner: owner, Roles: append([]string(nil), roles...)}
	mac := hmac.New(sha256.New, s.key)
	mac.Write(credBody(c))
	c.Sig = hex.EncodeToString(mac.Sum(nil))
	return c
}

// VerifyCredential checks a credential's signature.
func (s *Signer) VerifyCredential(c Credential) error {
	if c.Object == "" || c.Owner == "" {
		return fmt.Errorf("%w: credential missing object or owner", ErrMalformed)
	}
	want, err := hex.DecodeString(c.Sig)
	if err != nil {
		return fmt.Errorf("%w: bad signature encoding", ErrMalformed)
	}
	mac := hmac.New(sha256.New, s.key)
	mac.Write(credBody(c))
	if !hmac.Equal(mac.Sum(nil), want) {
		return ErrBadSignature
	}
	return nil
}
