package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/sral"
)

// programCacheSize bounds the parsed programs a coalition keeps. A
// mobile object declares the same program on every access of a tour,
// and the objects on a coalition at one time declare few distinct ones;
// past the bound the oldest entry goes first.
const programCacheSize = 64

// programSHA is the sha256 of a declared program's source text: the
// program cache's key, and what an access names a program by once the
// text has crossed its connection (see wireRequest.ProgramSHA).
type programSHA [sha256.Size]byte

// parseProgramSHA decodes a program_sha field. Anything but 64 hex
// digits names no program.
func parseProgramSHA(s string) (k programSHA, ok bool) {
	if hex.DecodedLen(len(s)) != len(k) {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(s))
	return k, err == nil
}

// internedProgram is a declared SRAL program parsed once, shared
// read-only by every request that declares the same source text, with
// its canonical digest for the static-check verdict memo.
type internedProgram struct {
	node   sral.Node
	digest string
}

// programCache interns the programs declared on access requests by the
// sha256 of their source text, for every daemon of one coalition. The
// cache computes that key itself from the text, so a program is only
// ever found under the digest of its own source. Sources that fail to
// parse are not kept, so a malformed program is parsed, and rejected
// with the same error, every time it is sent.
type programCache struct {
	mu      sync.Mutex
	entries *obs.Window[programSHA, *internedProgram]
}

func newProgramCache() *programCache {
	return &programCache{entries: obs.NewWindow[programSHA, *internedProgram](programCacheSize)}
}

// lookup returns the cached program whose source hashes to k.
func (c *programCache) lookup(k programSHA) (*internedProgram, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Get(k)
}

// intern returns the parsed program for src, parsing and digesting it
// only when src is not cached. src must be non-empty; it may alias a
// reused buffer, since the cache keeps nothing of it but the parse.
func (c *programCache) intern(src []byte) (*internedProgram, error) {
	k := programSHA(sha256.Sum256(src))
	if p, ok := c.lookup(k); ok {
		return p, nil
	}
	node, err := sral.Parse(string(src))
	if err != nil {
		return nil, err
	}
	p := &internedProgram{node: node, digest: core.ProgramDigest(node)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.entries.Get(k); ok {
		return q, nil // a concurrent request interned it first
	}
	c.entries.Add(k, p)
	return p, nil
}

// errUnknownProgram answers an access naming a program by a digest the
// coalition does not hold.
var errUnknownProgram = errors.New(msgUnknownProgram)

// declared resolves an access's declared program, given as source text
// or, without text, as the hex sha256 of text the coalition holds. A
// program that fails to parse or names no cached text is an error, and
// the access is answered with it before anything is decided.
func (c *programCache) declared(src []byte, sha string) (*internedProgram, error) {
	if len(src) > 0 {
		p, err := c.intern(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", msgBadProgram, err)
		}
		return p, nil
	}
	if k, ok := parseProgramSHA(sha); ok {
		if p, ok := c.lookup(k); ok {
			return p, nil
		}
	}
	return nil, errUnknownProgram
}
