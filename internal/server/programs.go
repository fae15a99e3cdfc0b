package server

import (
	"sync"

	"stac/internal/core"
	"stac/internal/sral"
)

// programCacheSize bounds the parsed programs a coalition keeps. A
// mobile object declares the same program on every access of a tour,
// and the objects on a coalition at one time declare few distinct ones;
// past the bound the oldest entry goes first.
const programCacheSize = 64

// internedProgram is a declared SRAL program parsed once, shared
// read-only by every request that declares the same source text, with
// its canonical digest for the static-check cost table.
type internedProgram struct {
	node   sral.Node
	digest string
}

// programCache interns the programs declared on access requests by
// source text, for every daemon of one coalition. Sources that fail to
// parse are not kept, so a malformed program is parsed, and rejected
// with the same error, every time it is sent.
type programCache struct {
	mu      sync.Mutex
	entries map[string]*internedProgram
	// ring holds the cached sources in insertion order; next is the
	// slot the next insertion evicts.
	ring [programCacheSize]string
	next int
}

func newProgramCache() *programCache {
	return &programCache{entries: make(map[string]*internedProgram, programCacheSize)}
}

// intern returns the parsed program for src, parsing and digesting it
// only when src is not cached. src must be non-empty; it may alias a
// reused buffer, since the cache keeps only its own copy.
func (c *programCache) intern(src []byte) (*internedProgram, error) {
	c.mu.Lock()
	p, ok := c.entries[string(src)]
	c.mu.Unlock()
	if ok {
		return p, nil
	}
	text := string(src)
	node, err := sral.Parse(text)
	if err != nil {
		return nil, err
	}
	p = &internedProgram{node: node, digest: core.ProgramDigest(node)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.entries[text]; ok {
		return q, nil // a concurrent request interned it first
	}
	delete(c.entries, c.ring[c.next])
	c.ring[c.next] = text
	c.next = (c.next + 1) % programCacheSize
	c.entries[text] = p
	return p, nil
}
