// Package hlc implements a hybrid logical clock: a timestamp that
// combines a physical wall-clock component with a logical counter, so
// coalition members can order events causally even when their wall
// clocks disagree. The construction follows Kulkarni et al.'s HLC:
// timestamps are monotone per process, never drift unboundedly from
// the physical clock, and observing a remote timestamp advances the
// local clock past it — so any event that causally follows another
// (request after reply, hop after hop) carries a strictly greater
// timestamp, regardless of per-member clock skew.
//
// This is the ordering primitive behind the coalition decision
// timeline (`stacctl timeline`, /debug/journal) and the designated
// ordering substrate for WAL replication (ROADMAP item 3): a replica
// resuming a roaming credential's budget must apply decisions in
// causal order, which per-member wall clocks cannot provide.
package hlc

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"stac/internal/temporal"
)

// Timestamp is one hybrid logical timestamp. Wall is the physical
// component in nanoseconds (from whatever wall source the clock was
// built over); Logical breaks ties among events sharing a wall
// reading. The zero Timestamp means "unstamped".
type Timestamp struct {
	Wall    int64
	Logical uint32
}

// IsZero reports an unstamped timestamp.
func (t Timestamp) IsZero() bool { return t.Wall == 0 && t.Logical == 0 }

// Compare orders timestamps: -1, 0 or +1 as t is before, equal to or
// after o. Wall components compare first, logical counters break ties.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Wall < o.Wall:
		return -1
	case t.Wall > o.Wall:
		return 1
	case t.Logical < o.Logical:
		return -1
	case t.Logical > o.Logical:
		return 1
	}
	return 0
}

// Before reports t < o.
func (t Timestamp) Before(o Timestamp) bool { return t.Compare(o) < 0 }

// After reports t > o.
func (t Timestamp) After(o Timestamp) bool { return t.Compare(o) > 0 }

// WallSeconds returns the physical component in seconds.
func (t Timestamp) WallSeconds() float64 { return float64(t.Wall) / 1e9 }

// String renders the compact wire form "<wall-hex>.<logical-hex>"
// (fixed-width wall so lexical order agrees with causal order for
// non-negative walls). The zero timestamp renders as "".
func (t Timestamp) String() string {
	if t.IsZero() {
		return ""
	}
	// The wall is formatted at the front, then moved right and
	// zero-padded to its 16 digits.
	var buf [16 + 1 + 8]byte
	n := len(strconv.AppendUint(buf[:0], uint64(t.Wall), 16))
	copy(buf[16-n:], buf[:n])
	for i := range 16 - n {
		buf[i] = '0'
	}
	b := append(buf[:16], '.')
	b = strconv.AppendUint(b, uint64(t.Logical), 16)
	return string(b)
}

// Parse decodes the wire form produced by String. The empty string
// parses to the zero timestamp.
func Parse(s string) (Timestamp, error) {
	if s == "" {
		return Timestamp{}, nil
	}
	wallPart, logPart, ok := strings.Cut(s, ".")
	if !ok || len(wallPart) != 16 {
		return Timestamp{}, fmt.Errorf("hlc: malformed timestamp %q", s)
	}
	wall, err := strconv.ParseUint(wallPart, 16, 64)
	if err != nil {
		return Timestamp{}, fmt.Errorf("hlc: malformed wall in %q: %v", s, err)
	}
	logical, err := strconv.ParseUint(logPart, 16, 32)
	if err != nil {
		return Timestamp{}, fmt.Errorf("hlc: malformed logical in %q: %v", s, err)
	}
	ts := Timestamp{Wall: int64(wall), Logical: uint32(logical)}
	if ts.IsZero() {
		return Timestamp{}, fmt.Errorf("hlc: zero timestamp %q (want empty string)", s)
	}
	return ts, nil
}

// MarshalText implements encoding.TextMarshaler (the JSON form is the
// compact wire string).
func (t Timestamp) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *Timestamp) UnmarshalText(b []byte) error {
	ts, err := Parse(string(b))
	if err != nil {
		return err
	}
	*t = ts
	return nil
}

// Clock is a hybrid logical clock over a physical wall source. Safe
// for concurrent use. Now and Observe are monotone: no returned
// timestamp is ever ≤ a previously returned or observed one, even
// when the wall source stalls or steps backwards.
type Clock struct {
	mu   sync.Mutex
	wall func() int64
	last Timestamp
}

// New creates a clock over the given wall source (nanoseconds). A nil
// source reads the host wall clock (time.Now().UnixNano()).
func New(wall func() int64) *Clock {
	if wall == nil {
		wall = func() int64 { return time.Now().UnixNano() }
	}
	return &Clock{wall: wall}
}

// WallFromTemporal derives a wall source from an engine clock: a real
// clock maps to the host wall clock (so members' physical components
// are comparable across daemons), any other clock (simulated, skewed)
// maps its reading to nanoseconds — deterministic under SimClock, at
// the price of a per-process epoch.
func WallFromTemporal(clk temporal.Clock) func() int64 {
	if _, ok := clk.(*temporal.RealClock); ok {
		return nil // New's default: host wall clock
	}
	return func() int64 { return int64(clk.Now() * 1e9) }
}

// Wall reads the raw physical source, without ticking the clock and
// without the causal max-propagation Now applies — the honest local
// wall reading skew detection needs (a causally propagated Wall hides
// exactly the skew being measured).
func (c *Clock) Wall() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wall()
}

// Now stamps a local event (including a send): the returned timestamp
// is strictly greater than every timestamp this clock has returned or
// observed.
func (c *Clock) Now() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.wall()
	if pt > c.last.Wall {
		c.last = Timestamp{Wall: pt}
	} else {
		// Physical clock stalled (same-ns events) or stepped back
		// (skew): the logical counter carries monotonicity.
		c.last.Logical++
	}
	return c.last
}

// Observe merges a remote timestamp into the clock (a receive event)
// and returns the clock's new reading, strictly greater than both the
// remote timestamp and every prior local one. Observing the zero
// timestamp is a plain local tick.
func (c *Clock) Observe(remote Timestamp) Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.wall()
	switch {
	case pt > c.last.Wall && pt > remote.Wall:
		c.last = Timestamp{Wall: pt}
	case remote.Wall > c.last.Wall:
		c.last = Timestamp{Wall: remote.Wall, Logical: remote.Logical + 1}
	case remote.Wall == c.last.Wall && remote.Logical > c.last.Logical:
		c.last.Logical = remote.Logical + 1
	default:
		c.last.Logical++
	}
	return c.last
}

// Last returns the clock's current reading without ticking it.
func (c *Clock) Last() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}
