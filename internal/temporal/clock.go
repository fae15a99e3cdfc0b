package temporal

import (
	"sync"
	"time"
)

// Clock supplies the current position on a server's continuous time
// line, in seconds. Coalition servers share no global clock; the
// engine therefore only ever compares times produced by the same
// Clock, and cross-server coordination uses durations (Activations).
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
}

// RealClock reads the wall clock, as seconds since the clock was
// created (monotonic).
type RealClock struct {
	epoch time.Time
}

// NewRealClock creates a wall clock starting at 0.
func NewRealClock() *RealClock { return &RealClock{epoch: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() float64 { return time.Since(c.epoch).Seconds() }

// SimClock is a manually advanced clock for deterministic emulation
// and experiments. It is safe for concurrent use.
type SimClock struct {
	mu  sync.Mutex
	now float64
}

// NewSimClock creates a simulated clock at time start.
func NewSimClock(start float64) *SimClock { return &SimClock{now: start} }

// Now implements Clock.
func (c *SimClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d seconds (negative d is
// ignored: time does not flow backwards).
func (c *SimClock) Advance(d float64) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Set jumps the clock to t if t is ahead of the current time.
func (c *SimClock) Set(t float64) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// SkewedClock wraps another clock with a constant offset and a rate
// drift, modelling the paper's premise that servers disagree on
// absolute time: reading r of the base clock appears as
// offset + rate·r.
type SkewedClock struct {
	Base   Clock
	Offset float64
	// Rate is the drift factor; 1.0 means no drift. Zero value is
	// treated as 1.0 so SkewedClock{Base: c} is a plain offset clock.
	Rate float64
}

// Now implements Clock.
func (c *SkewedClock) Now() float64 {
	rate := c.Rate
	if rate == 0 {
		rate = 1.0
	}
	return c.Offset + rate*c.Base.Now()
}
