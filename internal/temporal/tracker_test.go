package temporal

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestSimClock(t *testing.T) {
	c := NewSimClock(10)
	if c.Now() != 10 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(5)
	if c.Now() != 15 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Advance(-3) // ignored
	if c.Now() != 15 {
		t.Fatal("negative advance moved clock")
	}
	c.Set(20)
	if c.Now() != 20 {
		t.Fatal("Set forward failed")
	}
	c.Set(1) // backward jump ignored
	if c.Now() != 20 {
		t.Fatal("Set moved clock backwards")
	}
}

func TestSimClockConcurrent(t *testing.T) {
	c := NewSimClock(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(0.001)
				_ = c.Now()
			}
		}()
	}
	wg.Wait()
	if math.Abs(c.Now()-8.0) > 1e-6 {
		t.Fatalf("concurrent advance lost updates: %v", c.Now())
	}
}

func TestRealClockMonotone(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("real clock not advancing: %v -> %v", a, b)
	}
}

func TestSkewedClock(t *testing.T) {
	base := NewSimClock(100)
	sk := &SkewedClock{Base: base, Offset: 7}
	if sk.Now() != 107 {
		t.Fatalf("offset clock = %v", sk.Now())
	}
	drift := &SkewedClock{Base: base, Offset: 0, Rate: 2}
	if drift.Now() != 200 {
		t.Fatalf("drift clock = %v", drift.Now())
	}
}

// perm is one permission that is its session's whole key set, driven
// the way the engine drives an object's temporal keys.
type perm struct {
	dur  float64
	set  KeySet[string]
	acts Activations[string]
}

func newPerm(dur float64, scheme Scheme) *perm {
	return &perm{dur: dur, set: KeySet[string]{"p": scheme}}
}

func (p *perm) arrive()                { p.acts.Arrive() }
func (p *perm) activate(now float64)   { p.acts.Activate(&p.set, now) }
func (p *perm) deactivate(now float64) { p.acts.Deactivate(&p.set, now) }

func (p *perm) at(now float64) Validity {
	if v, ok := p.acts.Validity("p", p.dur, now); ok {
		return v
	}
	return Validity{State: Inactive, Remaining: p.dur}
}

func TestTrackerLifecycle(t *testing.T) {
	p := newPerm(10, GlobalBase)
	if p.at(0).State != Inactive {
		t.Fatal("fresh activation not inactive")
	}
	p.arrive()
	p.activate(1)
	if got := p.at(5).State; got != Valid {
		t.Fatalf("state at 5 = %v", got)
	}
	if got := p.at(5).Used; got != 4 {
		t.Fatalf("accumulated = %v", got)
	}
	if got := p.at(5).Remaining; got != 6 {
		t.Fatalf("remaining = %v", got)
	}
	if exp := 5 + p.at(5).Remaining; exp != 11 {
		t.Fatalf("expiry = %v", exp)
	}
	// Budget exhausted at t = 11.
	if got := p.at(11).State; got != ActiveInvalid {
		t.Fatalf("state at 11 = %v", got)
	}
	if got := p.at(20).Remaining; got != 0 {
		t.Fatalf("remaining after exhaustion = %v", got)
	}
	if got := p.at(20).Used; got != 10 {
		t.Fatalf("accumulated capped = %v", got)
	}
}

func TestTrackerDeactivatePausesAccumulation(t *testing.T) {
	p := newPerm(10, GlobalBase)
	p.activate(0)
	p.deactivate(4) // 4 used
	if p.at(6).State != Inactive {
		t.Fatal("deactivated activation not inactive")
	}
	if got := p.at(100).Used; got != 4 {
		t.Fatalf("accumulated while inactive = %v", got)
	}
	p.activate(100)
	if p.at(105).State != Valid {
		t.Fatal("re-activated not valid")
	}
	// Remaining budget 6: invalid from t=106.
	if got := p.at(106).State; got != ActiveInvalid {
		t.Fatalf("state at 106 = %v", got)
	}
}

func TestTrackerIdempotentTransitions(t *testing.T) {
	p := newPerm(10, GlobalBase)
	p.activate(0)
	p.activate(3) // no-op: still counting from 0
	if got := p.at(5).Used; got != 5 {
		t.Fatalf("double activate changed accounting: %v", got)
	}
	p.deactivate(5)
	p.deactivate(7) // no-op
	if got := p.at(10).Used; got != 5 {
		t.Fatalf("double deactivate changed accounting: %v", got)
	}
}

func TestTrackerPerServerScheme(t *testing.T) {
	p := newPerm(5, PerServerBase)
	p.arrive()
	p.activate(0)
	if p.at(4).State != Valid {
		t.Fatal("not valid on first server")
	}
	if p.at(6).State != ActiveInvalid {
		t.Fatal("not invalid after budget on first server")
	}
	// Migrating resets the epoch: full budget again, but the open
	// activation is closed (role must be re-activated on arrival).
	p.arrive()
	if got := p.at(10).State; got != Inactive {
		t.Fatalf("state after migration = %v", got)
	}
	p.activate(10)
	if got := p.at(10).Remaining; got != 5 {
		t.Fatalf("remaining after migration = %v", got)
	}
	if p.at(14).State != Valid || p.at(16).State != ActiveInvalid {
		t.Fatal("per-server budget not enforced on second server")
	}
}

func TestTrackerGlobalSchemeSpansServers(t *testing.T) {
	p := newPerm(5, GlobalBase)
	p.arrive()
	p.activate(0)
	p.deactivate(3)
	p.arrive() // must NOT reset under the global scheme
	if got := p.at(10).Used; got != 3 {
		t.Fatalf("global arrival reset the accumulation: used = %v", got)
	}
	p.activate(10)
	// 3 used; remaining 2 → invalid from 12.
	if got := p.at(11).State; got != Valid {
		t.Fatalf("state at 11 = %v", got)
	}
	if got := p.at(12.5).State; got != ActiveInvalid {
		t.Fatalf("state at 12.5 = %v", got)
	}
}

func TestTrackerInfiniteBudget(t *testing.T) {
	p := newPerm(Infinite, GlobalBase)
	p.activate(0)
	if p.at(1e12).State != Valid {
		t.Fatal("time-insensitive permission expired")
	}
	if p.at(1e12).Remaining != Infinite {
		t.Fatal("remaining not infinite")
	}
}

func TestTrackerNegativeDurationClamped(t *testing.T) {
	p := newPerm(-3, GlobalBase)
	p.activate(0)
	if p.at(0.1).State != ActiveInvalid {
		t.Fatal("negative duration should behave as zero budget")
	}
	if v := p.at(0.1); v.Used != 0 || v.Remaining != 0 {
		t.Fatalf("clamped budget reads %+v", v)
	}
}

func TestTrackerExpiryWhenInactive(t *testing.T) {
	// An inactive permission has no expiry: its state and remaining
	// budget stay put however much time passes.
	p := newPerm(5, GlobalBase)
	for _, now := range []float64{0, 5, 1e6} {
		if v := p.at(now); v.State != Inactive || v.Remaining != 5 {
			t.Fatalf("inactive permission at %v = %+v", now, v)
		}
	}
}

func TestSchemeAndStateStrings(t *testing.T) {
	if GlobalBase.String() != "global" || PerServerBase.String() != "per-server" {
		t.Fatal("scheme strings")
	}
	if Inactive.String() != "inactive" || ActiveInvalid.String() != "active-but-invalid" || Valid.String() != "valid" {
		t.Fatal("state strings")
	}
}
