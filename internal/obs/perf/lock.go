// Package perf is the performance-observability subsystem: instrumented
// lock stripes with sampled wait/hold timing, latency SLO burn-rate
// tracking, and the host fingerprint that benchmark and load results
// carry. Raw CPU, mutex and block profiles are the runtime's own, served
// at /debug/pprof; per-request stage time is the stage ledger's
// (obs.StageLedger).
package perf

import (
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/obs"
)

// sampleMask gates the expensive timing path: roughly 1 acquisition in
// 64 pays two clock reads; the rest pay only atomic counter bumps.
const sampleMask = 63

// LockBuckets span lock wait/hold times: 100ns (uncontended handoff)
// up to 50ms (pathological convoy).
var LockBuckets = []float64{
	100e-9, 500e-9, 1e-6, 5e-6, 10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3,
}

// LockStats aggregates contention telemetry for one named lock stripe.
// A nil *LockStats is valid and records nothing — instrumented locks
// hold one behind an atomic pointer so uninstrumented engines pay a
// single nil check.
type LockStats struct {
	name string
	// acquire/contended count write-side acquisitions and how many of
	// them found the lock held (TryLock failed). rAcquire/rContended are
	// the read-side pair for RWMutex stripes.
	acquire    atomic.Int64
	contended  atomic.Int64
	rAcquire   atomic.Int64
	rContended atomic.Int64
	// seq drives deterministic 1-in-(sampleMask+1) sampling of the
	// timing path.
	seq  atomic.Uint64
	wait *obs.Histogram
	hold *obs.Histogram
}

// NewLockStats creates the telemetry sink for one stripe, registering
// its wait/hold histograms and acquisition counters under the given
// registry as stac_lock_*{stripe="name"}.
func NewLockStats(reg *obs.Registry, name string) *LockStats {
	l := obs.Label("stripe", name)
	return &LockStats{
		name: name,
		wait: reg.Histogram("stac_lock_wait_seconds", l,
			"Sampled lock wait time per stripe.", LockBuckets),
		hold: reg.Histogram("stac_lock_hold_seconds", l,
			"Sampled write-hold time per stripe.", LockBuckets),
	}
}

// Name returns the stripe name.
func (s *LockStats) Name() string { return s.name }

// sample reports whether this acquisition should pay the timing path.
func (s *LockStats) sampleTick() bool { return s.seq.Add(1)&sampleMask == 0 }

// LockSnapshot is one stripe's counters plus wait/hold quantile
// estimates, in seconds.
type LockSnapshot struct {
	Stripe     string  `json:"stripe"`
	Acquire    int64   `json:"acquire"`
	Contended  int64   `json:"contended"`
	RAcquire   int64   `json:"r_acquire,omitempty"`
	RContended int64   `json:"r_contended,omitempty"`
	WaitCount  int64   `json:"wait_count"`
	WaitP50    float64 `json:"wait_p50_s"`
	WaitP99    float64 `json:"wait_p99_s"`
	HoldP99    float64 `json:"hold_p99_s"`
}

// Snapshot captures the stripe's current counters and quantiles.
// Nil-safe (zero snapshot).
func (s *LockStats) Snapshot() LockSnapshot {
	if s == nil {
		return LockSnapshot{}
	}
	return LockSnapshot{
		Stripe:     s.name,
		Acquire:    s.acquire.Load(),
		Contended:  s.contended.Load(),
		RAcquire:   s.rAcquire.Load(),
		RContended: s.rContended.Load(),
		WaitCount:  s.wait.Count(),
		WaitP50:    s.wait.Quantile(0.5),
		WaitP99:    s.wait.Quantile(0.99),
		HoldP99:    s.hold.Quantile(0.99),
	}
}

// ContentionRatio returns contended/(acquire+rAcquire) — the fraction
// of acquisitions that found the stripe held. Nil-safe.
func (s *LockStats) ContentionRatio() float64 {
	if s == nil {
		return 0
	}
	total := s.acquire.Load() + s.rAcquire.Load()
	if total == 0 {
		return 0
	}
	return float64(s.contended.Load()+s.rContended.Load()) / float64(total)
}

// Mutex is a sync.Mutex with optional contention telemetry. The zero
// value is an uninstrumented, usable mutex; Instrument attaches stats.
type Mutex struct {
	mu    sync.Mutex
	stats atomic.Pointer[LockStats]
	// holdStart is non-zero while the current (sampled) hold is being
	// timed. It is guarded by mu itself: only the holder reads or
	// writes it.
	holdStart time.Time
}

// Instrument attaches (or, with nil, detaches) the telemetry sink.
func (m *Mutex) Instrument(s *LockStats) { m.stats.Store(s) }

// Stats returns the attached telemetry sink (nil when uninstrumented).
func (m *Mutex) Stats() *LockStats { return m.stats.Load() }

// Lock acquires the mutex, recording contention and sampled wait time.
func (m *Mutex) Lock() {
	s := m.stats.Load()
	if s == nil {
		m.mu.Lock()
		return
	}
	s.acquire.Add(1)
	sampled := s.sampleTick()
	if m.mu.TryLock() {
		if sampled {
			s.wait.Observe(0)
			m.holdStart = time.Now()
		}
		return
	}
	s.contended.Add(1)
	if !sampled {
		m.mu.Lock()
		return
	}
	t0 := time.Now()
	m.mu.Lock()
	now := time.Now()
	s.wait.Observe(now.Sub(t0))
	m.holdStart = now
}

// Unlock releases the mutex, closing out a sampled hold measurement.
func (m *Mutex) Unlock() {
	if !m.holdStart.IsZero() {
		if s := m.stats.Load(); s != nil {
			s.hold.ObserveSince(m.holdStart)
		}
		m.holdStart = time.Time{}
	}
	m.mu.Unlock()
}

// RWMutex is a sync.RWMutex with optional contention telemetry. Writer
// acquisitions get wait and hold timing; readers get contention counts
// and sampled wait timing only (per-reader hold state would need an
// allocation on the hottest path in the engine).
type RWMutex struct {
	mu        sync.RWMutex
	stats     atomic.Pointer[LockStats]
	holdStart time.Time // guarded by mu (write side)
}

// Instrument attaches (or, with nil, detaches) the telemetry sink.
func (m *RWMutex) Instrument(s *LockStats) { m.stats.Store(s) }

// Stats returns the attached telemetry sink, if any.
func (m *RWMutex) Stats() *LockStats { return m.stats.Load() }

// Lock acquires the write lock, recording contention and sampled wait
// time.
func (m *RWMutex) Lock() {
	s := m.stats.Load()
	if s == nil {
		m.mu.Lock()
		return
	}
	s.acquire.Add(1)
	sampled := s.sampleTick()
	if m.mu.TryLock() {
		if sampled {
			s.wait.Observe(0)
			m.holdStart = time.Now()
		}
		return
	}
	s.contended.Add(1)
	if !sampled {
		m.mu.Lock()
		return
	}
	t0 := time.Now()
	m.mu.Lock()
	now := time.Now()
	s.wait.Observe(now.Sub(t0))
	m.holdStart = now
}

// Unlock releases the write lock, closing out a sampled hold
// measurement.
func (m *RWMutex) Unlock() {
	if !m.holdStart.IsZero() {
		if s := m.stats.Load(); s != nil {
			s.hold.ObserveSince(m.holdStart)
		}
		m.holdStart = time.Time{}
	}
	m.mu.Unlock()
}

// RLock acquires the read lock, recording contention and sampled wait
// time.
func (m *RWMutex) RLock() {
	s := m.stats.Load()
	if s == nil {
		m.mu.RLock()
		return
	}
	s.rAcquire.Add(1)
	sampled := s.sampleTick()
	if m.mu.TryRLock() {
		if sampled {
			s.wait.Observe(0)
		}
		return
	}
	s.rContended.Add(1)
	if !sampled {
		m.mu.RLock()
		return
	}
	t0 := time.Now()
	m.mu.RLock()
	s.wait.ObserveSince(t0)
}

// RUnlock releases the read lock.
func (m *RWMutex) RUnlock() { m.mu.RUnlock() }

// ImbalanceRatio returns max/mean over per-stripe counts — 1.0 means a
// perfectly balanced hash, numShards means every hit lands on one
// stripe. Returns 0 when the counts are empty or all zero.
func ImbalanceRatio(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, max int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(counts)) / float64(sum)
}
