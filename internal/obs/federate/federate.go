package federate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"stac/internal/server"
)

// ErrVersionSkew marks a member whose snapshot document is NEWER than
// this poller understands. A mixed-version fleet is a deploy in
// flight, not an outage: the member is skipped from the merge (and
// flagged) rather than treated as unreachable.
var ErrVersionSkew = errors.New("federate: snapshot version newer than supported")

// Member is one coalition daemon to scrape: BaseURL is the root of its
// observability listener (the stacd -metrics-addr server), e.g.
// "http://127.0.0.1:9100".
type Member struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// MemberState is one member's contribution to a fleet view.
type MemberState struct {
	Member
	// Reachable reports a successful scrape; Err carries the failure.
	Reachable bool   `json:"reachable"`
	Err       string `json:"err,omitempty"`
	// Skipped reports a member that answered with a snapshot version
	// newer than this poller supports — excluded from the merge but
	// distinct from unreachable.
	Skipped bool `json:"skipped,omitempty"`
	// SkewSeconds estimates the member's physical clock offset from the
	// poller's own: the snapshot's raw wall reading (hlc_wall_unix_s)
	// minus the scrape's midpoint. Positive = member's clock is ahead.
	// SkewKnown gates the estimate — false when the member predates
	// snapshot v4 or runs a simulated clock whose "wall" is nowhere
	// near Unix time (see skewCredibleSeconds).
	SkewSeconds float64 `json:"skew_s"`
	SkewKnown   bool    `json:"skew_known"`
	// Snapshot is the member's document (zero when unreachable).
	Snapshot server.Snapshot `json:"snapshot"`
}

// BudgetRollup is the fleet-wide state of one (object, permission)
// temporal budget, merged per its base-time scheme: global budgets sum
// consumption across members (one coalition-wide accumulated total),
// per-server budgets keep the hottest member's figures.
type BudgetRollup struct {
	Object string  `json:"object"`
	Perm   string  `json:"perm"`
	Scheme string  `json:"scheme"`
	Budget float64 `json:"budget_s"`
	// Consumed/Remaining follow the scheme's merge rule.
	Consumed  float64 `json:"consumed_s"`
	Remaining float64 `json:"remaining_s"`
	// BurnRate is the fleet-wide consumption velocity (s/s); ETA the
	// seconds until exhaustion at that velocity (-1 unknown, 0 spent).
	BurnRate float64 `json:"burn_rate"`
	ETA      float64 `json:"eta_s"`
	// Members counts members holding state for this budget.
	Members int `json:"members"`
}

// ServerRollup is one coalition server's counters as seen by one
// member (the per-server view; members host disjoint server sets).
type ServerRollup struct {
	Member string `json:"member"`
	Server string `json:"server"`
	Grants int    `json:"grants"`
	Denies int    `json:"denies"`
}

// Rollup is the coalition-global aggregate across reachable members.
type Rollup struct {
	Members     int `json:"members"`
	Unreachable int `json:"unreachable"`
	// Skipped counts members excluded for snapshot version skew.
	Skipped    int `json:"skipped,omitempty"`
	Grants     int `json:"grants"`
	Denies     int `json:"denies"`
	Decisions  int `json:"decisions"`
	Migrations int `json:"migrations"`
	Watchers   int `json:"watchers"`
	// AuditSinkErrors sums decisions lost from durable logs fleet-wide.
	AuditSinkErrors int64 `json:"audit_sink_errors"`
	// ShadowFlips sums live shadow-policy disagreements fleet-wide.
	ShadowFlips int64 `json:"shadow_flips,omitempty"`
}

// Anomaly is one cross-server condition the poller flagged.
type Anomaly struct {
	// Kind is "unreachable", "budget-exhaustion", "deny-spike",
	// "policy-divergence", "version-skew", "dead-clause", "slo-burn",
	// "lock-contention", "clock-skew", "journal-lag" or
	// "clause-cost-share".
	Kind string `json:"kind"`
	// Member names the affected member ("" for fleet-wide conditions).
	Member string `json:"member,omitempty"`
	// Subject narrows the anomaly (a budget's "object/perm", a digest).
	Subject string `json:"subject,omitempty"`
	Detail  string `json:"detail"`
}

// FleetView is one merged observation of the whole coalition.
type FleetView struct {
	Members   []MemberState  `json:"members"`
	Global    Rollup         `json:"global"`
	PerServer []ServerRollup `json:"per_server"`
	Budgets   []BudgetRollup `json:"budgets"`
	// Cost is the fleet-merged per-clause table — the clause census
	// and heat map (see cost.go; empty when no member runs cost
	// profiling).
	Cost []CostRollup `json:"cost,omitempty"`
	// Perf is one hot-path health row per reachable member (see
	// perf.go): hottest stripe, SLO burn rate, slowest exemplar.
	Perf []MemberPerfRollup `json:"perf,omitempty"`
	// Clocks is one clock/journal health row per reachable member (see
	// clocks.go): HLC reading, physical skew estimate, tail lag.
	Clocks    []ClockRollup `json:"clocks,omitempty"`
	Anomalies []Anomaly     `json:"anomalies"`
}

// Config tunes the poller's anomaly thresholds.
type Config struct {
	// Client performs the scrapes (nil = a 5 s-timeout default).
	Client *http.Client
	// BudgetTail is the ?tail= passed to /debug/snapshot (0 = server
	// default).
	BudgetTail int
	// ExhaustionHorizon flags budgets whose fleet ETA falls at or
	// under this many seconds (0 = 60).
	ExhaustionHorizon float64
	// DenySpikeRatio flags a member whose denials since the previous
	// poll exceed this fraction of its new decisions (0 = 0.5), once
	// at least DenySpikeMin new decisions arrived (0 = 10).
	DenySpikeRatio float64
	DenySpikeMin   int
	// SLOBurnThreshold flags a member burning its latency error budget
	// faster than this rate (0 = 1, i.e. exactly on budget).
	SLOBurnThreshold float64
	// ContentionRatio flags a member whose hottest lock stripe was
	// contended on more than this fraction of acquisitions (0 = 0.25).
	ContentionRatio float64
	// SkewThreshold flags a member whose physical clock skew estimate
	// exceeds this many seconds in either direction (0 = 1).
	SkewThreshold float64
	// JournalLagThreshold flags a member whose worst journal tail is
	// more than this many records behind the recorder (0 = 1024).
	JournalLagThreshold uint64
	// CostShareThreshold flags a clause consuming more than this
	// fraction of the fleet's sampled evaluation time (0 = 0.5).
	CostShareThreshold float64
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.ExhaustionHorizon == 0 {
		c.ExhaustionHorizon = 60
	}
	if c.DenySpikeRatio == 0 {
		c.DenySpikeRatio = 0.5
	}
	if c.DenySpikeMin == 0 {
		c.DenySpikeMin = 10
	}
	if c.SLOBurnThreshold == 0 {
		c.SLOBurnThreshold = 1
	}
	if c.ContentionRatio == 0 {
		c.ContentionRatio = 0.25
	}
	if c.SkewThreshold == 0 {
		c.SkewThreshold = 1
	}
	if c.JournalLagThreshold == 0 {
		c.JournalLagThreshold = 1024
	}
	if c.CostShareThreshold == 0 {
		c.CostShareThreshold = 0.5
	}
	return c
}

// Poller scrapes a fixed member set and merges fleet views. Poll keeps
// per-member history between rounds for rate anomalies; one Poller per
// fleet, reused across rounds.
type Poller struct {
	members []Member
	cfg     Config

	mu   sync.Mutex
	prev map[string]server.Snapshot
	// down marks members last seen unreachable; reconnects counts each
	// member's down→up transitions (a first-ever success is not one).
	down       map[string]bool
	reconnects map[string]int64
}

// NewPoller builds a poller over the given members.
func NewPoller(members []Member, cfg Config) *Poller {
	return &Poller{
		members:    members,
		cfg:        cfg.withDefaults(),
		prev:       make(map[string]server.Snapshot),
		down:       make(map[string]bool),
		reconnects: make(map[string]int64),
	}
}

// Scrape fetches one member's snapshot document.
func Scrape(ctx context.Context, client *http.Client, m Member, tail int) (server.Snapshot, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	url := m.BaseURL + "/debug/snapshot"
	if tail != 0 {
		url += fmt.Sprintf("?tail=%d", tail)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return server.Snapshot{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return server.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return server.Snapshot{}, fmt.Errorf("federate: %s: %s: %s", m.Name, resp.Status, body)
	}
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return server.Snapshot{}, fmt.Errorf("federate: %s: decode: %w", m.Name, err)
	}
	if snap.Version > server.SnapshotVersion {
		return server.Snapshot{}, fmt.Errorf("%w: %s: version %d, supported %d",
			ErrVersionSkew, m.Name, snap.Version, server.SnapshotVersion)
	}
	return snap, nil
}

// Poll scrapes every member concurrently and merges the results.
func (p *Poller) Poll(ctx context.Context) FleetView {
	states := make([]MemberState, len(p.members))
	var wg sync.WaitGroup
	for i, m := range p.members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			states[i] = MemberState{Member: m}
			start := time.Now()
			snap, err := Scrape(ctx, p.cfg.Client, m, p.cfg.BudgetTail)
			if err != nil {
				states[i].Err = err.Error()
				states[i].Skipped = errors.Is(err, ErrVersionSkew)
				return
			}
			states[i].Reachable = true
			states[i].Snapshot = snap
			// The snapshot's raw wall reading vs the scrape's midpoint
			// estimates the member's clock skew (the midpoint splits the
			// network round trip's bias). An implausible offset means a
			// simulated clock, not skew: leave SkewKnown false.
			if snap.HLCWallUnix != 0 {
				mid := (float64(start.UnixNano()) + float64(time.Now().UnixNano())) / 2e9
				skew := snap.HLCWallUnix - mid
				if skew > -skewCredibleSeconds && skew < skewCredibleSeconds {
					states[i].SkewSeconds = skew
					states[i].SkewKnown = true
				}
			}
		}(i, m)
	}
	wg.Wait()
	return p.merge(states)
}

// Merge builds a fleet view from already-collected member states —
// the pure half of Poll, usable on snapshots obtained out of band.
func (p *Poller) Merge(states []MemberState) FleetView { return p.merge(states) }

func (p *Poller) merge(states []MemberState) FleetView {
	v := FleetView{Members: states}
	budgets := make(map[string]*BudgetRollup)
	digests := make(map[string][]string) // digest -> member names

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range states {
		if st.Skipped {
			// The member answered — it is up, just newer than us.
			if p.down[st.Name] {
				p.reconnects[st.Name]++
				p.down[st.Name] = false
			}
			v.Global.Skipped++
			v.Anomalies = append(v.Anomalies, Anomaly{
				Kind: "version-skew", Member: st.Name, Detail: st.Err,
			})
			continue
		}
		if !st.Reachable {
			p.down[st.Name] = true
			v.Global.Unreachable++
			v.Anomalies = append(v.Anomalies, Anomaly{
				Kind: "unreachable", Member: st.Name, Detail: st.Err,
			})
			continue
		}
		if p.down[st.Name] {
			p.reconnects[st.Name]++
			p.down[st.Name] = false
		}
		snap := st.Snapshot
		v.Global.Members++
		v.Global.Grants += snap.Grants
		v.Global.Denies += snap.Denies
		v.Global.Decisions += snap.Decisions
		v.Global.Migrations += snap.Migrations
		v.Global.Watchers += snap.Watchers
		v.Global.AuditSinkErrors += snap.AuditSinkErrors
		v.Global.ShadowFlips += snap.ShadowFlips
		digests[snap.PolicyDigest] = append(digests[snap.PolicyDigest], st.Name)

		for _, s := range snap.Servers {
			v.PerServer = append(v.PerServer, ServerRollup{
				Member: st.Name, Server: s.ID, Grants: s.Grants, Denies: s.Denies,
			})
		}
		for _, b := range snap.Budgets {
			key := b.Object + "\x00" + b.Perm
			r, ok := budgets[key]
			if !ok {
				r = &BudgetRollup{Object: b.Object, Perm: b.Perm, Scheme: b.Scheme, Budget: b.Budget}
				budgets[key] = r
			}
			r.Members++
			if b.Scheme == "global" {
				// One coalition-wide budget: activity anywhere burns it.
				r.Consumed += b.Consumed
				r.BurnRate += b.BurnRate
			} else {
				// Budget restarts per server: track the hottest member.
				if b.Consumed > r.Consumed {
					r.Consumed = b.Consumed
				}
				if b.BurnRate > r.BurnRate {
					r.BurnRate = b.BurnRate
				}
			}
		}

		// Deny-rate spike vs the member's previous poll.
		if prev, ok := p.prev[st.Name]; ok {
			dDen := snap.Denies - prev.Denies
			dDec := snap.Decisions - prev.Decisions
			if dDec >= p.cfg.DenySpikeMin && float64(dDen) > p.cfg.DenySpikeRatio*float64(dDec) {
				v.Anomalies = append(v.Anomalies, Anomaly{
					Kind: "deny-spike", Member: st.Name,
					Detail: fmt.Sprintf("%d of %d new decisions denied", dDen, dDec),
				})
			}
		}
		p.prev[st.Name] = snap
	}

	for _, r := range budgets {
		r.Remaining = r.Budget - r.Consumed
		if r.Remaining < 0 {
			r.Remaining = 0
		}
		switch {
		case r.Remaining == 0:
			r.ETA = 0
		case r.BurnRate > 0:
			r.ETA = r.Remaining / r.BurnRate
		default:
			r.ETA = -1
		}
		if r.ETA >= 0 && r.ETA <= p.cfg.ExhaustionHorizon {
			v.Anomalies = append(v.Anomalies, Anomaly{
				Kind:    "budget-exhaustion",
				Subject: r.Object + "/" + r.Perm,
				Detail: fmt.Sprintf("%.3gs of %.3gs budget left, ETA %.3gs at %.3g s/s",
					r.Remaining, r.Budget, r.ETA, r.BurnRate),
			})
		}
		v.Budgets = append(v.Budgets, *r)
	}
	sort.Slice(v.Budgets, func(i, j int) bool {
		a, b := v.Budgets[i], v.Budgets[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Perm < b.Perm
	})
	sort.Slice(v.PerServer, func(i, j int) bool {
		a, b := v.PerServer[i], v.PerServer[j]
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		return a.Server < b.Server
	})

	if len(digests) > 1 {
		parts := make([]string, 0, len(digests))
		for d, names := range digests {
			short := d
			if len(short) > 12 {
				short = short[:12]
			}
			sort.Strings(names)
			parts = append(parts, fmt.Sprintf("%s:%v", short, names))
		}
		sort.Strings(parts)
		v.Anomalies = append(v.Anomalies, Anomaly{
			Kind:   "policy-divergence",
			Detail: fmt.Sprintf("members disagree on policy digest: %v", parts),
		})
	}
	p.mergePerf(&v)
	p.mergeClocks(&v)
	p.mergeCost(&v)
	sort.Slice(v.Anomalies, func(i, j int) bool {
		a, b := v.Anomalies[i], v.Anomalies[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Member != b.Member {
			return a.Member < b.Member
		}
		return a.Subject < b.Subject
	})
	return v
}
