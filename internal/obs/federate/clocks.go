package federate

import (
	"fmt"
	"sort"
)

// Fleet-level clock and journal health: each member's snapshot carries
// its raw physical wall reading (hlc_wall_unix_s, deliberately NOT the
// causally propagated HLC — propagation absorbs remote readings and
// would hide exactly the skew being measured) and its /debug/journal
// tail state (snapshot v4); the poller reduces those to one row per
// member so `stacctl top` can name the member whose clock drifted or
// whose followers fell behind.

// skewCredibleSeconds bounds a believable wall-clock offset. A member
// running a simulated or epoch-relative clock reports a "wall" nowhere
// near Unix time; an offset beyond a day is that, not skew, and is
// reported as not comparable rather than as an absurd anomaly.
const skewCredibleSeconds = 86400

// ClockRollup is one member's clock and journal-tail health, reduced.
type ClockRollup struct {
	Member string `json:"member"`
	// HLC is the member's hybrid-logical-clock reading at scrape time.
	HLC string `json:"hlc,omitempty"`
	// SkewSeconds estimates the member's physical clock offset from
	// the poller's (positive = member ahead); SkewKnown gates it — a
	// member on a simulated clock is not comparable.
	SkewSeconds float64 `json:"skew_s"`
	SkewKnown   bool    `json:"skew_known"`
	// Tails / MaxLagRecords / Gaps mirror the member's journal stats
	// (zero when the member serves no snapshot journal section).
	Tails         int    `json:"tails"`
	MaxLagRecords uint64 `json:"max_lag_records"`
	Gaps          int64  `json:"gaps"`
	// Reconnects counts the member's unreachable→reachable transitions
	// this poller has witnessed (a restart-flap indicator).
	Reconnects int64 `json:"reconnects"`
}

// mergeClocks appends per-member clock rollups to the view and flags
// clock-skew and journal-lag anomalies. Called under p.mu.
func (p *Poller) mergeClocks(v *FleetView) {
	for _, st := range v.Members {
		if !st.Reachable || st.Skipped {
			continue
		}
		r := ClockRollup{
			Member:      st.Name,
			HLC:         st.Snapshot.HLC,
			SkewSeconds: st.SkewSeconds,
			SkewKnown:   st.SkewKnown,
			Reconnects:  p.reconnects[st.Name],
		}
		if j := st.Snapshot.Journal; j != nil {
			r.Tails = j.ActiveTails
			r.MaxLagRecords = j.MaxLagRecords
			r.Gaps = j.Gaps
			if j.MaxLagRecords > p.cfg.JournalLagThreshold {
				v.Anomalies = append(v.Anomalies, Anomaly{
					Kind: "journal-lag", Member: st.Name,
					Detail: fmt.Sprintf("journal tail %d records behind (threshold %d, %d gap records already lost)",
						j.MaxLagRecords, p.cfg.JournalLagThreshold, j.Gaps),
				})
			}
		}
		v.Clocks = append(v.Clocks, r)
		if st.SkewKnown {
			skew := st.SkewSeconds
			if skew < 0 {
				skew = -skew
			}
			if skew > p.cfg.SkewThreshold {
				v.Anomalies = append(v.Anomalies, Anomaly{
					Kind: "clock-skew", Member: st.Name,
					Detail: fmt.Sprintf("physical clock %+.3gs from the poller's (threshold %.3gs); HLC ordering unaffected, but wall timestamps mislead",
						st.SkewSeconds, p.cfg.SkewThreshold),
				})
			}
		}
	}
	sort.Slice(v.Clocks, func(i, j int) bool { return v.Clocks[i].Member < v.Clocks[j].Member })
}
