package obs

// The stage ledger is the one timing model of a served request: a
// fixed-size vector of per-stage durations, filled by one monotonic
// clock read at each boundary between stages. The daemon starts a
// ledger when a request line has been read and closes it when the
// reply is written; the engine marks its own stages on the same
// ledger. Every other timing of those stages is derived from the
// marks: the stage and decision histograms, the cost profiler's static
// check time, the latency exemplars' stage vectors, and, for a context
// the client sampled, the span tree rendered after the decision.

import "time"

// Stage names one step of a served request.
type Stage uint8

// The stages of an access, in path order. StageResidue is the time
// between the named stages: dispatch, session and dedup lookups,
// profiling, bookkeeping.
const (
	StageDecode   Stage = iota // request line to decoded request
	StageVerify                // carried-proof HMAC verification
	StageLookup                // session, RBAC permission and policy lookup
	StageStatic                // check(P, C) of the declared program
	StagePrefix                // SRAC prefix evaluation
	StageTemporal              // Expression 4.1 validity
	StageLog                   // decide and grant records
	StageIssue                 // proof issue and log append
	StageWrite                 // reply encode and write
	StageResidue               // everything between the named stages
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "verify", "lookup", "static", "prefix",
	"temporal", "log", "issue", "write", "residue",
}

// String returns the stage's metric label.
func (s Stage) String() string { return stageNames[s] }

// ledgerEpoch anchors the ledger's monotonic reads: time.Since of a
// time with a monotonic reading is one clock read.
var ledgerEpoch = time.Now()

func mono() time.Duration { return time.Since(ledgerEpoch) }

// StageLedger times one request's stages. The zero value is idle; Start
// opens it. A ledger belongs to the goroutine serving the request;
// readers get copies (StageTimes).
type StageLedger struct {
	// start is the request's first boundary, since ledgerEpoch; last
	// the latest boundary, since start.
	start, last time.Duration
	cur         Stage
	// entered has bit s set once stage s was entered, at offset at[s].
	entered uint16
	at      [NumStages]time.Duration
	ns      [NumStages]time.Duration
}

// Start opens the ledger in stage s, discarding earlier marks.
func (l *StageLedger) Start(s Stage) {
	*l = StageLedger{start: mono(), cur: s, entered: 1 << s}
}

// Enter marks a boundary: the time since the previous boundary is
// charged to the current stage, and s becomes current. It returns the
// boundary's offset from the start.
func (l *StageLedger) Enter(s Stage) time.Duration {
	now := mono() - l.start
	l.ns[l.cur] += now - l.last
	l.last, l.cur = now, s
	if l.entered&(1<<s) == 0 {
		l.entered |= 1 << s
		l.at[s] = now
	}
	return now
}

// Wall returns the offset of the latest boundary: the sum of the
// stages charged so far.
func (l *StageLedger) Wall() time.Duration { return l.last }

// Stage returns the time charged to s so far.
func (l *StageLedger) Stage(s Stage) time.Duration { return l.ns[s] }

// Interval returns the offset at which s was first entered and the time
// charged to it; ok is false when s was never entered. For a stage
// entered once, the two bound it exactly.
func (l *StageLedger) Interval(s Stage) (at, dur time.Duration, ok bool) {
	return l.at[s], l.ns[s], l.entered&(1<<s) != 0
}

// Time converts an offset into the wall-clock time a span starts at.
func (l *StageLedger) Time(off time.Duration) time.Time {
	return ledgerEpoch.Add(l.start + off)
}

// StageTime is one stage's share of a request, as exemplars keep it.
type StageTime struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// StageTimes copies the stages charged so far, in path order, skipping
// stages with nothing charged.
func (l *StageLedger) StageTimes() []StageTime {
	var out []StageTime
	for s, d := range l.ns {
		if d > 0 {
			out = append(out, StageTime{Stage: stageNames[s], Seconds: d.Seconds()})
		}
	}
	return out
}

// DominantStage names the stage with the most time in st ("" when st
// is empty).
func DominantStage(st []StageTime) string {
	best := -1
	for i, s := range st {
		if best < 0 || s.Seconds > st[best].Seconds {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return st[best].Stage
}
