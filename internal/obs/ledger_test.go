package obs

import (
	"testing"
	"time"
)

// TestStageLedgerCharges: each boundary charges the time since the
// previous one to the stage it leaves, a stage entered twice
// accumulates, and the stages always sum to the latest boundary.
func TestStageLedgerCharges(t *testing.T) {
	var l StageLedger
	l.Start(StageDecode)
	time.Sleep(time.Millisecond)
	verifyAt := l.Enter(StageVerify)
	time.Sleep(time.Millisecond)
	l.Enter(StageResidue)
	l.Enter(StageVerify)
	time.Sleep(time.Millisecond)
	end := l.Enter(StageResidue)

	if got := l.Stage(StageDecode); got != verifyAt || got < time.Millisecond {
		t.Fatalf("decode charged %v, want the first boundary %v (>= 1ms)", got, verifyAt)
	}
	if got := l.Stage(StageVerify); got < 2*time.Millisecond {
		t.Fatalf("verify charged %v over two entries, want >= 2ms", got)
	}
	var sum time.Duration
	for s := Stage(0); s < NumStages; s++ {
		sum += l.Stage(s)
	}
	if sum != end || l.Wall() != end {
		t.Fatalf("stages sum to %v, wall %v, last boundary %v", sum, l.Wall(), end)
	}
	if at, _, ok := l.Interval(StageVerify); !ok || at != verifyAt {
		t.Fatalf("verify first entered at %v (ok %v), want %v", at, ok, verifyAt)
	}
	if _, _, ok := l.Interval(StagePrefix); ok {
		t.Fatal("prefix reads as entered")
	}
	if got := l.Time(verifyAt).Sub(l.Time(0)); got != verifyAt {
		t.Fatalf("wall times %v apart, want %v", got, verifyAt)
	}
	st := l.StageTimes()
	// Residue holds only the instant between two boundaries.
	if len(st) < 2 || len(st) > 3 || st[0].Stage != "decode" || st[1].Stage != "verify" {
		t.Fatalf("stage times = %+v", st)
	}
	vec := []StageTime{{"decode", 1e-6}, {"verify", 3e-6}, {"residue", 2e-6}}
	if got := DominantStage(vec); got != "verify" {
		t.Fatalf("dominant stage %q, want verify", got)
	}
	if DominantStage(nil) != "" {
		t.Fatal("empty vector names a stage")
	}

	l.Start(StageWrite)
	if l.Wall() != 0 || l.Stage(StageVerify) != 0 {
		t.Fatal("Start kept earlier marks")
	}
}
