package hlc

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"stac/internal/temporal"
)

func TestNowMonotonicUnderRegressingWall(t *testing.T) {
	// Wall source that steps backwards mid-sequence.
	walls := []int64{100, 200, 150, 150, 300, 50}
	i := 0
	c := New(func() int64 { w := walls[i%len(walls)]; i++; return w })
	prev := c.Now()
	for n := 0; n < 20; n++ {
		cur := c.Now()
		if !cur.After(prev) {
			t.Fatalf("Now not monotone: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestObserveAdvancesPastRemote(t *testing.T) {
	c := New(func() int64 { return 1000 })
	remote := Timestamp{Wall: 5000, Logical: 7}
	got := c.Observe(remote)
	if !got.After(remote) {
		t.Fatalf("Observe(%v) = %v, not after remote", remote, got)
	}
	if got.Wall != 5000 || got.Logical != 8 {
		t.Fatalf("Observe(%v) = %v, want wall carried with logical+1", remote, got)
	}
	// Subsequent local events stay above the observed wall even though
	// the local physical clock is behind.
	next := c.Now()
	if !next.After(got) {
		t.Fatalf("Now after Observe = %v, want > %v", next, got)
	}
	if next.Wall != 5000 {
		t.Fatalf("Now after Observe lost carried wall: %v", next)
	}
}

func TestObserveOldRemoteStillTicks(t *testing.T) {
	c := New(func() int64 { return 9000 })
	first := c.Now()
	got := c.Observe(Timestamp{Wall: 10, Logical: 3})
	if !got.After(first) {
		t.Fatalf("Observe(old) = %v, want > %v", got, first)
	}
}

func TestCausalChainAcrossClocksWithSkew(t *testing.T) {
	// Member B's wall is 5s behind A's; a message chain A→B→A must
	// still produce strictly increasing timestamps.
	var wall int64 = 10_000_000_000
	a := New(func() int64 { return wall })
	b := New(func() int64 { return wall - 5_000_000_000 })
	send := a.Now()
	recv := b.Observe(send)
	if !recv.After(send) {
		t.Fatalf("B recv %v not after A send %v despite skew", recv, send)
	}
	reply := b.Now()
	if !reply.After(recv) {
		t.Fatalf("B reply %v not after recv %v", reply, recv)
	}
	back := a.Observe(reply)
	if !back.After(reply) {
		t.Fatalf("A observe %v not after B reply %v", back, reply)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []Timestamp{
		{Wall: 1, Logical: 0},
		{Wall: 1_700_000_000_123_456_789, Logical: 42},
		{Wall: 9, Logical: 0xffffffff},
	}
	for _, ts := range cases {
		got, err := Parse(ts.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", ts.String(), err)
		}
		if got != ts {
			t.Fatalf("round trip %v -> %q -> %v", ts, ts.String(), got)
		}
	}
	// Zero round-trips through the empty string.
	if s := (Timestamp{}).String(); s != "" {
		t.Fatalf("zero String() = %q, want empty", s)
	}
	if ts, err := Parse(""); err != nil || !ts.IsZero() {
		t.Fatalf("Parse(\"\") = %v, %v", ts, err)
	}
}

// String is built without fmt; each form must equal the Sprintf it
// replaced.
func TestStringMatchesSprintf(t *testing.T) {
	for _, ts := range []Timestamp{
		{},
		{Wall: 1},
		{Logical: 1},
		{Wall: 0x1234, Logical: 0xab},
		{Wall: 1_700_000_000_123_456_789, Logical: 7},
		{Wall: math.MaxInt64, Logical: math.MaxUint32},
		{Wall: -1, Logical: math.MaxUint32},
		{Wall: math.MinInt64},
	} {
		want := fmt.Sprintf("%016x.%x", uint64(ts.Wall), ts.Logical)
		if ts.IsZero() {
			want = ""
		}
		if got := ts.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", ts, got, want)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"nope", "12.34", "0000000000000001", "000000000000000g.1",
		"0000000000000001.zz", "0000000000000000.0", "0000000000000001.100000000",
	} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) accepted malformed input", s)
		}
	}
}

func TestStringOrderMatchesCausalOrder(t *testing.T) {
	a := Timestamp{Wall: 100, Logical: 9}
	b := Timestamp{Wall: 100, Logical: 10}
	c := Timestamp{Wall: 101, Logical: 0}
	if !(a.Before(b) && b.Before(c)) {
		t.Fatal("fixture not ordered")
	}
	// Note: lexical order of the wire form matches wall order; logical
	// ties need Compare (variable-width hex). Just verify wall order.
	if !(a.String() < c.String()) {
		t.Fatalf("wire form order broken: %q vs %q", a.String(), c.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type wrap struct {
		TS Timestamp `json:"ts"`
	}
	in := wrap{TS: Timestamp{Wall: 123456789, Logical: 3}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out wrap
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("json round trip: %v -> %s -> %v", in, b, out)
	}
}

func TestWallFromTemporal(t *testing.T) {
	sim := temporal.NewSimClock(12.5)
	src := WallFromTemporal(sim)
	if src == nil {
		t.Fatal("sim clock mapped to host wall source")
	}
	if got := src(); got != int64(12.5*1e9) {
		t.Fatalf("sim wall = %d, want %d", got, int64(12.5*1e9))
	}
	if WallFromTemporal(temporal.NewRealClock()) != nil {
		t.Fatal("real clock should map to nil (host wall clock)")
	}
}

func TestConcurrentNowUnique(t *testing.T) {
	c := New(func() int64 { return 42 }) // frozen wall: logical must disambiguate
	const workers, per = 8, 200
	var wg sync.WaitGroup
	out := make([][]Timestamp, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out[w] = append(out[w], c.Now())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[Timestamp]bool, workers*per)
	for _, ts := range out {
		for _, t0 := range ts {
			if seen[t0] {
				t.Fatalf("duplicate timestamp %v under concurrency", t0)
			}
			seen[t0] = true
		}
	}
}
