package record

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stac/internal/obs"
)

func TestAppendStampsAndRetains(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Capacity: 4, Registry: reg, PolicyDigest: "abc"})
	for i := 0; i < 3; i++ {
		r.Append(Record{Kind: KindDecide, Time: float64(i), Object: fmt.Sprintf("o%d", i)})
	}
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Schema != SchemaVersion {
			t.Errorf("rec %d schema = %d, want %d", i, rec.Schema, SchemaVersion)
		}
		if rec.Seq != uint64(i+1) {
			t.Errorf("rec %d seq = %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Policy != "abc" {
			t.Errorf("rec %d policy = %q, want abc", i, rec.Policy)
		}
	}
	if got := reg.CounterValue("stac_recorder_records_total", ""); got != 3 {
		t.Errorf("stac_recorder_records_total = %d, want 3", got)
	}
	st := r.Status()
	if st.Total != 3 || st.Retained != 3 || st.Capacity != 4 || st.WALConfigured || st.WALDegraded {
		t.Errorf("unexpected status %+v", st)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := New(Config{Capacity: 3, Registry: obs.NewRegistry()})
	for i := 1; i <= 5; i++ {
		r.Append(Record{Kind: KindGrant, Object: fmt.Sprintf("o%d", i)})
	}
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, want := range []string{"o3", "o4", "o5"} {
		if recs[i].Object != want {
			t.Errorf("recs[%d].Object = %q, want %q", i, recs[i].Object, want)
		}
		if recs[i].Seq != uint64(i+3) {
			t.Errorf("recs[%d].Seq = %d, want %d", i, recs[i].Seq, i+3)
		}
	}
	if st := r.Status(); st.Total != 5 || st.Retained != 3 {
		t.Errorf("status total/retained = %d/%d, want 5/3", st.Total, st.Retained)
	}
}

func TestWALRoundTrip(t *testing.T) {
	var wal bytes.Buffer
	r := New(Config{Capacity: 2, WAL: &wal, Registry: obs.NewRegistry(), PolicyDigest: "d1"})
	in := []Record{
		{Kind: KindArrive, Time: 0, Object: "o1", Server: "s1"},
		{Kind: KindActivate, Time: 0, Object: "o1", User: "u1", Roles: []string{"r1", "r2"}},
		{Kind: KindDecide, Time: 1.5, Object: "o1", Server: "s1", Op: "read", Resource: "f",
			User: "u1", Roles: []string{"r1"},
			History: []HistoryEntry{{Object: "o1", Op: "read", Resource: "f", Server: "s0", Proven: true}},
			Granted: true, Perm: "p1", Spatial: "satisfied", Temporal: "valid",
			DecisionID: "d-0011223344556677", TraceID: "t-1",
			Consumed: 1.5, Budget: 30, Scheme: "global"},
		{Kind: KindGrant, Time: 1.5, Object: "o1", Server: "s1", Op: "read", Resource: "f"},
		{Kind: KindDecide, Time: 1.75, Object: "o1", Server: "s1", Op: "read", Resource: "gone",
			Granted: true, Perm: "p1", DecisionID: "d-8899aabbccddeeff",
			ServedReason: "unknown resource",
			Shadow:       &ShadowVerdict{Granted: false, Flip: true, Deny: "spatial_violated", Clause: "count(0, 0, sigma[r=f])"}},
		{Kind: KindDeactivate, Time: 2, Object: "o1", User: "u1"},
	}
	for _, rec := range in {
		r.Append(rec)
	}
	// The WAL keeps everything even though the ring holds only 2.
	got, err := ReadAll(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("WAL holds %d records, want %d", len(got), len(in))
	}
	for i := range in {
		want := in[i]
		want.Schema = SchemaVersion
		want.Seq = uint64(i + 1)
		want.Policy = "d1"
		a, _ := encodeString(got[i])
		b, _ := encodeString(want)
		if a != b {
			t.Errorf("record %d round-trip mismatch:\n got %s\nwant %s", i, a, b)
		}
	}
}

func encodeString(r Record) (string, error) {
	var b bytes.Buffer
	err := Encode(&b, r)
	return b.String(), err
}

func TestDecodeRejectsBadRecords(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"not json", "{"},
		{"missing schema", `{"kind":"decide"}`},
		{"newer schema", fmt.Sprintf(`{"schema":%d,"kind":"decide"}`, SchemaVersion+1)},
		{"unknown kind", `{"schema":1,"kind":"launch"}`},
		{"served reason off decide", `{"schema":2,"kind":"grant","served_reason":"unknown resource"}`},
		{"shadow off decide", `{"schema":2,"kind":"arrive","shadow":{"granted":true,"flip":false}}`},
	}
	for _, tc := range cases {
		if _, err := Decode([]byte(tc.line)); err == nil {
			t.Errorf("%s: Decode accepted %q", tc.name, tc.line)
		}
	}
}

func TestDecodeIgnoresUnknownFields(t *testing.T) {
	rec, err := Decode([]byte(`{"schema":1,"kind":"arrive","object":"o1","future_field":42}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if rec.Object != "o1" {
		t.Errorf("Object = %q, want o1", rec.Object)
	}
}

// A schema-2 decide line from an engine that still had the incremental
// counting mode decodes with the retired flag ignored, and re-encodes
// without it.
func TestDecodeLegacyIncrementalDecide(t *testing.T) {
	line := `{"schema":2,"seq":3,"kind":"decide","time":1.5,"object":"o1","server":"s1","op":"read",` +
		`"resource":"f","history":[{"object":"o1","op":"read","resource":"f","server":"s1","proven":true}],` +
		`"history_base":1,"incremental":true,"granted":true,"perm":"p","spatial":"satisfied"}`
	rec, err := Decode([]byte(line))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if rec.Kind != KindDecide || rec.HistoryBase != 1 || len(rec.History) != 1 || !rec.Granted || rec.Perm != "p" {
		t.Fatalf("decoded = %+v", rec)
	}
	out, err := encodeString(rec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "incremental") {
		t.Fatalf("re-encoded record carries the retired flag: %s", out)
	}
}

func TestReadAllSkipsBlanksAndReportsLine(t *testing.T) {
	src := `{"schema":1,"kind":"arrive","object":"o1"}

{"schema":1,"kind":"grant","object":"o1"}
`
	recs, err := ReadAll(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	bad := src + "{broken\n"
	if _, err := ReadAll(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("ReadAll on malformed line: err = %v, want line 4 mention", err)
	}
}

// A daemon killed mid-append leaves a final line with no newline that
// does not decode: ReadAll drops that torn tail and keeps the rest. A
// complete final line without a newline still counts.
func TestReadAllDropsTornTail(t *testing.T) {
	src := `{"schema":1,"kind":"arrive","object":"o1"}
{"schema":1,"kind":"grant","object":"o1"}
`
	recs, err := ReadAll(strings.NewReader(src + `{"schema":1,"kind":"dec`))
	if err != nil || len(recs) != 2 {
		t.Fatalf("torn tail: %d records, err = %v, want the 2 whole ones", len(recs), err)
	}
	recs, err = ReadAll(strings.NewReader(src + `{"schema":1,"kind":"grant","object":"o2"}`))
	if err != nil || len(recs) != 3 || recs[2].Object != "o2" {
		t.Fatalf("unterminated whole line: %d records, err = %v, want 3", len(recs), err)
	}
}

type failAfter struct {
	n    int
	errs int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		f.errs++
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// OpenWAL ends the tail an append cut short left behind: a fragment
// is truncated away and a whole record without its newline gets one,
// so the next append starts a line of its own.
func TestOpenWALEndsTornTail(t *testing.T) {
	var whole bytes.Buffer
	if err := Encode(&whole, Record{Schema: SchemaVersion, Seq: 1, Kind: KindDecide, Object: "a"}); err != nil {
		t.Fatal(err)
	}
	unterminated := bytes.TrimSuffix(whole.Bytes(), []byte("\n"))
	for _, tc := range []struct {
		name    string
		content []byte
		want    int // records ReadAll finds after one more append
	}{
		{"empty", nil, 1},
		{"clean", whole.Bytes(), 2},
		{"fragment", append(bytes.Clone(whole.Bytes()), `{"schema":2,"se`...), 2},
		{"fragment only", []byte(`{"schema":2,"se`), 1},
		{"unterminated record", append(bytes.Clone(whole.Bytes()), unterminated...), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.wal")
			if err := os.WriteFile(path, tc.content, 0o600); err != nil {
				t.Fatal(err)
			}
			f, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			err = Encode(f, Record{Schema: SchemaVersion, Seq: 9, Kind: KindDecide, Object: "z"})
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadAll after reopen: %v\n%s", err, data)
			}
			if len(recs) != tc.want || recs[len(recs)-1].Object != "z" {
				t.Fatalf("read %d records (%+v), want %d ending in the new one", len(recs), recs, tc.want)
			}
		})
	}
}

func TestWALFailureDegradesToRingOnly(t *testing.T) {
	reg := obs.NewRegistry()
	w := &failAfter{n: 2}
	r := New(Config{Capacity: 8, WAL: w, Registry: reg})
	for i := 0; i < 5; i++ {
		r.Append(Record{Kind: KindDecide})
	}
	st := r.Status()
	if !st.WALConfigured || !st.WALDegraded {
		t.Fatalf("status = %+v, want configured+degraded", st)
	}
	if !strings.Contains(st.WALError, "disk full") {
		t.Errorf("WALError = %q, want disk full", st.WALError)
	}
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1 (sticky degradation, not per-append)", st.Errors)
	}
	if got := reg.CounterValue("stac_recorder_errors_total", ""); got != 1 {
		t.Errorf("stac_recorder_errors_total = %d, want 1", got)
	}
	if w.errs != 1 {
		t.Errorf("writer saw %d failed writes, want exactly 1 (degradation is sticky)", w.errs)
	}
	// The ring kept everything.
	if got := len(r.Records()); got != 5 {
		t.Errorf("ring holds %d records, want 5", got)
	}
}

// Status.Errors counts the recorder's own failed appends, while every
// failure also lands on the registry's shared counter: a healthy
// recorder attached after a failed one reports none, and two failed
// recorders on one registry report one each against a total of two.
func TestStatusErrorsAreTheRecordersOwn(t *testing.T) {
	reg := obs.NewRegistry()
	failed := New(Config{WAL: &failAfter{n: 0}, Registry: reg})
	failed.Append(Record{Kind: KindDecide})
	healthy := New(Config{WAL: io.Discard, Registry: reg})
	healthy.Append(Record{Kind: KindDecide})
	if st := healthy.Status(); st.Errors != 0 || st.WALDegraded {
		t.Fatalf("healthy recorder attached after a failed one: %+v", st)
	}
	other := New(Config{WAL: &failAfter{n: 1}, Registry: reg})
	for i := 0; i < 3; i++ {
		other.Append(Record{Kind: KindDecide})
	}
	for name, r := range map[string]*Recorder{"first": failed, "second": other} {
		if st := r.Status(); st.Errors != 1 || !st.WALDegraded {
			t.Errorf("%s failed recorder: %+v, want 1 error", name, st)
		}
	}
	if got := reg.CounterValue("stac_recorder_errors_total", ""); got != 2 {
		t.Fatalf("stac_recorder_errors_total = %d, want both recorders' failures", got)
	}
}

func TestSetPolicyDigest(t *testing.T) {
	r := New(Config{Capacity: 4, Registry: obs.NewRegistry(), PolicyDigest: "old"})
	r.Append(Record{Kind: KindArrive})
	r.SetPolicyDigest("new")
	r.Append(Record{Kind: KindArrive})
	recs := r.Records()
	if recs[0].Policy != "old" || recs[1].Policy != "new" {
		t.Errorf("policies = %q, %q; want old, new", recs[0].Policy, recs[1].Policy)
	}
	if st := r.Status(); st.PolicyDigest != "new" {
		t.Errorf("Status.PolicyDigest = %q, want new", st.PolicyDigest)
	}
}

func TestConcurrentAppend(t *testing.T) {
	r := New(Config{Capacity: 64, Registry: obs.NewRegistry()})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				r.Append(Record{Kind: KindDecide})
				r.Records()
				r.Status()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := r.Status(); st.Total != 400 || st.Retained != 64 {
		t.Errorf("status total/retained = %d/%d, want 400/64", st.Total, st.Retained)
	}
}

func TestRecordsSinceCursorSemantics(t *testing.T) {
	r := New(Config{Capacity: 4, Registry: obs.NewRegistry()})
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			r.Append(Record{Kind: KindGrant, Object: "o"})
		}
	}
	check := func(cursor uint64, wantSeqs []uint64, wantMissed, wantTotal uint64) {
		t.Helper()
		recs, missed, total := r.RecordsSince(cursor)
		var seqs []uint64
		for _, rec := range recs {
			seqs = append(seqs, rec.Seq)
		}
		if fmt.Sprint(seqs) != fmt.Sprint(wantSeqs) {
			t.Fatalf("RecordsSince(%d) seqs = %v, want %v", cursor, seqs, wantSeqs)
		}
		if missed != wantMissed || total != wantTotal {
			t.Fatalf("RecordsSince(%d) missed=%d total=%d, want %d/%d",
				cursor, missed, total, wantMissed, wantTotal)
		}
	}

	// Empty recorder.
	check(0, nil, 0, 0)

	// Partially filled ring: no eviction possible.
	appendN(3) // seqs 1..3
	check(0, []uint64{1, 2, 3}, 0, 3)
	check(2, []uint64{3}, 0, 3)
	check(3, nil, 0, 3)
	check(99, nil, 0, 3)

	// Overflow the ring: seqs 4..7 retained, 1..3 evicted.
	appendN(4) // total 7, capacity 4
	check(0, []uint64{4, 5, 6, 7}, 3, 7)
	check(2, []uint64{4, 5, 6, 7}, 1, 7)
	check(3, []uint64{4, 5, 6, 7}, 0, 7)
	check(5, []uint64{6, 7}, 0, 7)
	check(7, nil, 0, 7)

	// Resumed cursor after more appends stays gap-free while within
	// the retained window.
	appendN(1) // seq 8; retained 5..8
	check(7, []uint64{8}, 0, 8)
	check(3, []uint64{5, 6, 7, 8}, 1, 8)
}

func TestRecordsSinceNBoundsTheBatch(t *testing.T) {
	r := New(Config{Capacity: 8, Registry: obs.NewRegistry()})
	for i := 0; i < 6; i++ {
		r.Append(Record{Kind: KindGrant, Object: "o"})
	}
	batch := func(cursor uint64, limit int, wantSeqs []uint64, wantMissed uint64) {
		t.Helper()
		recs, missed, total := r.RecordsSinceN(cursor, limit)
		var seqs []uint64
		for _, rec := range recs {
			seqs = append(seqs, rec.Seq)
		}
		if fmt.Sprint(seqs) != fmt.Sprint(wantSeqs) || missed != wantMissed || total != r.Status().Total {
			t.Fatalf("RecordsSinceN(%d, %d) = %v missed %d, want %v missed %d",
				cursor, limit, seqs, missed, wantSeqs, wantMissed)
		}
	}
	// Bounded batches walk the backlog; limit <= 0 means unlimited.
	batch(0, 2, []uint64{1, 2}, 0)
	batch(2, 2, []uint64{3, 4}, 0)
	batch(4, 100, []uint64{5, 6}, 0)
	batch(0, 0, []uint64{1, 2, 3, 4, 5, 6}, 0)
	batch(0, -1, []uint64{1, 2, 3, 4, 5, 6}, 0)
	// Batching after eviction: the gap reports first, then the bounded
	// read starts at the oldest retained record (full-ring path).
	for i := 0; i < 4; i++ {
		r.Append(Record{Kind: KindGrant, Object: "o"}) // total 10, retained 3..10
	}
	batch(0, 3, []uint64{3, 4, 5}, 2)
	batch(5, 3, []uint64{6, 7, 8}, 0)
}

func TestValidateRejectsMalformedHLC(t *testing.T) {
	rec := Record{Schema: SchemaVersion, Kind: KindGrant, HLC: "not-an-hlc"}
	if err := rec.Validate(); err == nil {
		t.Fatal("Validate accepted malformed hlc")
	}
	rec.HLC = "00000000000000ff.2"
	if err := rec.Validate(); err != nil {
		t.Fatalf("Validate rejected valid hlc: %v", err)
	}
}
