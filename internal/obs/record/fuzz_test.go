package record

import (
	"bytes"
	"testing"
)

// FuzzRecordDecode fuzzes the WAL line decoder: no input may panic,
// and any line that decodes must survive an Encode/Decode round trip
// unchanged.
func FuzzRecordDecode(f *testing.F) {
	// Seed with the encoder's own output across every record kind.
	seeds := []Record{
		{Schema: SchemaVersion, Seq: 1, Kind: KindArrive, Time: 0, Object: "o1", Server: "s1", Policy: "deadbeef"},
		{Schema: SchemaVersion, Seq: 2, Kind: KindActivate, Time: 0.5, Object: "o1", User: "u1", Roles: []string{"surveyor"}},
		{Schema: SchemaVersion, Seq: 3, Kind: KindDeactivate, Time: 9, Object: "o1", User: "u1"},
		{Schema: SchemaVersion, Seq: 4, Kind: KindGrant, Time: 1, Object: "o1", Server: "s1", Op: "read", Resource: "map"},
		{Schema: SchemaVersion, Seq: 5, Kind: KindDecide, Time: 1, Object: "o1", Server: "s1",
			Op: "read", Resource: "map", User: "u1", Roles: []string{"surveyor"},
			History: []HistoryEntry{{Object: "o1", Op: "read", Resource: "map", Server: "s0", Proven: true}},
			Granted: false, Deny: "spatial_violation", Reason: "count 3 exceeds ceiling 2",
			Spatial: "violated", Temporal: "valid", DecisionID: "d-0011223344556677",
			Explanation: []byte(`{"constraint":"count(0, 2, sigma[op=read])"}`),
			Consumed:    1, Budget: 30, Scheme: "per-server"},
		{Schema: SchemaVersion, Seq: 6, Kind: KindDecide, Time: 2, Object: "o1", Server: "s1",
			Op: "read", Resource: "gone", Granted: true, Perm: "p", DecisionID: "d-8899aabbccddeeff",
			ServedReason: "unknown resource",
			Shadow:       &ShadowVerdict{Granted: false, Flip: true, Deny: "spatial_violated", Reason: "tightened", Clause: "count(0, 0, sigma[r=map])", Detail: "count 1 exceeds ceiling 0"}},
	}
	for _, s := range seeds {
		var b bytes.Buffer
		if err := Encode(&b, s); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimRight(b.Bytes(), "\n"))
	}
	f.Add([]byte(`{"schema":1,"kind":"decide","future_field":true}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := Decode(line)
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := Encode(&b, rec); err != nil {
			t.Fatalf("Encode of decoded record failed: %v", err)
		}
		again, err := Decode(bytes.TrimRight(b.Bytes(), "\n"))
		if err != nil {
			t.Fatalf("re-Decode failed: %v", err)
		}
		var b2 bytes.Buffer
		if err := Encode(&b2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), b2.Bytes()) {
			t.Fatalf("round trip not stable:\n first %s\nsecond %s", b.Bytes(), b2.Bytes())
		}
	})
}
