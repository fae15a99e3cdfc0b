package srac

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/trace"
)

// parseSeeds are FuzzParse's inline seeds; FuzzPrefixAgreement starts
// from them too, together with the checked-in FuzzParse corpus.
var parseSeeds = []string{
	"T", "F",
	"[read f1 @ s1]",
	"[o1: * f1 @ *] >> [write f2 @ s2]",
	"count(0, 5, sigma[r=rsw-licensed,rsw-trial])",
	"count(2, inf, sigma[*])",
	"not T and F or [read f @ s] -> T",
	"count(0, 1, sigma[o=o1,o2; op=read; r=f1; s=s1,s2])",
	"[[", "count(", "sigma", ">>",
}

// FuzzParse checks that the SRAC parser never panics and accepted
// constraints round-trip through the printer.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		printed := String(c)
		d, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected its printed form %q: %v", src, printed, err)
		}
		if String(d) != printed {
			t.Fatalf("round trip changed constraint: %q -> %q -> %q", src, printed, String(d))
		}
		// Evaluation must be total on any accepted constraint.
		_ = SatisfiesTrace(trace.Empty, c, nil)
		_ = EvalPrefix(trace.Empty, c, nil)
	})
}

// parseCorpus returns the source strings of the checked-in FuzzParse
// corpus (testdata/fuzz/FuzzParse, one `string("…")` value per file).
func parseCorpus(f *testing.F) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					f.Fatalf("%s: %v", name, err)
				}
				out = append(out, src)
			}
		}
	}
	return out
}

// agreementPool is the 4-access pool FuzzPrefixAgreement's histories
// draw from; its accesses hit the atoms and selectors of the seeds.
var agreementPool = [4]model.Access{
	model.NewAccess("o1", "read", "f1", "s1"),
	model.NewAccess("o1", "write", "f2", "s2"),
	model.NewAccess("o2", "read", "rsw-licensed", "s1"),
	model.NewAccess("o1", "execute", "rsw", "s2"),
}

// FuzzPrefixAgreement is the differential check of the one production
// walk: for any parsable constraint, any history over agreementPool
// (each byte's low two bits pick an access; at most 16 entries) and
// any set of unproven pool accesses (bit j of the mask marks
// agreementPool[j] unproven), every record agrees with the reference
// evaluator and Definition 3.6 — the root's Holds with SatisfiesTrace
// on the whole constraint — and the projections agree with each other
// (checkAgreement).
func FuzzPrefixAgreement(f *testing.F) {
	for i, src := range append(append([]string(nil), parseSeeds...), parseCorpus(f)...) {
		f.Add(src, []byte{0, 1, 2, 3, 0, 0}, uint8(0))
		f.Add(src, []byte{2, 0, 0, 1, 0, 3, 0}, uint8(1<<(i%4)))
		f.Add(src, []byte{}, uint8(0))
	}
	f.Fuzz(func(t *testing.T, src string, picks []byte, unprovenMask uint8) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		if len(picks) > 16 {
			picks = picks[:16]
		}
		hist := make(trace.Trace, len(picks))
		for i, b := range picks {
			hist[i] = agreementPool[b&3]
		}
		oracle := OracleFunc(func(a model.Access) bool {
			for j, p := range agreementPool {
				if a == p && unprovenMask&(1<<j) != 0 {
					return false
				}
			}
			return true
		})
		checkAgreement(t, c, hist, oracle)
	})
}

// FuzzMonitorAgreement is the differential check of the kept monitor
// state: for any parsable constraint, history, unproven set, split
// point k and requested access (the low two bits of peek), a state
// bound to o1 advanced over hist[:k] (with a first peek, which it must
// not consume), then over hist[k:] with the access peeked, yields
// records reflect.DeepEqual to Evaluate over hist·access of the
// constraint stamped for o1 — unproven entries included — and those
// agree with the reference evaluator (checkAgreement). The peek commits
// nothing, and a fresh Decide equals Evaluate under HypotheticalOracle.
func FuzzMonitorAgreement(f *testing.F) {
	for i, src := range append(append([]string(nil), parseSeeds...), parseCorpus(f)...) {
		f.Add(src, []byte{0, 1, 2, 3, 0, 0}, uint8(0), uint8(3), uint8(0))
		f.Add(src, []byte{2, 0, 0, 1, 0, 3, 0}, uint8(1<<(i%4)), uint8(i), uint8(i))
		f.Add(src, []byte{}, uint8(0), uint8(0), uint8(1))
	}
	f.Fuzz(func(t *testing.T, src string, picks []byte, unprovenMask, split, peek uint8) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		if len(picks) > 16 {
			picks = picks[:16]
		}
		hist := make(trace.Trace, len(picks))
		for i, b := range picks {
			hist[i] = agreementPool[b&3]
		}
		oracle := OracleFunc(func(a model.Access) bool {
			for j, p := range agreementPool {
				if a == p && unprovenMask&(1<<j) != 0 {
					return false
				}
			}
			return true
		})
		const obj = model.ObjectID("o1")
		a := agreementPool[peek&3]
		k := int(split) % (len(hist) + 1)
		stamped := StampObject(c, obj)
		full := append(hist[:len(hist):len(hist)], a)

		m := Compile(c)
		s := m.NewState(obj)
		s.Peek(hist[:k], oracle, a, nil, false)
		got := s.Peek(hist, oracle, a, nil, false)
		want := Evaluate(full, stamped, oracle, nil, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over %v split at %d, peek %v:\nmonitor  %+v\nEvaluate %+v", String(stamped), hist, k, a, got, want)
		}
		checkAgreement(t, stamped, full, oracle)
		if again := s.Peek(hist, oracle, a, nil, false); s.Len() != len(hist) || !reflect.DeepEqual(again, want) {
			t.Fatalf("a repeated peek of %s moved: consumed %d, records %+v", String(stamped), s.Len(), again)
		}
		hyp := Evaluate(full, stamped, HypotheticalOracle(oracle, a), nil, false)
		if fresh := m.Decide(obj, hist, oracle, a, nil, false); !reflect.DeepEqual(fresh, hyp) {
			t.Fatalf("Decide of %s over %v, access %v:\nmonitor  %+v\nEvaluate %+v", String(stamped), hist, a, fresh, hyp)
		}
	})
}
