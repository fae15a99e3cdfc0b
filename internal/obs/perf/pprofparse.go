package perf

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Minimal decoder for the pprof profile.proto wire format — just
// enough to attribute a profile's weight to leaf frames without
// importing github.com/google/pprof. Field numbers from
// https://github.com/google/pprof/blob/main/proto/profile.proto:
//
//	Profile:  sample_type=1, sample=2, location=4, function=5,
//	          string_table=6
//	ValueType: type=1, unit=2 (string-table indices)
//	Sample:   location_id=1 (repeated uint64), value=2 (repeated int64)
//	Location: id=1, line=4
//	Line:     function_id=1
//	Function: id=1, name=2 (string-table index)
//
// The leaf of a sample's stack is its first location; a location's
// symbol is its first line's function. We aggregate "flat" weight —
// what each function costs in its own frames — because that is the
// number a regression diff can act on.

// Frame is one entry of a profile digest: a function and its flat
// share of the profile's total weight.
type Frame struct {
	Function string  `json:"function"`
	Flat     int64   `json:"flat"`
	Share    float64 `json:"share"`
}

// Digest is a compact hot-frame summary of one pprof profile.
type Digest struct {
	Kind    string  `json:"kind"`
	Unit    string  `json:"unit"`
	Total   int64   `json:"total"`
	Samples int     `json:"samples"`
	Frames  []Frame `json:"frames"`
}

// Top returns the share of the named function, or 0.
func (d *Digest) Top(fn string) float64 {
	if d == nil {
		return 0
	}
	for _, f := range d.Frames {
		if f.Function == fn {
			return f.Share
		}
	}
	return 0
}

type rawSample struct {
	leafLoc uint64
	values  []int64
}

type rawProfile struct {
	sampleTypes [][2]int64 // (type, unit) string-table indices
	samples     []rawSample
	locFunc     map[uint64]uint64 // location id → leaf function id
	funcName    map[uint64]int64  // function id → name string index
	strings     []string
}

// DigestProfile parses a (possibly gzipped) pprof protobuf profile and
// returns its top-n hot leaf frames. The profile's last value type is
// used as the weight — nanoseconds for cpu/mutex/block profiles,
// inuse_space for heap — which is the convention `go tool pprof`
// defaults to.
func DigestProfile(kind string, raw []byte, topN int) (*Digest, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("perf: gunzip %s profile: %w", kind, err)
		}
		raw, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("perf: gunzip %s profile: %w", kind, err)
		}
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("perf: parse %s profile: %w", kind, err)
	}
	if len(p.sampleTypes) == 0 {
		return &Digest{Kind: kind}, nil
	}
	vi := len(p.sampleTypes) - 1
	d := &Digest{Kind: kind, Unit: p.str(p.sampleTypes[vi][1]), Samples: len(p.samples)}
	flat := map[string]int64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		d.Total += v
		name := p.str(p.funcName[p.locFunc[s.leafLoc]])
		if name == "" {
			name = "<unknown>"
		}
		flat[name] += v
	}
	for fn, v := range flat {
		if v == 0 {
			continue // e.g. heap sites whose objects were all freed
		}
		d.Frames = append(d.Frames, Frame{Function: fn, Flat: v})
	}
	sort.Slice(d.Frames, func(i, j int) bool {
		if d.Frames[i].Flat != d.Frames[j].Flat {
			return d.Frames[i].Flat > d.Frames[j].Flat
		}
		return d.Frames[i].Function < d.Frames[j].Function
	})
	if topN > 0 && len(d.Frames) > topN {
		d.Frames = d.Frames[:topN]
	}
	if d.Total > 0 {
		for i := range d.Frames {
			d.Frames[i].Share = float64(d.Frames[i].Flat) / float64(d.Total)
		}
	}
	return d, nil
}

func (p *rawProfile) str(i int64) string {
	if i <= 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("truncated message")

func parseProfile(b []byte) (*rawProfile, error) {
	// string_table entries append in wire order; pprof always writes ""
	// as entry 0, so indices line up without seeding.
	p := &rawProfile{
		locFunc:  map[uint64]uint64{},
		funcName: map[uint64]int64{},
	}
	err := walkFields(b, func(field int, wire int, v uint64, sub []byte) error {
		switch {
		case field == 1 && wire == 2: // sample_type
			var st [2]int64
			if err := walkFields(sub, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && (f == 1 || f == 2) {
					st[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, st)
		case field == 2 && wire == 2: // sample
			s, err := parseSample(sub)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2: // location
			var id, fn uint64
			if err := walkFields(sub, func(f, w int, v uint64, line []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2 && fn == 0: // first Line only
					return walkFields(line, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 && lw == 0 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFunc[id] = fn
		case field == 5 && wire == 2: // function
			var id uint64
			var name int64
			if err := walkFields(sub, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	err := walkFields(b, func(f, w int, v uint64, sub []byte) error {
		switch {
		case f == 1 && w == 0: // unpacked location_id
			if s.leafLoc == 0 {
				s.leafLoc = v
			}
		case f == 1 && w == 2: // packed location_ids
			for len(sub) > 0 {
				v, n := binary.Uvarint(sub)
				if n <= 0 {
					return errTruncated
				}
				if s.leafLoc == 0 {
					s.leafLoc = v
				}
				sub = sub[n:]
			}
		case f == 2 && w == 0: // unpacked value
			s.values = append(s.values, int64(v))
		case f == 2 && w == 2: // packed values
			for len(sub) > 0 {
				v, n := binary.Uvarint(sub)
				if n <= 0 {
					return errTruncated
				}
				s.values = append(s.values, int64(v))
				sub = sub[n:]
			}
		}
		return nil
	})
	return s, err
}

// walkFields iterates the top-level fields of one protobuf message,
// calling fn with the field number, wire type, varint value (wire 0)
// or sub-message bytes (wire 2). Fixed32/64 fields are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, 0, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 2, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
