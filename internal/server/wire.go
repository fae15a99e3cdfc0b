package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"stac/internal/model"
	"stac/internal/proof"
)

// This file is the JSON-lines codec of both ends of the wire, without
// reflection: the daemon decodes requests and encodes replies with it,
// and the Client encodes requests and decodes replies. The two encoders
// share one proof and one credential encoder, and the two decoders one
// set of primitives. FuzzWireCodec holds all four halves to
// encoding/json: each encoder writes json.Marshal's bytes, and each
// decoder produces json.Unmarshal's struct and error.
//
// A decoder's fast path reads exactly the shapes the other end's
// encoder writes: exact-case known keys, each at most once per object;
// strings, with the full escape grammar; true and false; integers for
// base, have and audit_total, and a JSON number for a proof's time.
// Anything else — a mis-cased, unknown or duplicate key, null, a
// fractional or exponent integer, invalid UTF-8, a syntax error — falls
// back to json.Unmarshal on the same line. The fast path never reports
// an error of its own, so every reject carries encoding/json's text.

// wireCodec holds the buffers of one end of the wire: a connection
// worker's request decoder and reply encoder, or a Client's request
// encoder and reply decoder. They live as long as the worker or the
// Client and serve each of its lines in turn, so nothing that outlives a
// line may point into them: every string the decoder produces is a
// copy, and the one slice it hands out uncopied, a request's program
// source, is copied by the program cache before it keeps it.
type wireCodec struct {
	// line holds a line too long for the bufio buffer.
	line []byte
	dec  wireDecoder
	// out holds the line being written.
	out []byte
	// fast records whether the last decode took the one-pass path.
	fast bool
}

// maxKeptBuffer bounds the buffers a worker keeps between requests;
// an exceptional line or reply is served from a buffer dropped after it.
const maxKeptBuffer = 64 << 10

// errLineTooLong marks a request exceeding the per-message cap.
var errLineTooLong = errors.New("request line exceeds limit")

// readLine reads one newline-terminated message of at most max bytes.
// Unlike bufio.Scanner it distinguishes "too long" from transport
// errors, so the daemon can answer with a structured error. A line that
// fits the reader's buffer is returned in place, valid until the next
// read; a longer one is assembled in *scratch when scratch is non-nil.
func readLine(r *bufio.Reader, max int, scratch *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		var buf []byte
		if scratch != nil {
			buf = (*scratch)[:0]
		}
		line = append(buf, line...)
		for len(line) <= max && err == bufio.ErrBufferFull {
			var chunk []byte
			chunk, err = r.ReadSlice('\n')
			line = append(line, chunk...)
		}
		if scratch != nil && cap(line) <= maxKeptBuffer {
			*scratch = line
		}
	}
	if len(line) > max {
		// Return the partial line with the error: the daemon mines it
		// for the trace context to echo in the reject.
		return line, errLineTooLong
	}
	return line, err
}

// decode decodes one request line into req, which must be zero. The
// declared program's source is returned rather than stored in
// req.Program, which decode leaves empty, so that a cached program is
// never copied into a string: the source aliases line or the codec's
// buffers and stays valid until the next decode.
func (c *wireCodec) decode(line []byte, req *wireRequest) (program []byte, err error) {
	d := c.dec.reset(line)
	program, c.fast = d.request(req)
	d.b = nil
	if c.fast {
		return program, nil
	}
	// A separate struct keeps req off the heap on the fast path, which
	// never reaches json.Unmarshal.
	var fallback wireRequest
	err = json.Unmarshal(line, &fallback)
	*req = fallback
	if err != nil {
		return nil, err
	}
	program = []byte(req.Program)
	req.Program = ""
	return program, nil
}

// decodeResponse decodes one reply line into resp, which must be zero,
// as json.Unmarshal decodes it. Every string and slice it stores is a
// fresh copy, so resp outlives the line and the codec's buffers.
func (c *wireCodec) decodeResponse(line []byte, resp *wireResponse) error {
	d := c.dec.reset(line)
	c.fast = d.response(resp)
	d.b = nil
	if c.fast {
		return nil
	}
	var fallback wireResponse
	err := json.Unmarshal(line, &fallback)
	*resp = fallback
	return err
}

// wireDecoder is one pass over a line. Each method reports
// false when the input leaves the fast path's grammar; the caller then
// abandons the pass.
type wireDecoder struct {
	b []byte
	i int
	// esc holds the unescaped strings of the current line.
	esc []byte
}

// reset starts a pass over line.
func (d *wireDecoder) reset(line []byte) *wireDecoder {
	d.b, d.i, d.esc = line, 0, d.esc[:0]
	if cap(d.esc) > maxKeptBuffer {
		d.esc = nil
	}
	return d
}

// end skips trailing whitespace and reports whether the line is done.
func (d *wireDecoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then ch, reporting whether ch was next.
func (d *wireDecoder) consume(ch byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ch {
		d.i++
		return true
	}
	return false
}

// object reads an object, handing each member's key to member, which
// decodes the value and returns the key's bit, or 0 when it does not
// know the key or cannot read the value. A key whose bit was returned
// before is a duplicate, which the fast path leaves to encoding/json.
func (d *wireDecoder) object(member func(key []byte) uint16) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint16
	for {
		k, ok := d.key()
		if !ok {
			return false
		}
		bit := member(k)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// key reads one member name and its ':'. Names with escapes leave the
// fast path: no field name needs one.
func (d *wireDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		switch ch := d.b[d.i]; {
		case ch == '"':
			k := d.b[start:d.i]
			d.i++
			return k, d.consume(':')
		case ch == '\\' || ch < ' ' || ch >= utf8.RuneSelf:
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// bit returns b when ok, and 0 otherwise.
func bit(ok bool, b uint16) uint16 {
	if ok {
		return b
	}
	return 0
}

// request reads the whole line as one wireRequest.
func (d *wireDecoder) request(req *wireRequest) (program []byte, ok bool) {
	ok = d.object(func(k []byte) uint16 {
		switch string(k) {
		case "type":
			return bit(text(d, &req.Type), 1<<0)
		case "credential":
			req.Credential = new(proof.Credential)
			return bit(d.credential(req.Credential), 1<<1)
		case "token":
			return bit(text(d, &req.Token), 1<<2)
		case "op":
			return bit(text(d, &req.Op), 1<<3)
		case "resource":
			return bit(text(d, &req.Resource), 1<<4)
		case "program":
			var ok bool
			program, ok = d.str()
			return bit(ok, 1<<5)
		case "proofs":
			return bit(array(d, &req.Proofs, (*wireDecoder).proof), 1<<6)
		case "base":
			return bit(d.int(&req.Base), 1<<7)
		case "head":
			return bit(text(d, &req.Head), 1<<8)
		case "payload":
			return bit(d.bytes(&req.Payload), 1<<9)
		case "id":
			return bit(text(d, &req.ID), 1<<10)
		case "trace":
			return bit(text(d, &req.Trace), 1<<11)
		case "hlc":
			return bit(text(d, &req.HLC), 1<<12)
		case "program_sha":
			return bit(text(d, &req.ProgramSHA), 1<<13)
		}
		return 0
	})
	return program, ok && d.end()
}

// response reads the whole line as one wireResponse.
func (d *wireDecoder) response(r *wireResponse) bool {
	return d.object(func(k []byte) uint16 {
		switch string(k) {
		case "ok":
			return bit(d.boolean(&r.OK), 1<<0)
		case "error":
			return bit(text(d, &r.Error), 1<<1)
		case "token":
			return bit(text(d, &r.Token), 1<<2)
		case "data":
			return bit(d.bytes(&r.Data), 1<<3)
		case "proof":
			r.Proof = new(proof.Proof)
			return bit(d.proof(r.Proof), 1<<4)
		case "have":
			return bit(d.int(&r.Have), 1<<5)
		case "head":
			return bit(text(d, &r.Head), 1<<6)
		case "server":
			return bit(text(d, &r.Server), 1<<7)
		case "resources":
			return bit(array(d, &r.Resources, text[string]), 1<<8)
		case "audit":
			return bit(array(d, &r.Audit, text[string]), 1<<9)
		case "audit_total":
			return bit(d.int(&r.AuditTotal), 1<<10)
		case "trace":
			return bit(text(d, &r.Trace), 1<<11)
		case "decision_id":
			return bit(text(d, &r.DecisionID), 1<<12)
		case "hlc":
			return bit(text(d, &r.HLC), 1<<13)
		}
		return 0
	}) && d.end()
}

// credential reads a proof.Credential object.
func (d *wireDecoder) credential(c *proof.Credential) bool {
	return d.object(func(k []byte) uint16 {
		switch string(k) {
		case "object":
			return bit(text(d, &c.Object), 1<<0)
		case "owner":
			return bit(text(d, &c.Owner), 1<<1)
		case "roles":
			return bit(array(d, &c.Roles, text[string]), 1<<2)
		case "sig":
			return bit(text(d, &c.Sig), 1<<3)
		}
		return 0
	})
}

// proof reads one proof.Proof object.
func (d *wireDecoder) proof(p *proof.Proof) bool {
	return d.object(func(k []byte) uint16 {
		switch string(k) {
		case "access":
			return bit(d.access(&p.Access), 1<<0)
		case "time":
			return bit(d.float(&p.Time), 1<<1)
		case "nonce":
			return bit(text(d, &p.Nonce), 1<<2)
		case "sig":
			return bit(text(d, &p.Sig), 1<<3)
		}
		return 0
	})
}

// access reads a model.Access object, whose keys are its untagged
// field names.
func (d *wireDecoder) access(a *model.Access) bool {
	return d.object(func(k []byte) uint16 {
		switch string(k) {
		case "Object":
			return bit(text(d, &a.Object), 1<<0)
		case "Op":
			return bit(text(d, &a.Op), 1<<1)
		case "Resource":
			return bit(text(d, &a.Resource), 1<<2)
		case "Server":
			return bit(text(d, &a.Server), 1<<3)
		}
		return 0
	})
}

// array reads an array whose elements elem decodes. An empty array is
// an empty, non-nil slice, as encoding/json makes it.
func array[T any](d *wireDecoder, out *[]T, elem func(*wireDecoder, *T) bool) bool {
	if !d.consume('[') {
		return false
	}
	*out = []T{}
	if d.consume(']') {
		return true
	}
	for {
		var zero T
		*out = append(*out, zero)
		if !elem(d, &(*out)[len(*out)-1]) {
			return false
		}
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// text reads a string into *out as a fresh copy.
func text[S ~string](d *wireDecoder, out *S) bool {
	b, ok := d.str()
	if ok {
		*out = S(b)
	}
	return ok
}

// bytes reads a base64 string into *out, decoded as encoding/json
// decodes a []byte field.
func (d *wireDecoder) bytes(out *[]byte) bool {
	s, ok := d.str()
	if !ok {
		return false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		return false
	}
	*out = b[:n]
	return true
}

// boolean reads true or false.
func (d *wireDecoder) boolean(out *bool) bool {
	d.ws()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*out, d.i = true, d.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*out, d.i = false, d.i+len("false")
	default:
		return false
	}
	return true
}

// number reads a JSON number literal.
func (d *wireDecoder) number() ([]byte, bool) {
	d.ws()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[d.i:i]
	d.i = i
	return lit, true
}

// int reads a number as encoding/json reads an int field: one with a
// fraction or an exponent is left to it, which rejects it.
func (d *wireDecoder) int(out *int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*out = int(n)
	return true
}

// float reads a number as encoding/json reads a float64 field.
func (d *wireDecoder) float(out *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*out = f
	return true
}

// plain marks the bytes a string holds verbatim: printable ASCII other
// than '"' and '\\'.
var plain = func() (t [256]bool) {
	for ch := ' '; ch < utf8.RuneSelf; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// plainWord reports whether all eight bytes of w are plain. It tests
// them at once: the high bit of some byte ends up set exactly when a
// byte is non-ASCII, below ' ', or equal to '"' or '\\'.
func plainWord(w uint64) bool {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	q, s := w^(lo*'"'), w^(lo*'\\')
	return (w|(w-lo*' ')|(q-lo)&^q|(s-lo)&^s)&hi == 0
}

// str reads a string and returns its unescaped bytes: in place when it
// holds no escape, and otherwise appended to the codec's esc buffer,
// which only grows within one request, so earlier results stay intact.
// Escapes decode as encoding/json decodes them, a surrogate that does
// not pair included (to U+FFFD); invalid UTF-8 leaves the fast path.
func (d *wireDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	b, i := d.b, d.i
	out := d.esc
	mark := len(out)
	escaped := false
	run := i // the first byte not yet copied to out
	for i < len(b) {
		for i+8 <= len(b) && plainWord(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		if i == len(b) {
			break
		}
		ch := b[i]
		if plain[ch] {
			i++
			continue
		}
		switch {
		case ch == '"':
			d.i = i + 1
			if !escaped {
				return b[run:i], true
			}
			d.esc = append(out, b[run:i]...)
			return d.esc[mark:], true
		case ch == '\\':
			escaped = true
			var n int
			if out, n = appendEscape(append(out, b[run:i]...), b[i:]); n == 0 {
				return nil, false
			}
			i += n
			run = i
		case ch < ' ':
			return nil, false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		}
	}
	return nil, false
}

// appendEscape appends the character the escape sequence s opens with
// stands for and returns how many bytes of s it took, or 0 when s does
// not open with a valid escape.
func appendEscape(out, s []byte) ([]byte, int) {
	if len(s) < 2 {
		return out, 0
	}
	switch e := s[1]; e {
	case '"', '\\', '/':
		return append(out, e), 2
	case 'b':
		return append(out, '\b'), 2
	case 'f':
		return append(out, '\f'), 2
	case 'n':
		return append(out, '\n'), 2
	case 'r':
		return append(out, '\r'), 2
	case 't':
		return append(out, '\t'), 2
	case 'u':
		r := hex4(s)
		if r < 0 {
			return out, 0
		}
		if utf16.IsSurrogate(r) {
			if dec := utf16.DecodeRune(r, hex4(s[6:])); dec != utf8.RuneError {
				return utf8.AppendRune(out, dec), 12
			}
			r = utf8.RuneError
		}
		return utf8.AppendRune(out, r), 6
	}
	return out, 0
}

// hex4 decodes the \uXXXX escape that s opens with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, ch := range s[2:6] {
		switch {
		case '0' <= ch && ch <= '9':
			ch -= '0'
		case 'a' <= ch && ch <= 'f':
			ch -= 'a' - 10
		case 'A' <= ch && ch <= 'F':
			ch -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(ch)
	}
	return r
}

// errUnsupportedFloat refuses a proof time json.Marshal refuses too.
var errUnsupportedFloat = errors.New("server: proof time is not a finite number")

// appendRequest appends r's JSON encoding to dst: byte for byte what
// json.Marshal writes for it, in its field order and omitempty rules.
func appendRequest(dst []byte, r *wireRequest) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, r.Type)
	if c := r.Credential; c != nil {
		dst = AppendCredential(append(dst, `,"credential":`...), c)
	}
	dst = appendField(dst, `,"token":`, r.Token)
	dst = appendField(dst, `,"op":`, r.Op)
	dst = appendField(dst, `,"resource":`, r.Resource)
	dst = appendField(dst, `,"program":`, r.Program)
	dst = appendField(dst, `,"program_sha":`, r.ProgramSHA)
	if len(r.Proofs) > 0 {
		sep := `,"proofs":[`
		for i := range r.Proofs {
			var err error
			if dst, err = appendProof(append(dst, sep...), &r.Proofs[i]); err != nil {
				return dst, err
			}
			sep = ","
		}
		dst = append(dst, ']')
	}
	dst = appendInt(dst, `,"base":`, r.Base)
	dst = appendField(dst, `,"head":`, r.Head)
	dst = appendBytes(dst, `,"payload":`, r.Payload)
	dst = appendField(dst, `,"id":`, r.ID)
	dst = appendField(dst, `,"trace":`, r.Trace)
	dst = appendField(dst, `,"hlc":`, r.HLC)
	return append(dst, '}'), nil
}

// appendResponse appends r's JSON encoding to dst: byte for byte what
// json.Marshal writes for it, in its field order and omitempty rules.
func appendResponse(dst []byte, r *wireResponse) ([]byte, error) {
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	dst = appendField(dst, `,"error":`, r.Error)
	dst = appendField(dst, `,"token":`, r.Token)
	dst = appendBytes(dst, `,"data":`, r.Data)
	if p := r.Proof; p != nil {
		var err error
		if dst, err = appendProof(append(dst, `,"proof":`...), p); err != nil {
			return dst, err
		}
	}
	dst = appendInt(dst, `,"have":`, r.Have)
	dst = appendField(dst, `,"head":`, r.Head)
	dst = appendField(dst, `,"server":`, r.Server)
	dst = appendStrings(dst, `,"resources":`, r.Resources)
	dst = appendStrings(dst, `,"audit":`, r.Audit)
	dst = appendInt(dst, `,"audit_total":`, r.AuditTotal)
	dst = appendField(dst, `,"trace":`, r.Trace)
	dst = appendField(dst, `,"decision_id":`, r.DecisionID)
	dst = appendField(dst, `,"hlc":`, r.HLC)
	return append(dst, '}'), nil
}

// appendProof appends a proof.Proof object, or refuses a time that is
// NaN or infinite.
func appendProof(dst []byte, p *proof.Proof) ([]byte, error) {
	if math.IsInf(p.Time, 0) || math.IsNaN(p.Time) {
		return dst, errUnsupportedFloat
	}
	dst = append(dst, `{"access":{"Object":`...)
	dst = appendString(dst, string(p.Access.Object))
	dst = append(dst, `,"Op":`...)
	dst = appendString(dst, string(p.Access.Op))
	dst = append(dst, `,"Resource":`...)
	dst = appendString(dst, string(p.Access.Resource))
	dst = append(dst, `,"Server":`...)
	dst = appendString(dst, string(p.Access.Server))
	dst = append(dst, `},"time":`...)
	dst = appendFloat(dst, p.Time)
	dst = append(dst, `,"nonce":`...)
	dst = appendString(dst, p.Nonce)
	dst = append(dst, `,"sig":`...)
	dst = appendString(dst, p.Sig)
	return append(dst, '}'), nil
}

// AppendCredential appends a proof.Credential object as encoding/json
// would marshal it.
func AppendCredential(dst []byte, c *proof.Credential) []byte {
	dst = append(dst, `{"object":`...)
	dst = appendString(dst, string(c.Object))
	dst = append(dst, `,"owner":`...)
	dst = appendString(dst, c.Owner)
	dst = append(dst, `,"roles":`...)
	if c.Roles == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendList(dst, c.Roles)
	}
	dst = append(dst, `,"sig":`...)
	dst = appendString(dst, c.Sig)
	return append(dst, '}')
}

// appendField appends an omitempty string member.
func appendField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendInt appends an omitempty int member.
func appendInt(dst []byte, key string, n int) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(n), 10)
}

// appendBytes appends an omitempty []byte member in base64.
func appendBytes(dst []byte, key string, b []byte) []byte {
	if len(b) == 0 {
		return dst
	}
	dst = append(append(dst, key...), '"')
	return append(base64.StdEncoding.AppendEncode(dst, b), '"')
}

// appendStrings appends an omitempty []string member.
func appendStrings(dst []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return dst
	}
	return appendList(append(dst, key...), ss)
}

// appendList appends a JSON array of strings.
func appendList(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat formats a finite float64 as encoding/json does: like
// ES6, 'f' between 1e-6 and 1e21 and 'e' outside, with a one-digit
// negative exponent not zero-padded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's HTML-safe
// escaping: <, > and & as \u00XX, U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 as �.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if ch := s[i]; ch < utf8.RuneSelf {
			if ch >= ' ' && ch != '"' && ch != '\\' && ch != '<' && ch != '>' && ch != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch ch {
			case '\\', '"':
				dst = append(dst, '\\', ch)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[ch>>4], hexDigits[ch&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
