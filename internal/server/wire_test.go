package server

// Tests for the daemon's wire codec. encoding/json is the oracle: the
// decoder must produce the struct and the error json.Unmarshal does,
// and the encoder must write the bytes json.Marshal does.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/sral"
	"stac/internal/workload"
)

// checkDecode decodes line with a fresh codec and with json.Unmarshal
// and fails unless both give the same struct and the same error. It
// returns whether the codec took its fast path.
func checkDecode(t testing.TB, line []byte) bool {
	t.Helper()
	var want wireRequest
	werr := json.Unmarshal(line, &want)
	var c wireCodec
	var got wireRequest
	program, gerr := c.decode(line, &got)
	if gerr == nil {
		if got.Program != "" {
			t.Fatalf("decode left Program set: %q", got.Program)
		}
		got.Program = string(program)
	}
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("line %q:\n error %v\n want  %v", line, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\n got  %#v\n want %#v", line, got, want)
	}
	if c.fast && gerr != nil {
		t.Fatalf("fast path reported an error: %v", gerr)
	}
	return c.fast
}

// checkEncode fails unless appendResponse writes json.Marshal's bytes,
// or both refuse the value.
func checkEncode(t testing.TB, resp wireResponse) {
	t.Helper()
	want, werr := json.Marshal(resp)
	got, gerr := appendResponse(nil, &resp)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%#v:\n error %v\n want  %v", resp, gerr, werr)
	}
	if werr == nil && string(got) != string(want) {
		t.Fatalf("%#v:\n got  %s\n want %s", resp, got, want)
	}
}

// checkDecodeResponse decodes line with a fresh codec and with
// json.Unmarshal and fails unless both give the same struct and the
// same error. It returns whether the codec took its fast path.
func checkDecodeResponse(t testing.TB, line []byte) bool {
	t.Helper()
	var want, got wireResponse
	werr := json.Unmarshal(line, &want)
	var c wireCodec
	gerr := c.decodeResponse(line, &got)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("reply %q:\n error %v\n want  %v", line, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reply %q:\n got  %#v\n want %#v", line, got, want)
	}
	if c.fast && gerr != nil {
		t.Fatalf("fast path reported an error: %v", gerr)
	}
	return c.fast
}

// checkEncodeRequest fails unless appendRequest writes json.Marshal's
// bytes, or both refuse the value.
func checkEncodeRequest(t testing.TB, req wireRequest) {
	t.Helper()
	want, werr := json.Marshal(req)
	got, gerr := appendRequest(nil, &req)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%#v:\n error %v\n want  %v", req, gerr, werr)
	}
	if werr == nil && string(got) != string(want) {
		t.Fatalf("%#v:\n got  %s\n want %s", req, got, want)
	}
}

// benchProgram renders a seeded program of about size constructs, as the
// bench/ workloads declare them.
func benchProgram(seed int64, size int) string {
	r := rand.New(rand.NewSource(seed))
	return sral.String(workload.Program(r, workload.DefaultVocabulary(3, 8),
		workload.ProgramOptions{Size: size, LoopFraction: 0.1, ParFraction: 0.2}))
}

// signedProofs issues n proofs of reads on f1..f8 across s1..s3.
func signedProofs(n int) []proof.Proof {
	s := proof.NewSigner(key)
	ps := make([]proof.Proof, n)
	for i := range ps {
		a := model.Access{Object: "w0", Op: model.OpRead,
			Resource: model.ResourceID("f" + string(rune('1'+i%8))),
			Server:   model.ServerID("s" + string(rune('1'+i%3)))}
		ps[i] = s.Issue(a, float64(i)*0.25+1e-3)
	}
	return ps
}

func marshalLine(t testing.TB, req wireRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// workloadLines are request lines in the shape of each bench/ workload:
// roam's short cursor access, longtour's full-history resend, and
// bigpolicy's 256-construct program, as text on a connection's first
// access and by digest on the rest.
func workloadLines(t testing.TB) [][]byte {
	ps := signedProofs(48)
	tok, id := NewRequestID(), NewRequestID()
	program := benchProgram(1, 256)
	sum := sha256.Sum256([]byte(program))
	return [][]byte{
		marshalLine(t, wireRequest{Type: "access", Token: tok, Op: "read", Resource: "f3",
			Base: 2, Head: ps[1].Sig, ID: id}),
		marshalLine(t, wireRequest{Type: "access", Token: tok, Op: "read", Resource: "f5",
			Proofs: ps, ID: id}),
		marshalLine(t, wireRequest{Type: "access", Token: tok, Op: "read", Resource: "f1",
			Program: program, Base: 1, Head: ps[0].Sig, ID: id}),
		marshalLine(t, wireRequest{Type: "access", Token: tok, Op: "read", Resource: "f2",
			ProgramSHA: hex.EncodeToString(sum[:]), Base: 2, Head: ps[1].Sig, ID: id}),
	}
}

// fallbackLines are shapes a Client never sends; each must decode as
// json.Unmarshal decodes it.
var fallbackLines = []struct {
	name, line string
	fast       bool
}{
	{"mis-cased key", `{"Type":"info"}`, false},
	{"unknown key", `{"type":"info","extra":[1,{"a":null}]}`, false},
	{"duplicate credential merges", `{"type":"auth","credential":{"object":"o1","owner":"u"},"credential":{"sig":"s"}}`, false},
	{"null", `null`, false},
	{"null member", `{"type":"auth","credential":null}`, false},
	{"fractional base", `{"type":"access","base":1.0}`, false},
	{"exponent base", `{"type":"access","base":1e2}`, false},
	{"invalid UTF-8", "{\"type\":\"info\",\"token\":\"a\xffb\"}", false},
	// A lone surrogate is within the fast path's grammar: both decode
	// it to U+FFFD.
	{"lone surrogate", `{"type":"info","token":"a\ud800b"}`, true},
	{"surrogate pair", `{"type":"info","token":"\ud83d\ude00\u003c"}`, true},
	{"trailing garbage", `{"type":"info"} x`, false},
	{"array", `[1,2,3]`, false},
	{"empty", ``, false},
	{"truncated", `{"type":"acc`, false},
	{"bad escape", `{"type":"info","token":"\x"}`, false},
	{"empty arrays", `{"type":"auth","credential":{"roles":[]},"proofs":[]}`, true},
	{"empty payload", `{"type":"access","payload":""}`, true},
	{"bad base64", `{"type":"access","payload":"!!"}`, false},
	{"string base", `{"type":"access","base":"1"}`, false},
	{"huge base", `{"type":"access","base":123456789012345678901}`, false},
	{"negative base", `{"type":"access","base":-3}`, true},
	{"leading zero", `{"type":"access","base":01}`, false},
	{"float time", `{"type":"access","proofs":[{"access":{"Object":"","Op":"read","Resource":"f","Server":"s"},"time":1.5e-7,"nonce":"n","sig":"s"}]}`, true},
	{"time overflow", `{"type":"access","proofs":[{"time":1e400}]}`, false},
	{"whitespace", " { \"type\" : \"info\" ,\t\"id\":\"x\" }\r\n", true},
	{"program text and digest", `{"type":"access","program":"read f1 @ s1","program_sha":"00ff"}`, true},
	{"escaped digest", `{"type":"access","program_sha":"\u0030a"}`, true},
	{"numeric digest", `{"type":"access","program_sha":12}`, false},
	{"duplicate digest", `{"type":"access","program_sha":"a","program_sha":"b"}`, false},
	{"mis-cased digest", `{"type":"access","Program_SHA":"a"}`, false},
}

// replyFallbackLines are reply shapes a daemon never writes; each must
// decode as json.Unmarshal decodes it.
var replyFallbackLines = []struct {
	name, line string
	fast       bool
}{
	{"mis-cased key", `{"OK":true}`, false},
	{"unknown key", `{"ok":true,"extra":1}`, false},
	{"null ok", `{"ok":null}`, false},
	{"numeric ok", `{"ok":1}`, false},
	{"truncated ok", `{"ok":tru}`, false},
	{"ok glued to a literal", `{"ok":truefalse}`, false},
	{"null proof", `{"ok":true,"proof":null}`, false},
	{"duplicate proof merges", `{"proof":{"nonce":"n"},"proof":{"sig":"s"}}`, false},
	{"empty proof", `{"ok":true,"proof":{}}`, true},
	{"fractional have", `{"ok":true,"have":2.0}`, false},
	{"string audit_total", `{"ok":true,"audit_total":"3"}`, false},
	{"null resources", `{"ok":true,"resources":null}`, false},
	{"empty arrays", `{"ok":true,"resources":[],"audit":[],"data":""}`, true},
	{"bad base64", `{"ok":true,"data":"!!"}`, false},
	{"escaped error", `{"ok":false,"error":"a\u003cb\n\ud800"}`, true},
	{"whitespace", " { \"ok\" : false ,\t\"error\":\"x\" }\r\n", true},
	{"trailing garbage", `{"ok":true} x`, false},
	{"empty object", `{}`, true},
	{"null", `null`, false},
	{"empty", ``, false},
}

// Every request a Client sends decodes on the fast path.
func TestWireClientRequestsTakeFastPath(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	cl := NewClient(cliConn, ClientConfig{})
	defer cl.Close()
	issued := signedProofs(4)
	// The fake daemon decodes on one reused codec, as serveConn does,
	// and hands each line over for the oracle check.
	type seen struct {
		line    []byte
		req     wireRequest
		program bool
		fast    bool
	}
	// Buffered beyond the six requests sent, so the fake daemon never
	// blocks on it and exits when the client closes.
	got := make(chan seen, 16)
	go func() {
		defer close(got)
		br := bufio.NewReader(srvConn)
		var c wireCodec
		for i := 0; ; i++ {
			line, err := readLine(br, DefaultMaxLineBytes, &c.line)
			if err != nil {
				return
			}
			var req wireRequest
			program, err := c.decode(line, &req)
			got <- seen{append([]byte(nil), line...), req, len(program) > 0, c.fast && err == nil}
			resp := wireResponse{OK: true, Token: "tok"}
			if req.Type == "access" {
				resp.Proof, resp.Have = &issued[i%len(issued)], 3+i
			}
			b, _ := appendResponse(nil, &resp)
			if _, err := srvConn.Write(append(b, '\n')); err != nil {
				return
			}
		}
	}()

	cred := proof.NewSigner(key).IssueCredential("w0", "owner", []string{"worker"})
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	cl.ImportProofs(signedProofs(2))
	cl.SetHLC(hlc.New(func() int64 { return 1_700_000_000_000_000_000 }))
	tc := obs.NewTracer(8).NewContext()
	program := benchProgram(3, 64)
	for range 2 {
		// The first access carries the imported history at base 0 and
		// the program's text; the second, after the reply's have, a
		// cursor, no proofs and the program's digest.
		if _, err := cl.AccessTraced(tc, NewRequestID(), model.OpWrite, "f1", program, []byte("payload<&>")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.Info(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.AuditLog(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Depart(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	var types []string
	var carried, cursor, programs, digests int
	for s := range got {
		types = append(types, s.req.Type)
		checkDecode(t, s.line)
		if !s.fast {
			t.Errorf("%s request left the fast path: %s", s.req.Type, s.line)
		}
		if s.req.Type != "access" {
			continue
		}
		if s.req.Trace == "" || s.req.HLC == "" || s.req.ID == "" || len(s.req.Payload) == 0 {
			t.Errorf("access without trace, hlc, id or payload: %s", s.line)
		}
		if len(s.req.Proofs) > 0 {
			carried++
		}
		if s.req.Base > 0 && s.req.Head != "" {
			cursor++
		}
		if s.program {
			programs++
		}
		if s.req.ProgramSHA != "" {
			digests++
			if sum := sha256.Sum256([]byte(program)); s.req.ProgramSHA != hex.EncodeToString(sum[:]) || s.program {
				t.Errorf("access names program %s beside text %v, want the text's sha256 alone", s.req.ProgramSHA, s.program)
			}
		}
	}
	if want := []string{"auth", "access", "access", "info", "audit", "depart"}; !reflect.DeepEqual(types, want) {
		t.Fatalf("request types %v, want %v", types, want)
	}
	// The first access carries the program's text, the second names it
	// by digest.
	if carried != 1 || cursor != 1 || programs != 1 || digests != 1 {
		t.Fatalf("accesses: %d carrying proofs, %d with a cursor, %d with program text, %d naming a digest; want 1, 1, 1, 1",
			carried, cursor, programs, digests)
	}
}

// recordConn keeps every byte read from its connection.
type recordConn struct {
	net.Conn
	read []byte
}

func (r *recordConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.read = append(r.read, p[:n]...)
	return n, err
}

// Every reply shape the daemon writes decodes on the Client's fast path
// to json.Unmarshal's struct.
func TestClientRepliesTakeFastPath(t *testing.T) {
	c, _ := newCoalition(t)
	_, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	dial := func() *Client {
		rc := &recordConn{}
		cl, err := DialConfig(addr, ClientConfig{Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			rc.Conn = conn
			return rc, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	// do runs one round trip of cl and checks the one reply line it
	// read: the Client decoded it on its fast path, to json.Unmarshal's
	// struct, and it has the named shape.
	do := func(cl *Client, shape string, check func(wireResponse) bool, rt func() error) {
		t.Helper()
		rc := cl.conn.(*recordConn)
		mark := len(rc.read)
		if err := rt(); err != nil && IsTransient(err) {
			t.Fatalf("%s: %v", shape, err)
		}
		line := rc.read[mark:]
		if bytes.Count(line, []byte("\n")) != 1 || !cl.codec.fast || !checkDecodeResponse(t, line) {
			t.Errorf("%s reply left the fast path: %q", shape, line)
		}
		var resp wireResponse
		if err := json.Unmarshal(line, &resp); err != nil || !check(resp) {
			t.Errorf("%s reply is not of its shape: %s", shape, line)
		}
	}
	first, second := dial(), dial()
	tc := obs.NewTracer(8).NewContext()
	do(first, "info", func(r wireResponse) bool { return r.Server == "s1" && len(r.Resources) == 2 }, func() error {
		_, _, err := first.Info()
		return err
	})
	do(first, "auth", func(r wireResponse) bool { return r.Token != "" && r.Have == 0 }, func() error {
		return first.Auth(cred(c, "o1", "owner", "traveler"))
	})
	for range 2 {
		do(first, "grant", func(r wireResponse) bool { return r.Proof != nil && len(r.Data) > 0 && r.Have > 0 }, func() error {
			_, err := first.Access(model.OpRead, "rsw", "", nil)
			return err
		})
	}
	do(first, "deny", func(r wireResponse) bool { return !r.OK && r.DecisionID != "" && r.Proof == nil }, func() error {
		_, err := first.Access(model.OpRead, "rsw", "", nil)
		return err
	})
	do(first, "trace echo", func(r wireResponse) bool { return r.Trace == tc.String() && r.HLC != "" }, func() error {
		_, err := first.AccessTraced(tc, NewRequestID(), model.OpWrite, "f-s1", "", []byte("<p>"))
		return err
	})
	do(first, "unknown program", func(r wireResponse) bool { return r.Error == msgUnknownProgram }, func() error {
		_, err := first.roundTrip(wireRequest{Type: "access", Token: first.token, Op: "read", Resource: "f-s1",
			ProgramSHA: strings.Repeat("0", 64)})
		return err
	})
	do(first, "audit", func(r wireResponse) bool { return len(r.Audit) > 0 && r.AuditTotal > 0 }, func() error {
		_, _, err := first.AuditLog()
		return err
	})
	do(first, "depart", func(r wireResponse) bool { return r.OK && r.Token == "" }, first.Depart)
	do(second, "auth with an offer", func(r wireResponse) bool { return r.Token != "" && r.Have == 3 && r.Head != "" }, func() error {
		return second.Auth(cred(c, "o1", "owner", "traveler"))
	})
	// After the depart: a cursor mismatch drops the resident log, which
	// the depart parks for the offer.
	do(second, "cursor mismatch", func(r wireResponse) bool { return strings.HasPrefix(r.Error, msgCursorMismatch) }, func() error {
		_, err := second.roundTrip(wireRequest{Type: "access", Token: second.token, Op: "read", Resource: "f-s1",
			Base: 9, Head: "feed"})
		return err
	})
	do(second, "malformed request", func(r wireResponse) bool {
		return strings.HasPrefix(r.Error, "malformed request: ") && r.Trace == tc.String()
	}, func() error {
		second.mu.Lock()
		defer second.mu.Unlock()
		if _, err := fmt.Fprintf(second.conn, `{"type":"access","trace":%q,`+"\n", tc.String()); err != nil {
			return err
		}
		line, err := readLine(second.br, DefaultMaxLineBytes, nil)
		if err != nil {
			return err
		}
		var resp wireResponse
		return second.codec.decodeResponse(line, &resp)
	})
}

func TestWireFallbackMatchesEncodingJSON(t *testing.T) {
	for _, tc := range fallbackLines {
		t.Run(tc.name, func(t *testing.T) {
			if fast := checkDecode(t, []byte(tc.line)); fast != tc.fast {
				t.Fatalf("fast path = %v, want %v", fast, tc.fast)
			}
		})
	}
	for i, line := range workloadLines(t) {
		if !checkDecode(t, line) {
			t.Fatalf("workload line %d left the fast path", i)
		}
	}
	for _, tc := range replyFallbackLines {
		t.Run("reply/"+tc.name, func(t *testing.T) {
			if fast := checkDecodeResponse(t, []byte(tc.line)); fast != tc.fast {
				t.Fatalf("fast path = %v, want %v", fast, tc.fast)
			}
		})
	}
}

func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	p := signedProofs(1)[0]
	for _, f := range []float64{0, 1, -2.5, 1e-6, 9.99e-7, 1e20, 1e21, 123456789.125, 5e-324, -1e-9} {
		q := p
		q.Time = f
		checkEncode(t, wireResponse{OK: true, Proof: &q, Have: 3, DecisionID: "d-1"})
	}
	checkEncode(t, wireResponse{})
	checkEncode(t, wireResponse{Error: "bad <prog> & \"x\"\n\t\b\f\x01\u2028\u2029 é \xff\xfe", Trace: "t"})
	checkEncode(t, wireResponse{OK: true, Data: []byte{0, 1, 2, 250}, Token: "tok", Head: "h",
		Server: "s1", Resources: []string{"a", ""}, Audit: []string{"x"}, AuditTotal: -1, HLC: "0.1"})
	checkEncode(t, wireResponse{Resources: []string{}, Data: []byte{}})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := p
		q.Time = f
		checkEncode(t, wireResponse{OK: true, Proof: &q})
		checkEncodeRequest(t, wireRequest{Type: "access", Proofs: []proof.Proof{p, q}})
	}
	for _, line := range workloadLines(t) {
		var req wireRequest
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatal(err)
		}
		checkEncodeRequest(t, req)
	}
	checkEncodeRequest(t, wireRequest{})
	c := proof.NewSigner(key).IssueCredential("w<0>", "own\u2028er", []string{"a", "", "\xff"})
	checkEncodeRequest(t, wireRequest{Type: "auth", Credential: &c})
	checkEncodeRequest(t, wireRequest{Type: "auth", Credential: &proof.Credential{}})
	checkEncodeRequest(t, wireRequest{Type: "auth", Credential: &proof.Credential{Roles: []string{}}})
	checkEncodeRequest(t, wireRequest{Type: "access", Token: "t", Op: "write", Resource: "r&", Program: "read f1 @ s1",
		ProgramSHA: "ab", Proofs: signedProofs(3), Base: -1, Head: "h", Payload: []byte{0, 255}, ID: "i",
		Trace: "tr", HLC: "0.1"})
	checkEncodeRequest(t, wireRequest{Type: "access", Proofs: []proof.Proof{}, Payload: []byte{}})
}

// Decoding an access whose program is already interned allocates the
// same bytes whatever the program's size: the source is unescaped into
// the connection's reused buffer and looked up without a string.
func TestWireDecodeAllocsFlatInProgramSize(t *testing.T) {
	cache := newProgramCache()
	perOp := func(size int) uint64 {
		line := marshalLine(t, wireRequest{Type: "access", Token: NewRequestID(), Op: "read",
			Resource: "f1", Program: benchProgram(7, size), ID: NewRequestID()})
		if !strings.Contains(string(line), `\u003c`) {
			t.Fatalf("program of size %d has no escape to decode", size)
		}
		var c wireCodec
		decode := func() {
			var req wireRequest
			program, err := c.decode(line, &req)
			if err != nil || !c.fast {
				t.Fatalf("decode: fast %v, %v", c.fast, err)
			}
			if _, err := cache.intern(program); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := perOp(256), perOp(1024)
	if small != large {
		t.Fatalf("decode allocates %d B/op at 256 constructs, %d B/op at 1024", small, large)
	}
}

// After many accesses on one connection, with the codec's buffers reused
// by each, every resident proof and every cached reply still equals what
// the client was sent.
func TestWireReusedBuffersDoNotAlias(t *testing.T) {
	c, _ := newCoalition(t)
	d, addr := startDaemonWith(t, c, "s1", DaemonConfig{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	// The carried history and the largest program make lines longer
	// than the bufio buffer, assembled in the connection's scratch line.
	imported := signedProofs(64)
	cl.ImportProofs(imported)
	programs := []string{"", "read f-s1 @ s1", benchProgram(5, 32), benchProgram(6, 1024)}
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = NewRequestID()
		res := model.ResourceID("f-s1")
		if i%7 == 0 {
			res = "rsw"
		}
		payload := []byte(strings.Repeat("<p>", i%5))
		if _, err := cl.AccessID(ids[i], model.OpRead, res, programs[i%len(programs)], payload); err != nil && IsTransient(err) {
			t.Fatal(err)
		}
	}
	sent := cl.Proofs()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.subjects) != 1 {
		t.Fatalf("%d sessions, want 1", len(d.subjects))
	}
	for _, s := range d.subjects {
		if got := s.log.View(); !reflect.DeepEqual(got, sent) {
			t.Fatalf("resident log (%d proofs) differs from the client's (%d)", len(got), len(sent))
		}
	}
	bySig := make(map[string]proof.Proof, len(sent))
	for _, p := range sent {
		bySig[p.Sig] = p
	}
	grants := 0
	for _, id := range ids {
		rec, ok := d.seen.Get(dedupKey{obj: "o1", id: id})
		if !ok {
			t.Fatalf("reply %s not cached", id)
		}
		if rec.proof == nil {
			continue
		}
		grants++
		if want, ok := bySig[rec.proof.Sig]; !ok || !reflect.DeepEqual(*rec.proof, want) {
			t.Fatalf("cached proof %+v, client holds %+v", *rec.proof, want)
		}
	}
	if grants != len(sent)-len(imported) || grants == 0 {
		t.Fatalf("%d cached grants, client holds %d proofs, %d imported", grants, len(sent), len(imported))
	}
}

// FuzzWireCodec holds both ends of the codec to encoding/json: any line
// decodes, as a request and as a reply, to json.Unmarshal's struct and
// error, and any request and any reply encodes to json.Marshal's bytes,
// failing exactly when it fails.
func FuzzWireCodec(f *testing.F) {
	for _, tc := range fallbackLines {
		f.Add([]byte(tc.line), "e<rr>", "tok", "f1", []byte("d"), 1.5, 2, true)
	}
	for _, tc := range replyFallbackLines {
		f.Add([]byte(tc.line), "", "t", "", []byte(nil), math.NaN(), 1, true)
	}
	for _, line := range workloadLines(f) {
		f.Add(line, "", "\u2028", "a\xffb", []byte(nil), 1e21, 0, false)
		var req wireRequest
		if err := json.Unmarshal(line, &req); err != nil {
			f.Fatal(err)
		}
		resp := wireResponse{OK: true, Data: []byte("content"), Have: len(req.Proofs) + 1, DecisionID: "d-1", HLC: "0.1"}
		if len(req.Proofs) > 0 {
			resp.Proof = &req.Proofs[0]
		}
		reply, err := appendResponse(nil, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(reply, "x", "", "", []byte{}, math.Inf(-1), 3, true)
	}
	f.Add([]byte(`{"type":"auth","credential":{"object":"o","owner":"u","roles":["r"],"sig":"s"}}`),
		"&", "\\\"", "\x00", []byte{255}, 1e-7, -5, true)
	f.Fuzz(func(t *testing.T, line []byte, s1, s2, s3 string, data []byte, tm float64, n int, withProof bool) {
		checkDecode(t, line)
		checkDecodeResponse(t, line)
		var p *proof.Proof
		if withProof {
			p = &proof.Proof{Access: model.Access{Object: model.ObjectID(s1), Op: model.Operation(s2),
				Resource: model.ResourceID(s3), Server: model.ServerID(s2)}, Time: tm, Nonce: s3, Sig: s1}
		}
		resp := wireResponse{OK: n%2 == 0, Error: s1, Token: s2, Data: data, Proof: p, Have: n, Head: s3,
			Server: s1, AuditTotal: -n, Trace: s2, DecisionID: s3, HLC: s1}
		req := wireRequest{Type: s1, Token: s2, Op: s3, Resource: s1, Program: s2, ProgramSHA: s3,
			Base: -n, Head: s1, Payload: data, ID: s2, Trace: s3, HLC: s1}
		if s3 != "" {
			resp.Resources = strings.Split(s3, ",")
			req.Credential = &proof.Credential{Object: model.ObjectID(s1), Owner: s2, Roles: resp.Resources, Sig: s3}
		}
		if s1 != "" {
			resp.Audit = strings.Split(s1, "\n")
		}
		if p != nil {
			req.Proofs = []proof.Proof{*p, *p}
			req.Proofs[n&1].Time = 1
		}
		checkEncode(t, resp)
		checkEncodeRequest(t, req)
	})
}

// BenchmarkWireAccess is the daemon codec's share of one bigpolicy
// access: decoding the request line (its program already interned) and
// encoding the grant reply.
func BenchmarkWireAccess(b *testing.B) {
	ps := signedProofs(2)
	line := marshalLine(b, wireRequest{Type: "access", Token: NewRequestID(), Op: "read", Resource: "f1",
		Program: benchProgram(1, 256), Base: 1, Head: ps[0].Sig, ID: NewRequestID()})
	resp := wireResponse{OK: true, Data: []byte("content of f1"), Proof: &ps[1], Have: 2,
		DecisionID: "d-0123456789abcdef", HLC: "0000018f00000000.1"}
	cache := newProgramCache()
	var c wireCodec
	access := func() {
		var req wireRequest
		program, err := c.decode(line, &req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cache.intern(program); err != nil {
			b.Fatal(err)
		}
		if c.out, err = appendResponse(c.out[:0], &resp); err != nil {
			b.Fatal(err)
		}
	}
	// The daemon has interned the tour's program and grown the
	// connection's buffers by the time this access arrives.
	access()
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for range b.N {
		access()
	}
}

// BenchmarkClientWireAccess is the Client codec's share of one access
// round trip: encoding a roam-shaped cursor request and decoding the
// grant reply with its proof.
func BenchmarkClientWireAccess(b *testing.B) {
	ps := signedProofs(2)
	req := wireRequest{Type: "access", Token: NewRequestID(), Op: "read", Resource: "f1",
		Base: 1, Head: ps[0].Sig, ID: NewRequestID(), HLC: "0000018f00000000.1"}
	reply, err := appendResponse(nil, &wireResponse{OK: true, Data: []byte("content of f1"), Proof: &ps[1],
		Have: 2, DecisionID: "d-0123456789abcdef", HLC: "0000018f00000000.2"})
	if err != nil {
		b.Fatal(err)
	}
	var c wireCodec
	access := func() {
		var err error
		if c.out, err = appendRequest(c.out[:0], &req); err != nil {
			b.Fatal(err)
		}
		var resp wireResponse
		if err := c.decodeResponse(reply, &resp); err != nil || !c.fast {
			b.Fatalf("decode: fast %v, %v", c.fast, err)
		}
	}
	access()
	b.ReportAllocs()
	b.SetBytes(int64(len(reply)))
	b.ResetTimer()
	for range b.N {
		access()
	}
}
