package palsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"minimaltcb/internal/audit"
)

// fullRunRequest and fullRunResponse set every field a run frame carries.
var (
	fullRunRequest = WireRequest{
		Op: OpRun, Name: "écho", Source: echoSource, Input: []byte("in\x00put"),
		DeadlineMS: 1500, NoAttest: true, TraceID: "0123456789abcdef0123456789abcdef",
		ParentSpan: math.MaxUint64, Tenant: "acme",
	}
	fullRunResponse = WireResponse{
		OK: true, Retryable: true, Err: "palsvc: queue full", Code: CodeQueueFull,
		Output: []byte("out\xffput"), ExitStatus: math.MaxUint32, VerifiedAs: "echo",
		Attempts: 3, BatchSize: 8, Backend: "127.0.0.1:7081",
		QueueWaitNS: 1, ArbWaitNS: -2, ExecuteNS: math.MaxInt64, QuoteGenNS: math.MinInt64, VerifyNS: 5,
		TraceID: "fedcba9876543210fedcba9876543210",
	}
)

// TestRunFrameMatchesJSON: for every run field, the binary round trip
// gives what the JSON round trip gives.
func TestRunFrameMatchesJSON(t *testing.T) {
	reqs := map[string]WireRequest{
		"empty":             {Op: OpRun},
		"full":              fullRunRequest,
		"negative deadline": {Op: OpRun, Name: "late", Source: helloSource, DeadlineMS: -5},
		"empty input":       {Op: OpRun, Name: "echo", Input: []byte{}},
		"decimal trace":     {Op: OpRun, TraceID: "42", ParentSpan: 7},
		"invalid UTF-8": {Op: OpRun, Name: "\xff", Source: "ldi\xc0 r0", TraceID: "\xed\xa0\x80",
			Tenant: "a\xe2\x82b"},
	}
	for name, req := range reqs {
		var viaJSON, viaFrame WireRequest
		jsonRoundTrip(t, &req, &viaJSON)
		if err := viaFrame.decodeRunFrame(req.appendRunFrame(nil)); err != nil {
			t.Fatalf("request %s: %v", name, err)
		}
		if !reflect.DeepEqual(viaFrame, viaJSON) {
			t.Errorf("request %s: run frame gives %+v, JSON gives %+v", name, viaFrame, viaJSON)
		}
	}
	resps := map[string]WireResponse{
		"empty":        {},
		"full":         fullRunResponse,
		"nil output":   {OK: true, Output: nil},
		"empty output": {OK: true, Output: []byte{}},
		"invalid UTF-8": {Err: "bad \xff", Code: "\xfe", VerifiedAs: "\xc3", Backend: "h\xf0\x9f",
			TraceID: "\x80\x80"},
	}
	for _, ok := range []bool{false, true} {
		for _, retryable := range []bool{false, true} {
			resps[fmt.Sprintf("ok=%t retryable=%t", ok, retryable)] =
				WireResponse{OK: ok, Retryable: retryable, Code: CodeShed}
		}
	}
	for name, resp := range resps {
		var viaJSON, viaFrame WireResponse
		jsonRoundTrip(t, &resp, &viaJSON)
		if err := viaFrame.decodeRunFrame(resp.appendRunFrame(nil)); err != nil {
			t.Fatalf("response %s: %v", name, err)
		}
		if !reflect.DeepEqual(viaFrame, viaJSON) {
			t.Errorf("response %s: run frame gives %+v, JSON gives %+v", name, viaFrame, viaJSON)
		}
	}
}

func jsonRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

// TestRunFrameRejects names each malformed frame the decoders refuse.
func TestRunFrameRejects(t *testing.T) {
	req := fullRunRequest.appendRunFrame(nil)
	resp := fullRunResponse.appendRunFrame(nil)
	hugeField := binary.AppendUvarint([]byte{runRequestTag, 0, 0, 0}, 1<<63)
	badName := []byte{runRequestTag, 0, 0, 0, 1, 0xff, 0, 0, 0, 0}
	badTenant := []byte{runRequestTag, 0, 0, 0, 0, 0, 0, 0, 1, 0xff}
	bigExit := binary.AppendUvarint([]byte{runResponseTag, 0}, math.MaxUint32+1)
	bigExit = append(bigExit, make([]byte, 7+6)...)
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, errRunFrameTag},
		{"JSON", []byte(`{"op":"ping"}`), errRunFrameTag},
		{"response tag", resp, errRunFrameTag},
		{"tag alone", []byte{runRequestTag}, errRunFrameTruncated},
		{"unknown flag", append([]byte{runRequestTag, 0x80}, req[2:]...), errRunFrameFlags},
		{"truncated", req[:len(req)-1], errRunFrameTruncated},
		{"field past the end", hugeField, errRunFrameTruncated},
		{"trailing byte", append(append([]byte(nil), req...), 0), errRunFrameTrailing},
		{"varint overflow", append([]byte{runRequestTag, 0}, bytes.Repeat([]byte{0xff}, 11)...), errRunFrameRange},
		{"name not UTF-8", badName, errRunFrameUTF8},
		{"tenant not UTF-8", badTenant, errRunFrameUTF8},
	} {
		var got WireRequest
		if err := got.decodeRunFrame(tc.body); !errors.Is(err, tc.want) {
			t.Errorf("request %s: %v, want %v", tc.name, err, tc.want)
		}
		if !reflect.DeepEqual(got, WireRequest{}) {
			t.Errorf("request %s: rejected frame set %+v", tc.name, got)
		}
	}
	var got WireResponse
	if err := got.decodeRunFrame(bigExit); !errors.Is(err, errRunFrameRange) {
		t.Errorf("exit status past 32 bits: %v, want %v", err, errRunFrameRange)
	}
	badErr := append([]byte{runResponseTag, 0}, make([]byte, 8)...)
	badErr = append(badErr, 1, 0xff, 0, 0, 0, 0, 0)
	if err := got.decodeRunFrame(badErr); !errors.Is(err, errRunFrameUTF8) {
		t.Errorf("error message not UTF-8: %v, want %v", err, errRunFrameUTF8)
	}
	if !reflect.DeepEqual(got, WireResponse{}) {
		t.Errorf("rejected response frames set %+v", got)
	}
	if err := got.decodeRunFrame(req); !errors.Is(err, errRunFrameTag) {
		t.Errorf("request frame decoded as a response: %v", err)
	}
}

// TestRunFrameDecodeRejectsWithoutAllocating: a frame the decoder refuses
// costs no allocation, however long the length it claims.
func TestRunFrameDecodeRejectsWithoutAllocating(t *testing.T) {
	req := fullRunRequest.appendRunFrame(nil)
	for name, body := range map[string][]byte{
		"trailing byte":      append(append([]byte(nil), req...), 0),
		"field past the end": binary.AppendUvarint([]byte{runRequestTag, 0, 0, 0}, 1<<63),
		"tenant not UTF-8":   {runRequestTag, 0, 0, 0, 0, 0, 0, 0, 1, 0xff},
	} {
		var got WireRequest
		if allocs := testing.AllocsPerRun(100, func() { _ = got.decodeRunFrame(body) }); allocs != 0 {
			t.Errorf("%s: rejecting allocates %v times, want 0", name, allocs)
		}
	}
}

// FuzzRunFrame feeds arbitrary bytes to both decoders, which must never
// panic; a frame that decodes must re-encode to one that decodes to the
// same value. It also builds a request and a response from the input,
// which must survive encode then decode as they survive a JSON round trip:
// unchanged, but for each string byte outside valid UTF-8, which both
// turn into U+FFFD.
func FuzzRunFrame(f *testing.F) {
	req := fullRunRequest.appendRunFrame(nil)
	resp := fullRunResponse.appendRunFrame(nil)
	f.Add([]byte{})
	f.Add([]byte{runRequestTag})
	f.Add([]byte{runResponseTag})
	for _, full := range [][]byte{req, resp} {
		for n := 1; n < len(full); n++ {
			f.Add(full[:n])
		}
		f.Add(full)
		f.Add(append(append([]byte(nil), full...), 0))
	}
	f.Add(binary.AppendUvarint([]byte{runRequestTag, 0, 0, 0}, 1<<63))
	f.Add(binary.AppendUvarint([]byte{runResponseTag, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<63))
	f.Add([]byte{runRequestTag, 0, 0, 0, 0, 0, 0, 0, 1, 0xff})
	f.Add([]byte(`{"op":"ping"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dreq WireRequest
		if dreq.decodeRunFrame(data) == nil {
			var again WireRequest
			if err := again.decodeRunFrame(dreq.appendRunFrame(nil)); err != nil || !reflect.DeepEqual(again, dreq) {
				t.Fatalf("request %+v re-decoded as %+v (%v)", dreq, again, err)
			}
		}
		var dresp WireResponse
		if dresp.decodeRunFrame(data) == nil {
			var again WireResponse
			if err := again.decodeRunFrame(dresp.appendRunFrame(nil)); err != nil || !reflect.DeepEqual(again, dresp) {
				t.Fatalf("response %+v re-decoded as %+v (%v)", dresp, again, err)
			}
		}
		d := draw(data)
		wreq := d.request()
		var greq, jreq WireRequest
		jsonRoundTrip(t, &wreq, &jreq)
		if err := greq.decodeRunFrame(wreq.appendRunFrame(nil)); err != nil || !reflect.DeepEqual(greq, jreq) {
			t.Fatalf("request %+v round-tripped as %+v, want %+v (%v)", wreq, greq, jreq, err)
		}
		wresp := d.response()
		var gresp, jresp WireResponse
		jsonRoundTrip(t, &wresp, &jresp)
		if err := gresp.decodeRunFrame(wresp.appendRunFrame(nil)); err != nil || !reflect.DeepEqual(gresp, jresp) {
			t.Fatalf("response %+v round-tripped as %+v, want %+v (%v)", wresp, gresp, jresp, err)
		}
	})
}

// draw builds run-field values from fuzz input, consuming it as it goes.
type draw []byte

// bytes takes a field whose length the next byte picks; empty is nil, as
// a decoded empty field is.
func (d *draw) bytes() []byte {
	if len(*d) == 0 {
		return nil
	}
	n := int((*d)[0]) % len(*d)
	b := (*d)[1 : 1+n]
	*d = (*d)[1+n:]
	if n == 0 {
		return nil
	}
	return b
}

func (d *draw) int64() int64 {
	var b [8]byte
	*d = (*d)[copy(b[:], *d):]
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (d *draw) request() WireRequest {
	flags := d.int64()
	return WireRequest{
		Op: OpRun, Name: string(d.bytes()), Source: string(d.bytes()), Input: d.bytes(),
		DeadlineMS: d.int64(), NoAttest: flags&1 != 0, TraceID: string(d.bytes()),
		ParentSpan: uint64(d.int64()), Tenant: string(d.bytes()),
	}
}

func (d *draw) response() WireResponse {
	flags := d.int64()
	return WireResponse{
		OK: flags&1 != 0, Retryable: flags&2 != 0, Err: string(d.bytes()), Code: string(d.bytes()),
		Output: d.bytes(), ExitStatus: uint32(d.int64()), VerifiedAs: string(d.bytes()),
		Attempts: int(d.int64()), BatchSize: int(d.int64()), Backend: string(d.bytes()),
		QueueWaitNS: d.int64(), ArbWaitNS: d.int64(), ExecuteNS: d.int64(),
		QuoteGenNS: d.int64(), VerifyNS: d.int64(), TraceID: string(d.bytes()),
	}
}

// jsonOnlyServer serves s as a server that predates run frames did: it
// decodes every body as JSON, so it drops the handshake's offer as an
// unknown field and would answer a run frame with a bad request.
func jsonOnlyServer(t *testing.T, s *Service) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					body, err := ReadFrame(c)
					if err != nil {
						return
					}
					var req WireRequest
					resp := &WireResponse{}
					if err := json.Unmarshal(body, &req); err != nil {
						resp.Err = "bad request: " + err.Error()
					} else {
						resp = s.dispatch(&req)
					}
					out, _ := json.Marshal(resp)
					if err := WriteFrame(c, out); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// firstBodyByte returns the first body byte of c's i-th write.
func (c *countingConn) firstBodyByte(t *testing.T, i int) byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.writes) <= i || len(c.writes[i]) < 5 {
		t.Fatalf("write %d missing: %q", i, c.writes)
	}
	return c.writes[i][4]
}

// TestRunFrameNegotiation: a Client sends run frames only to a server that
// accepted Dial's offer, and a server answers each request in the codec
// the request used.
func TestRunFrameNegotiation(t *testing.T) {
	s := newTestService(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cl := &countingListener{Listener: l, conns: make(chan *countingConn, 4)} // one per connection made
	go func() { _ = s.Serve(cl, 30*time.Second) }()
	addr := l.Addr().String()
	echo := &WireRequest{Name: "echo", Source: echoSource, Input: []byte("frame"), NoAttest: true}

	// run dials with timeout, wraps the Client's connection, and runs echo;
	// it returns the run request's first body byte.
	run := func(t *testing.T, addr string, timeout time.Duration, wantOutput string) byte {
		t.Helper()
		c, err := Dial(addr, timeout)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		spy := &countingConn{Conn: c.conn}
		c.conn = spy
		resp, err := c.Run(echo)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || string(resp.Output) != wantOutput {
			t.Fatalf("run answered %+v, want output %q", resp, wantOutput)
		}
		if _, err := c.Do(&WireRequest{Op: OpStats}); err != nil {
			t.Fatal(err)
		}
		if b := spy.firstBodyByte(t, 1); b != '{' {
			t.Errorf("stats request starts with %#x, want JSON", b)
		}
		return spy.firstBodyByte(t, 0)
	}

	t.Run("Dial to a new server", func(t *testing.T) {
		if b := run(t, addr, 5*time.Second, "frame"); b != runRequestTag {
			t.Errorf("run request starts with %#x, want the run-frame tag", b)
		}
		server := <-cl.conns
		server.mu.Lock()
		accept := string(server.writes[0][4:])
		server.mu.Unlock()
		if accept != `{"ok":true,"run_frame":true}` {
			t.Errorf("handshake answered %s", accept)
		}
	})
	t.Run("Dial to a JSON-only server", func(t *testing.T) {
		if b := run(t, jsonOnlyServer(t, s), 5*time.Second, "frame"); b != '{' {
			t.Errorf("run request starts with %#x, want JSON", b)
		}
	})
	t.Run("Dial without handshake", func(t *testing.T) {
		if b := run(t, addr, 0, "frame"); b != '{' {
			t.Errorf("run request starts with %#x, want JSON", b)
		}
	})

	jsonRun, err := json.Marshal(&WireRequest{Op: OpRun, Name: echo.Name, Source: echo.Source, Input: echo.Input, NoAttest: true})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("JSON run to a new server", func(t *testing.T) {
		got := rawExchange(t, addr, jsonRun)[0]
		var resp WireResponse
		if err := json.Unmarshal(got, &resp); err != nil || !resp.OK || string(resp.Output) != "frame" {
			t.Fatalf("JSON run answered %q (%v)", got, err)
		}
	})
	t.Run("malformed run frame", func(t *testing.T) {
		got := rawExchange(t, addr, []byte{runRequestTag}, echo.appendRunFrame(nil), []byte(`{"op":"ping"}`))
		var bad WireResponse
		if err := bad.decodeRunFrame(got[0]); err != nil {
			t.Fatalf("malformed frame answered %q, want a run frame (%v)", got[0], err)
		}
		if bad.OK || !strings.HasPrefix(bad.Err, "bad request: ") {
			t.Errorf("malformed frame answered %+v, want a bad request", bad)
		}
		var ok WireResponse
		if err := ok.decodeRunFrame(got[1]); err != nil || !ok.OK || string(ok.Output) != "frame" {
			t.Errorf("next run frame answered %+v (%v)", ok, err)
		}
		if string(got[2]) != `{"ok":true}` {
			t.Errorf("then a ping answered %s", got[2])
		}
	})
}

// rawExchange sends bodies to addr on one connection and returns the
// answers' bodies.
func rawExchange(t *testing.T, addr string, bodies ...[]byte) [][]byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var out [][]byte
	for _, b := range bodies {
		if err := WriteFrame(conn, b); err != nil {
			t.Fatal(err)
		}
		body, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// TestRunFrameInvalidUTF8KeepsAuditLog: a run frame whose strings are not
// valid UTF-8 is a bad request, so no such tenant reaches the audit log,
// whose JSON and binary views would then disagree. A Client whose job name
// is not valid UTF-8 sends it as JSON would: each bad byte becomes U+FFFD.
// The log still verifies and reopens.
func TestRunFrameInvalidUTF8KeepsAuditLog(t *testing.T) {
	dir := t.TempDir()
	alog, err := audit.Open(audit.Config{Dir: dir, Node: "test", HeadEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Audit: alog})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l, 30*time.Second) }()
	addr := l.Addr().String()

	// frame builds a no-attest echo run frame field by field, so its
	// strings go on the wire byte for byte.
	frame := func(name, tenant string) []byte {
		b := []byte{runRequestTag, flagNoAttest, 0, 0}
		for _, f := range []string{name, echoSource, "in", "", tenant} {
			b = appendField(b, f)
		}
		return b
	}
	answers := rawExchange(t, addr, frame("echo", "\xff"), frame("\xff", ""), frame("echo", "acme"))
	for i, want := range []bool{false, false, true} {
		var resp WireResponse
		if err := resp.decodeRunFrame(answers[i]); err != nil {
			t.Fatalf("frame %d answered %q (%v)", i, answers[i], err)
		}
		if resp.OK != want || (!want && !strings.HasPrefix(resp.Err, "bad request: ")) {
			t.Errorf("frame %d answered %+v, want ok=%t", i, resp, want)
		}
	}
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.runFrame {
		t.Fatal("handshake did not agree on run frames")
	}
	if resp, err := c.Run(&WireRequest{Name: "bad\xffname", Source: echoSource, NoAttest: true}); err != nil || !resp.OK {
		t.Fatalf("run named %q: %+v (%v)", "bad\xffname", resp, err)
	}

	events, _ := alog.Select(audit.Query{Limit: 4096})
	tenants := map[string]bool{}
	for _, e := range events {
		if !utf8.ValidString(e.Tenant) {
			t.Errorf("audited tenant %q is not valid UTF-8", e.Tenant)
		}
		tenants[e.Tenant] = true
	}
	if !tenants["acme"] || !tenants["bad\uFFFDname"] {
		t.Errorf("audited tenants %v, want acme and bad\\uFFFDname among them", tenants)
	}
	s.Close()
	alog.Close()
	rep, err := audit.VerifyChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("audit log does not verify: %v", err)
	}
	reopened, err := audit.Open(audit.Config{Dir: dir, Node: "test"})
	if err != nil {
		t.Fatalf("audit log does not reopen: %v", err)
	}
	reopened.Close()
}
