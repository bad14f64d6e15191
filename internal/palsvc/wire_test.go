package palsvc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"op":"ping"}`)
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("round trip %q, want %q", got, body)
	}
}

// frameReaders gives the readers ReadFrame must treat alike: the raw bytes,
// and the per-connection buffered reader ServeConns and Client read through.
func frameReaders(b []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"raw":      bytes.NewReader(b),
		"buffered": bufio.NewReader(bytes.NewReader(b)),
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	for name, r := range frameReaders(hdr[:]) {
		if _, err := ReadFrame(r); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: oversized header error %v, want ErrFrameTooLarge", name, err)
		}
	}
}

func TestReadFrameRejectsEmptyFrame(t *testing.T) {
	var hdr [4]byte
	for name, r := range frameReaders(hdr[:]) {
		if _, err := ReadFrame(r); err == nil {
			t.Errorf("%s: empty frame accepted", name)
		}
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("complete payload")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	for name, r := range frameReaders(cut) {
		if _, err := ReadFrame(r); err == nil {
			t.Errorf("%s: truncated payload accepted", name)
		}
	}
}

func TestWriteFrameRejectsOversizedBody(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, MaxFrame+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body error %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frame wrote %d bytes", buf.Len())
	}
}

// countingConn records every Write's bytes and counts Reads. The server's
// connection goroutine and the test both reach it.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	reads  int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Conn.Read(p)
}

// check fails t unless c wrote exactly want, one frame per Write, and its
// read count lies in [minReads, maxReads].
func (c *countingConn) check(t *testing.T, side string, want [][]byte, minReads, maxReads int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.writes) != len(want) {
		t.Errorf("%s: %d writes for %d frames, want one each", side, len(c.writes), len(want))
	}
	for i := range min(len(c.writes), len(want)) {
		if !bytes.Equal(c.writes[i], want[i]) {
			t.Errorf("%s: write %d = %q, want %q", side, i, c.writes[i], want[i])
		}
	}
	if c.reads < minReads || c.reads > maxReads {
		t.Errorf("%s: %d reads for %d frames, want one each", side, c.reads, minReads)
	}
}

// countingListener hands out its accepted connections as countingConns.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.conns <- cc
	return cc, nil
}

// TestFrameIsOneWriteOneRead pins the wire's syscall shape at both ends of
// a connection: each frame leaves in exactly one Write carrying the 4-byte
// big-endian length and the body, and is taken, once it has arrived, in
// one Read. The Client is built without Dial, so its reader is made on
// first use.
func TestFrameIsOneWriteOneRead(t *testing.T) {
	s := newTestService(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cl := &countingListener{Listener: l, conns: make(chan *countingConn, 1)}
	go func() { _ = s.Serve(cl, 30*time.Second) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := &countingConn{Conn: conn}
	c := &Client{conn: client, timeout: 10 * time.Second}
	defer c.Close()
	const pings = 3
	for i := 0; i < pings; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	server := <-cl.conns
	var reqs, resps [][]byte
	for i := 0; i < pings; i++ {
		reqs = append(reqs, append([]byte{0, 0, 0, 13}, `{"op":"ping"}`...))
		resps = append(resps, append([]byte{0, 0, 0, 11}, `{"ok":true}`...))
	}
	client.check(t, "client", reqs, pings, pings)
	// The server may already be waiting in its next Read.
	server.check(t, "server", resps, pings, pings+1)
}

// frameOf encodes v as one wire frame.
func frameOf(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeConnsFrameSplits sends request frames split across writes as
// TCP may deliver them. The server must answer every whole frame, in order,
// from the one reader it keeps per connection (a reader made per frame
// would drop a second frame that arrived with the first), and must close
// the connection on an empty or oversized frame.
func TestServeConnsFrameSplits(t *testing.T) {
	_, addr := startServer(t, Config{})
	ping := frameOf(t, WireRequest{Op: OpPing})
	unknown := frameOf(t, WireRequest{Op: "explode"})
	var oversized [4]byte
	binary.BigEndian.PutUint32(oversized[:], MaxFrame+1)
	var byByte [][]byte
	for i := range ping {
		byByte = append(byByte, ping[i:i+1])
	}
	for _, tc := range []struct {
		name   string
		writes [][]byte
		want   []string // each answer's Err, in order ("" is OK)
		closes bool     // the server then drops the connection
	}{
		{"two frames in one write", [][]byte{append(append([]byte(nil), unknown...), ping...)},
			[]string{`unknown op "explode"`, ""}, false},
		{"one byte per write", byByte, []string{""}, false},
		{"empty frame", [][]byte{ping, make([]byte, 4)}, []string{""}, true},
		{"oversized frame", [][]byte{ping, oversized[:]}, []string{""}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			for _, w := range tc.writes {
				if _, err := conn.Write(w); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range tc.want {
				body, err := ReadFrame(conn)
				if err != nil {
					t.Fatalf("answer %d: %v", i, err)
				}
				var resp WireResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Err != want || resp.OK != (want == "") {
					t.Fatalf("answer %d = %+v, want err %q", i, resp, want)
				}
			}
			if tc.closes {
				if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) {
					t.Fatalf("after a bad frame: %v, want the server to close (EOF)", err)
				}
			}
		})
	}
}

// flakyListener fails its first Accepts with errs, then accepts for real.
type flakyListener struct {
	net.Listener
	errs []error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, err
	}
	return l.Listener.Accept()
}

// TestServeRetriesExhaustedAccept: running out of descriptors is transient,
// so Serve backs off and keeps serving; a closed listener or any other
// accept error ends Serve with that error, as before.
func TestServeRetriesExhaustedAccept(t *testing.T) {
	s := newTestService(t, Config{})
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	other := errors.New("accept: injected failure")
	for _, tc := range []struct {
		name     string
		err      error
		survives bool
	}{
		{"EMFILE", emfile, true},
		{"closed", net.ErrClosed, false},
		{"other", other, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			done := make(chan error, 1)
			go func() { done <- s.Serve(&flakyListener{Listener: l, errs: []error{tc.err, tc.err}}, 30*time.Second) }()
			if tc.survives {
				cl, err := Dial(l.Addr().String(), 5*time.Second) // the handshake is a ping
				if err != nil {
					t.Fatalf("no service after two %s accept errors: %v", tc.name, err)
				}
				_ = cl.Close()
				_ = l.Close()
			}
			select {
			case err := <-done:
				want := tc.err
				if tc.survives {
					want = net.ErrClosed
				}
				if !errors.Is(err, want) {
					t.Fatalf("Serve returned %v, want %v", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return")
			}
		})
	}
}

// startServer brings up a Service behind a loopback TCP listener and
// returns its address.
func startServer(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	s := newTestService(t, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = s.Serve(l, 30*time.Second) }()
	return s, l.Addr().String()
}

func TestWireRunStatsPing(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Run(&WireRequest{Name: "hello", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("run failed: %s", resp.Err)
	}
	if string(resp.Output) != "hello" || resp.VerifiedAs != "hello" {
		t.Fatalf("output %q verified %q", resp.Output, resp.VerifiedAs)
	}
	if resp.ExecuteNS <= 0 {
		t.Fatal("no virtual execution time reported")
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.SePCRCapacity != 4 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestWireUnknownOp(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.roundTrip(&WireRequest{Op: "explode"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("unknown op answered %+v", resp)
	}
}

func TestWireMalformedJSONKeepsConnectionUsable(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("bad request")) {
		t.Fatalf("response %s", body)
	}
	// The connection survives a malformed request, and a Client built
	// without Dial round-trips on it.
	cl := &Client{conn: conn}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestWireRetryableFlagOnQueueFull(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1, QueueDepth: 1})
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Saturate from parallel connections until one response comes back
	// with the retryable flag.
	var wg sync.WaitGroup
	sawRetryable := make(chan struct{}, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c2, err := Dial(addr, 0)
			if err != nil {
				return
			}
			defer c2.Close()
			for j := 0; j < 4; j++ {
				resp, err := c2.Run(&WireRequest{Name: "slow", Source: slowSource})
				if err != nil {
					return
				}
				if !resp.OK && resp.Retryable {
					select {
					case sawRetryable <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-sawRetryable:
	default:
		t.Skip("queue never filled on this host")
	}
}

func TestWireConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{Profile: testProfile(4), Workers: 8, QueueDepth: 128})
	const clients = 8
	var wg sync.WaitGroup
	errC := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr, 0)
			if err != nil {
				errC <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 5; j++ {
				resp, err := cl.Run(&WireRequest{Name: "hello", Source: helloSource})
				if err != nil {
					errC <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if !resp.OK {
					errC <- fmt.Errorf("client %d: %s", i, resp.Err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Error(err)
	}
	if m := s.Metrics(); m.Completed != clients*5 {
		t.Fatalf("completed %d, want %d", m.Completed, clients*5)
	}
}
