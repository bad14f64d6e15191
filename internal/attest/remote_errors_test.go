package attest

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"minimaltcb/internal/evidence"
)

// These tests cover the remote protocol's failure modes: truncated and
// oversized frames, slow-loris clients hitting the exchange deadline, a
// panicking responder, and many concurrent verifier clients against one
// server.

func TestServeOneTruncatedChallenge(t *testing.T) {
	respond, _, _, _ := platformSide(t, []byte("pal"))
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeOne(server, respond, WithTimeout(2*time.Second)) }()

	// Write a few bytes that cannot complete a gob stream, then hang up.
	if _, err := client.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "decoding challenge") {
		t.Fatalf("truncated challenge: got %v", err)
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Fatalf("truncation misreported as timeout: %v", err)
	}
}

func TestServeOneOversizedNonce(t *testing.T) {
	respond, _, _, _ := platformSide(t, []byte("pal"))
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeOne(server, respond, WithTimeout(2*time.Second)) }()

	big := make([]byte, 300) // over the 256-byte bound
	if _, err := Request(client, Challenge{Nonce: big}, WithTimeout(2*time.Second)); err == nil {
		t.Fatal("oversized nonce produced evidence")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "nonce") {
		t.Fatalf("server error: %v", err)
	}
}

func TestServeOneSlowLorisHitsDeadline(t *testing.T) {
	respond, _, _, _ := platformSide(t, []byte("pal"))
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- ServeOne(server, respond, WithTimeout(50*time.Millisecond)) }()

	// The client connects and never sends a byte.
	err := <-done
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("slow-loris client: want *TimeoutError, got %v", err)
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError.Timeout() = false")
	}
	if te.Op != "reading challenge" {
		t.Fatalf("timed-out op %q", te.Op)
	}
	if te.Limit != 50*time.Millisecond {
		t.Fatalf("timeout limit %v", te.Limit)
	}
}

func TestRequestTimesOutOnSilentPlatform(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	// Accept and read the challenge, then never answer.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		conn.Read(buf)
		time.Sleep(2 * time.Second)
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Request(conn, Challenge{Nonce: []byte("n")}, WithTimeout(60*time.Millisecond))
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("silent platform: want *TimeoutError, got %v", err)
	}
	if te.Op != "reading evidence" {
		t.Fatalf("timed-out op %q", te.Op)
	}
}

func TestServeSurvivesPanickingResponder(t *testing.T) {
	image := []byte("panic PAL")
	respond, _, _, ca := platformSide(t, image)
	panicky := func(ch Challenge) (*Evidence, error) {
		if string(ch.Nonce) == "panic-now" {
			panic("responder exploded")
		}
		return respond(ch)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	go Serve(l, panicky, WithTimeout(2*time.Second))

	// First client triggers the panic; its connection just dies.
	c1, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Request(c1, Challenge{Nonce: []byte("panic-now")}, WithTimeout(time.Second)); err == nil {
		t.Fatal("panicking responder produced evidence")
	}

	// The server must still answer the next client.
	v := NewVerifier(ca.Public())
	v.Approve("panic-pal", evidence.Measure(image))
	c2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	name, err := v.ChallengeAndVerify(c2, []byte("after-panic"), WithTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("server dead after responder panic: %v", err)
	}
	if name != "panic-pal" {
		t.Fatalf("name %q", name)
	}
}

func TestConcurrentVerifierClients(t *testing.T) {
	image := []byte("concurrent PAL")
	respond, _, _, ca := platformSide(t, image)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	go Serve(l, respond, WithTimeout(5*time.Second))

	// One shared verifier: Verifier must be safe for concurrent use.
	v := NewVerifier(ca.Public())
	v.Approve("conc-pal", evidence.Measure(image))

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			nonce := []byte(fmt.Sprintf("conc-nonce-%d", i))
			name, err := v.ChallengeAndVerify(conn, nonce, WithTimeout(5*time.Second))
			if err != nil {
				errs <- err
				return
			}
			if name != "conc-pal" {
				errs <- fmt.Errorf("client %d: name %q", i, name)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
