package attest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/tpm"
)

// encodeChallenge renders ch as the gob byte stream a client would send.
func encodeChallenge(t *testing.T, ch Challenge) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func asTimeout(err error, te **TimeoutError) bool { return errors.As(err, te) }

// TestServeTimedOutConnectionDoesNotConsumeQuote: a connection whose
// exchange budget is exhausted while it waits for the serialized platform
// must fail WITHOUT the responder being invoked. Quoting an sePCR frees
// the register (QuoteSePCRBatch transitions it to Free), so consuming one
// for a peer that has already been cut off would leave that register
// unattestable forever.
func TestServeTimedOutConnectionDoesNotConsumeQuote(t *testing.T) {
	tb := newTPMWithBus(t, 31, 2)
	chip := tb.chip

	// Two registers parked in the Quote state, as if two PALs had exited
	// cleanly and were awaiting attestation.
	meas := evidence.Measure([]byte("parked PAL"))
	var handles [2]int
	for i := range handles {
		h, err := chip.AllocateSePCR(0, meas)
		if err != nil {
			t.Fatal(err)
		}
		if err := chip.ReleaseSePCR(h, 0); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// The responder blocks on gate before touching the TPM, standing in
	// for a platform busy with another tenant's PAL. Each delivered quote
	// is announced on quoted: the TPM is externally serialized (Serve's
	// platform mutex), so the test needs an explicit happens-before edge
	// before it inspects sePCR state directly.
	gate := make(chan struct{})
	quoted := make(chan int, 4)
	respond := func(ch Challenge) (*Evidence, error) {
		<-gate
		h := ch.Handles[0]
		q, err := chip.QuoteSePCRBatch([]tpm.BatchRequest{{Handle: h, Nonce: ch.JobNonces[0]}}, ch.Nonce, 0)
		if err != nil {
			return nil, err
		}
		quoted <- h
		return &Evidence{Cert: &AIKCert{}, Batch: q}, nil
	}
	// Each register is challenged as a batch of one.
	challenge := func(nonce string, h int) Challenge {
		return Challenge{Nonce: []byte(nonce), SePCR: true, Batch: true,
			Handles: []int{h}, JobNonces: [][]byte{[]byte(nonce + "-job")}}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	const budget = 200 * time.Millisecond
	go Serve(l, respond, WithTimeout(budget))

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Connection 1 reaches the responder and parks on the gate, holding
	// the platform mutex.
	err1 := make(chan error, 1)
	go func() {
		_, err := Request(dial(), challenge("n1", handles[0]), WithTimeout(2*time.Second))
		err1 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Connection 2 queues behind it; by the time the mutex frees, its
	// whole exchange budget is gone.
	err2 := make(chan error, 1)
	go func() {
		_, err := Request(dial(), challenge("n2", handles[1]), WithTimeout(2*time.Second))
		err2 <- err
	}()
	time.Sleep(budget + 100*time.Millisecond)
	close(gate)

	if err := <-err2; err == nil {
		t.Fatal("timed-out connection still received evidence")
	}
	// Connection 1's evidence may or may not have made it out before its
	// own conn deadline; either way its exchange legitimately started and
	// its quote was taken.
	<-err1
	if h := <-quoted; h != handles[0] {
		t.Fatalf("first delivered quote was for sePCR %d, want %d", h, handles[0])
	}

	// The decisive assertion: connection 2's register was NOT quoted — it
	// is still in the Quote state, attestable by a later verifier.
	if st, err := chip.SePCRStateOf(handles[1]); err != nil || st != tpm.SePCRQuote {
		t.Fatalf("sePCR %d state %v (err %v), want Quote: the timed-out exchange consumed the register",
			handles[1], st, err)
	}
	// Connection 1's register was consumed (quoting really frees it, so
	// the handles[1] assertion above is meaningful).
	if st, _ := chip.SePCRStateOf(handles[0]); st != tpm.SePCRFree {
		t.Fatalf("sePCR %d state %v, want Free after a delivered quote", handles[0], st)
	}

	// A fresh, unhurried verifier can still attest register 2.
	ev, err := Request(dial(), challenge("n3", handles[1]), WithTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("register unattestable after the timed-out exchange: %v", err)
	}
	if ev.Batch == nil || ev.Batch.Entries[0].Handle != handles[1] {
		t.Fatalf("bad evidence for retry: %+v", ev.Batch)
	}
	<-quoted
	if st, _ := chip.SePCRStateOf(handles[1]); st != tpm.SePCRFree {
		t.Fatal("delivered retry quote did not free the register")
	}
}

// noDeadlineConn models a transport that silently ignores deadlines (some
// net.Conn implementations do): the only protection left is ServeOne's own
// wall-clock re-check before consulting the platform.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetDeadline(time.Time) error      { return nil }
func (noDeadlineConn) SetReadDeadline(time.Time) error  { return nil }
func (noDeadlineConn) SetWriteDeadline(time.Time) error { return nil }

// TestServeOneExpiredBudgetFailsBeforeRespond covers the same invariant on
// the single-exchange path: when the challenge decodes only after the
// budget has already passed, ServeOne reports a timeout without calling
// respond.
func TestServeOneExpiredBudgetFailsBeforeRespond(t *testing.T) {
	called := false
	respond := func(ch Challenge) (*Evidence, error) {
		called = true
		return &Evidence{}, nil
	}
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- ServeOne(noDeadlineConn{server}, respond, WithTimeout(80*time.Millisecond)) }()

	// Deliver the challenge as a slow trickle: the gob stream completes
	// after the budget has run out, so decode succeeds but the platform
	// must no longer be consulted.
	enc := encodeChallenge(t, Challenge{Nonce: []byte("slow")})
	half := len(enc) / 2
	if _, err := client.Write(enc[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // past the 80ms budget
	if _, err := client.Write(enc[half:]); err != nil {
		t.Fatal(err)
	}

	err := <-done
	if called {
		t.Fatal("respond was consulted after the deadline passed")
	}
	var te *TimeoutError
	if !asTimeout(err, &te) || te.Op != "awaiting platform" {
		t.Fatalf("want 'awaiting platform' timeout, got %v", err)
	}
}
