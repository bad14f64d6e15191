package attest

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/tpm"
)

// batchPlatform is the platform side of a batched remote exchange: a chip
// with registers parked in the Quote state and a Responder answering batch
// challenges from them.
type batchPlatform struct {
	chip  *tpm.TPM
	cert  *AIKCert
	logs  map[int]Log // per-handle event logs
	calls atomic.Int64
}

func newBatchPlatform(t *testing.T, v *Verifier, ca *PrivacyCA, n int) *batchPlatform {
	t.Helper()
	chip := newTPM(t, 6, n)
	cert, err := ca.Certify("ws", chip.AIKPublic())
	if err != nil {
		t.Fatal(err)
	}
	p := &batchPlatform{chip: chip, cert: cert, logs: map[int]Log{}}
	for i := 0; i < n; i++ {
		image := []byte(fmt.Sprintf("pal-%d", i))
		meas := evidence.Measure(image)
		v.Approve(fmt.Sprintf("pal-%d", i), meas)
		h, err := chip.AllocateSePCR(i, meas)
		if err != nil {
			t.Fatal(err)
		}
		if err := chip.ReleaseSePCR(h, i); err != nil {
			t.Fatal(err)
		}
		p.logs[h] = Log{{PCR: -1, Description: "PAL", Measurement: meas}}
	}
	return p
}

// respond answers batch challenges; anything else is refused so a
// downgrade cannot slip through silently in these tests.
func (p *batchPlatform) respond(ch Challenge) (*Evidence, error) {
	p.calls.Add(1)
	if !ch.Batch {
		return nil, errors.New("batch-only platform")
	}
	ev := &Evidence{Cert: p.cert}
	var sessionID uint64
	if ch.OpenSession {
		grant, err := p.chip.OpenQuoteSession(ch.Nonce)
		if err != nil {
			return nil, err
		}
		ev.Grant = grant
		sessionID = grant.ID
	}
	reqs := make([]tpm.BatchRequest, len(ch.Handles))
	for i, h := range ch.Handles {
		reqs[i] = tpm.BatchRequest{Handle: h, Nonce: ch.JobNonces[i]}
	}
	q, err := p.chip.QuoteSePCRBatch(reqs, ch.Nonce, sessionID)
	if err != nil {
		return nil, err
	}
	ev.Batch = q
	ev.Logs = make([]Log, len(ch.Handles))
	for i, h := range ch.Handles {
		ev.Logs[i] = p.logs[h]
	}
	return ev, nil
}

// exchange drives ServeOne and a verifier-side call over a pipe.
func exchange(t *testing.T, respond Responder, client func(conn net.Conn)) {
	t.Helper()
	server, clientConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeOne(server, respond, WithTimeout(5*time.Second))
	}()
	client(clientConn)
	<-done
}

func jobNonces(prefix string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%s-job-%d", prefix, i))
	}
	return out
}

func TestChallengeAndVerifyBatchRemote(t *testing.T) {
	ca := newCA(t)
	v := NewVerifier(ca.Public())
	p := newBatchPlatform(t, v, ca, 3)
	handles := []int{0, 1, 2}
	nonces := jobNonces("stateless", 3)
	exchange(t, p.respond, func(conn net.Conn) {
		names, err := v.ChallengeAndVerifyBatch(conn, nil, []byte("batch-1"), handles, nonces, WithTimeout(5*time.Second))
		if err != nil {
			t.Errorf("batched exchange: %v", err)
			return
		}
		if len(names) != 3 || names[2] != "pal-2" {
			t.Errorf("names = %v", names)
		}
	})
}

func TestRemoteSessionResumption(t *testing.T) {
	ca := newCA(t)
	v := NewVerifier(ca.Public())
	p := newBatchPlatform(t, v, ca, 4)

	// First exchange opens the session and carries a batch of two.
	var sess *Session
	exchange(t, p.respond, func(conn net.Conn) {
		s, ev, err := v.OpenRemoteSession(conn, []byte("open-1"), []int{0, 1}, jobNonces("a", 2), WithTimeout(5*time.Second))
		if err != nil {
			t.Errorf("open session: %v", err)
			return
		}
		sess = s
		for i, n := range jobNonces("a", 2) {
			if _, err := s.VerifyBatchedQuote(ev.Batch, i, ev.Logs[i], n); err != nil {
				t.Errorf("first batch entry %d: %v", i, err)
			}
		}
	})
	if sess == nil {
		t.Fatal("no session")
	}

	// Second exchange rides the session: HMAC only, no RSA. The platform
	// strips the batch's AIK signature, which the session never checks
	// and the stateless path would reject.
	handles := []int{2, 3}
	nonces := jobNonces("b", 2)
	var unsigned *tpm.BatchQuote
	exchange(t, func(ch Challenge) (*Evidence, error) {
		// The platform keeps MACing under the open session.
		reqs := []tpm.BatchRequest{{Handle: 2, Nonce: ch.JobNonces[0]}, {Handle: 3, Nonce: ch.JobNonces[1]}}
		q, err := p.chip.QuoteSePCRBatch(reqs, ch.Nonce, 1)
		if err != nil {
			return nil, err
		}
		q.Signature = nil
		unsigned = q
		return &Evidence{Cert: p.cert, Batch: q, Logs: []Log{p.logs[2], p.logs[3]}}, nil
	}, func(conn net.Conn) {
		names, err := v.ChallengeAndVerifyBatch(conn, sess, []byte("batch-2"), handles, nonces, WithTimeout(5*time.Second))
		if err != nil {
			t.Errorf("sessionful exchange: %v", err)
			return
		}
		if len(names) != 2 || names[0] != "pal-2" {
			t.Errorf("names = %v", names)
		}
	})
	if _, err := v.AuthenticateBatch(p.cert, unsigned); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("stateless path on the unsigned batch: err = %v, want ErrBadSignature", err)
	}
}

// TestBatchFailureMidFlightConsumesNothing: when batch assembly fails on
// the platform (a register not in Quote state, an injected TPM fault), no
// register is consumed and no verifier nonce is burned — the retry with
// the SAME nonces succeeds.
func TestBatchFailureMidFlightConsumesNothing(t *testing.T) {
	ca := newCA(t)
	v := NewVerifier(ca.Public())
	p := newBatchPlatform(t, v, ca, 2)
	handles := []int{0, 1}
	nonces := jobNonces("retry", 2)

	// First attempt: the batch includes a handle whose register is Free —
	// assembly fails mid-flight, after handle 0 was already "collected".
	exchange(t, p.respond, func(conn net.Conn) {
		_, err := v.ChallengeAndVerifyBatch(conn, nil, []byte("bn-1"), []int{0, 5}, [][]byte{nonces[0], []byte("x")}, WithTimeout(5*time.Second))
		if err == nil {
			t.Error("batch over an invalid handle verified")
		}
	})
	// Handle 0 must still be attestable…
	if st, _ := p.chip.SePCRStateOf(0); st != tpm.SePCRQuote {
		t.Fatalf("sePCR 0 = %v after failed batch, want Quote", st)
	}
	// …and nonces[0] unburned: the retry reuses it and verifies.
	exchange(t, p.respond, func(conn net.Conn) {
		names, err := v.ChallengeAndVerifyBatch(conn, nil, []byte("bn-2"), handles, nonces, WithTimeout(5*time.Second))
		if err != nil {
			t.Errorf("retry failed: %v", err)
			return
		}
		if len(names) != 2 {
			t.Errorf("names = %v", names)
		}
	})
}

// TestMalformedBatchChallengeRejectedBeforePlatform: a batch challenge
// with mismatched handles/nonces, or an sePCR challenge that is not a
// batch, never reaches the responder — the platform cannot be made to
// consume registers for a request whose evidence could not be verified
// anyway.
func TestMalformedBatchChallengeRejectedBeforePlatform(t *testing.T) {
	ca := newCA(t)
	v := NewVerifier(ca.Public())
	p := newBatchPlatform(t, v, ca, 2)
	cases := []Challenge{
		{Nonce: []byte("n"), Batch: true}, // no handles
		{Nonce: []byte("n"), Batch: true, Handles: []int{0, 1}, JobNonces: [][]byte{[]byte("a")}}, // length mismatch
		{Nonce: []byte("n"), Batch: true, Handles: []int{0}, JobNonces: [][]byte{nil}},            // empty job nonce
		{Nonce: []byte("n"), SePCR: true}, // sePCR without Batch
	}
	for i, ch := range cases {
		server, client := net.Pipe()
		errc := make(chan error, 1)
		go func() { errc <- ServeOne(server, p.respond, WithTimeout(2*time.Second)) }()
		_, reqErr := Request(client, ch, WithTimeout(2*time.Second))
		if reqErr == nil {
			t.Errorf("case %d: malformed challenge produced evidence", i)
		}
		if err := <-errc; err == nil || !strings.Contains(err.Error(), "refusing") && !strings.Contains(err.Error(), "batch challenge") {
			t.Errorf("case %d: server err = %v", i, err)
		}
	}
	if p.calls.Load() != 0 {
		t.Fatalf("responder consulted %d times for malformed challenges", p.calls.Load())
	}
}
