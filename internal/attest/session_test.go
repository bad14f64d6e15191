package attest

import (
	"errors"
	"fmt"
	"testing"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/tpm"
)

// batchFixture prepares n identically-trusted PALs on one chip, batch-
// quotes them, and returns everything a verifier-side test needs.
type batchFixture struct {
	ca     *PrivacyCA
	chip   *tpm.TPM
	cert   *AIKCert
	v      *Verifier
	q      *tpm.BatchQuote
	logs   []Log
	nonces [][]byte
}

func newBatchFixture(t *testing.T, n int, sessionID uint64, chip *tpm.TPM) *batchFixture {
	t.Helper()
	ca := newCA(t)
	if chip == nil {
		chip = newTPM(t, 6, n+1)
	}
	v := NewVerifier(ca.Public())
	cert, err := ca.Certify("ws", chip.AIKPublic())
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]tpm.BatchRequest, n)
	logs := make([]Log, n)
	nonces := make([][]byte, n)
	for i := 0; i < n; i++ {
		image := []byte(fmt.Sprintf("pal-%d", i))
		meas := evidence.Measure(image)
		v.Approve(fmt.Sprintf("pal-%d", i), meas)
		h, err := chip.AllocateSePCR(i, meas)
		if err != nil {
			t.Fatal(err)
		}
		input := evidence.Measure([]byte(fmt.Sprintf("input-%d", i)))
		if _, err := chip.SePCRExtend(h, i, input); err != nil {
			t.Fatal(err)
		}
		if err := chip.ReleaseSePCR(h, i); err != nil {
			t.Fatal(err)
		}
		nonces[i] = []byte(fmt.Sprintf("nonce-%d-%d", sessionID, i))
		reqs[i] = tpm.BatchRequest{Handle: h, Nonce: nonces[i]}
		logs[i] = Log{
			{PCR: -1, Description: "PAL", Measurement: meas},
			{PCR: -1, Description: "input", Measurement: input},
		}
	}
	q, err := chip.QuoteSePCRBatch(reqs, []byte("batch-nonce"), sessionID)
	if err != nil {
		t.Fatal(err)
	}
	return &batchFixture{ca: ca, chip: chip, cert: cert, v: v, q: q, logs: logs, nonces: nonces}
}

func TestVerifyBatchedQuoteStateless(t *testing.T) {
	f := newBatchFixture(t, 4, 0, nil)
	for i := range f.logs {
		name, err := f.v.VerifyBatchedQuote(f.cert, f.q, i, f.logs[i], f.nonces[i])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if want := fmt.Sprintf("pal-%d", i); name != want {
			t.Fatalf("entry %d approved as %q, want %q", i, name, want)
		}
	}
	// Replaying an already-consumed per-job nonce fails.
	if _, err := f.v.VerifyBatchedQuote(f.cert, f.q, 0, f.logs[0], f.nonces[0]); !errors.Is(err, ErrNonceReplay) {
		t.Fatalf("replay: err = %v, want ErrNonceReplay", err)
	}
}

func TestSessionVerifyBatchedQuote(t *testing.T) {
	chip := newTPM(t, 6, 4)
	sess, err := chip.OpenQuoteSession([]byte("open-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	f := newBatchFixture(t, 3, sess.ID, chip)
	s, err := f.v.NewSession(f.cert, sess, []byte("open-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	// The HMAC channel does all the work: with its AIK signature removed,
	// the batch still authenticates over the session, while the stateless
	// path, which checks that signature, rejects it.
	unsigned := *f.q
	unsigned.Signature = nil
	if _, err := f.v.VerifyBatchedQuote(f.cert, &unsigned, 0, f.logs[0], f.nonces[0]); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("stateless path on an unsigned batch: err = %v, want ErrBadSignature", err)
	}
	b, err := s.AuthenticateBatch(&unsigned)
	if err != nil {
		t.Fatalf("session rejected the unsigned batch: %v", err)
	}
	for i := range f.logs {
		name, err := b.VerifyEntry(i, f.logs[i], f.nonces[i])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if want := fmt.Sprintf("pal-%d", i); name != want {
			t.Fatalf("entry %d approved as %q, want %q", i, name, want)
		}
	}
	if s.Batches() != 1 {
		t.Fatalf("session counted %d batches, want 1", s.Batches())
	}
}

func TestSessionTamperCases(t *testing.T) {
	chip := newTPM(t, 6, 6)
	sess, err := chip.OpenQuoteSession([]byte("open-a"))
	if err != nil {
		t.Fatal(err)
	}
	f := newBatchFixture(t, 2, sess.ID, chip)
	s, err := f.v.NewSession(f.cert, sess, []byte("open-a"))
	if err != nil {
		t.Fatal(err)
	}

	// Stale session HMAC: a MAC under a different (old) session key.
	var oldKey tpm.Digest
	oldKey[7] = 0x42
	stale := *f.q
	stale.SessionMAC = evidence.SessionMAC(oldKey, evidence.BatchSignedDigest(stale.Root, stale.Count, stale.Nonce))
	if _, err := s.VerifyBatchedQuote(&stale, 0, f.logs[0], f.nonces[0]); !errors.Is(err, ErrStaleSession) {
		t.Fatalf("stale MAC: err = %v, want ErrStaleSession", err)
	}

	// Batch bound to a different session ID.
	other := *f.q
	other.SessionID = sess.ID + 100
	if _, err := s.VerifyBatchedQuote(&other, 0, f.logs[0], f.nonces[0]); !errors.Is(err, ErrWrongSession) {
		t.Fatalf("wrong session: err = %v, want ErrWrongSession", err)
	}

	// A failed verification consumed nothing: the genuine batch still
	// verifies with the same nonces.
	if _, err := s.VerifyBatchedQuote(f.q, 0, f.logs[0], f.nonces[0]); err != nil {
		t.Fatalf("genuine batch after tamper attempts: %v", err)
	}

	// Proof for the wrong job at the session layer.
	mut := *f.q
	mut.Entries = append([]tpm.BatchEntry(nil), f.q.Entries...)
	wrong := mut.Entries[1]
	wrong.Proof = f.q.Entries[0].Proof
	wrong.Index = f.q.Entries[0].Index
	mut.Entries[1] = wrong
	if _, err := s.VerifyBatchedQuote(&mut, 1, f.logs[1], f.nonces[1]); !errors.Is(err, ErrBadProof) {
		t.Fatalf("wrong-job proof: err = %v, want ErrBadProof", err)
	}
	// ... and the untampered entry still verifies afterwards.
	if _, err := s.VerifyBatchedQuote(f.q, 1, f.logs[1], f.nonces[1]); err != nil {
		t.Fatalf("entry 1 after tamper attempt: %v", err)
	}
}

func TestNewSessionRejectsBadGrant(t *testing.T) {
	chip := newTPM(t, 6, 2)
	ca := newCA(t)
	v := NewVerifier(ca.Public())
	cert, _ := ca.Certify("ws", chip.AIKPublic())
	sess, err := chip.OpenQuoteSession([]byte("n1"))
	if err != nil {
		t.Fatal(err)
	}
	// Forged key: grant signature no longer covers it.
	forged := *sess
	forged.Key[0] ^= 0xff
	if _, err := v.NewSession(cert, &forged, []byte("n1")); !errors.Is(err, ErrBadGrant) {
		t.Fatalf("forged grant: err = %v, want ErrBadGrant", err)
	}
	// Wrong nonce binding.
	if _, err := v.NewSession(cert, sess, []byte("other")); !errors.Is(err, ErrWrongNonce) {
		t.Fatalf("wrong nonce: err = %v, want ErrWrongNonce", err)
	}
	// The failures above burned nothing: the genuine open succeeds.
	s, err := v.NewSession(cert, sess, []byte("n1"))
	if err != nil {
		t.Fatal(err)
	}
	if s.PlatformID() != "ws" {
		t.Fatalf("platform = %q", s.PlatformID())
	}
	// Re-opening with the same (now consumed) nonce is a replay.
	if _, err := v.NewSession(cert, sess, []byte("n1")); !errors.Is(err, ErrNonceReplay) {
		t.Fatalf("grant replay: err = %v, want ErrNonceReplay", err)
	}
}

// TestNonceWindowBounded pins the replay-window fix: far more nonces than
// the window can hold pass through, memory stays bounded, and recent
// nonces are still replay-protected.
func TestNonceWindowBounded(t *testing.T) {
	v := NewVerifier(newCA(t).Public())
	total := NonceWindowBound + 2500
	for i := 0; i < total; i++ {
		if err := v.consumeNonce([]byte(fmt.Sprintf("n-%d", i))); err != nil {
			t.Fatalf("nonce %d: %v", i, err)
		}
	}
	if got := v.NonceWindowSize(); got > NonceWindowBound {
		t.Fatalf("window holds %d nonces, bound is %d", got, NonceWindowBound)
	}
	// The most recent nonce is still inside the window.
	if err := v.consumeNonce([]byte(fmt.Sprintf("n-%d", total-1))); !errors.Is(err, ErrNonceReplay) {
		t.Fatalf("recent replay: err = %v, want ErrNonceReplay", err)
	}
}
