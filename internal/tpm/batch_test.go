package tpm

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/merkle"
	"minimaltcb/internal/sim"
)

// quoteReady allocates, extends and releases n registers so each sits in
// the Quote state, returning one BatchRequest per register with a distinct
// per-job nonce.
func quoteReady(t *testing.T, chip *TPM, n int) []BatchRequest {
	t.Helper()
	reqs := make([]BatchRequest, n)
	for i := 0; i < n; i++ {
		h, err := chip.AllocateSePCR(i, evidence.Measure([]byte(fmt.Sprintf("pal-%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chip.SePCRExtend(h, i, evidence.Measure([]byte(fmt.Sprintf("input-%d", i)))); err != nil {
			t.Fatal(err)
		}
		if err := chip.ReleaseSePCR(h, i); err != nil {
			t.Fatal(err)
		}
		reqs[i] = BatchRequest{Handle: h, Nonce: []byte(fmt.Sprintf("job-nonce-%d", i))}
	}
	return reqs
}

// quoteOne attests a single register the way every sePCR is attested: as
// a batch of one, with the job nonce doubling as the batch nonce.
func quoteOne(chip *TPM, h int, nonce []byte) (*BatchQuote, error) {
	return chip.QuoteSePCRBatch([]BatchRequest{{Handle: h, Nonce: nonce}}, nonce, 0)
}

func TestQuoteBatchRoundTrip(t *testing.T) {
	chip := sePCRTPM(t, 8)
	reqs := quoteReady(t, chip, 5)
	q, err := chip.QuoteSePCRBatch(reqs, []byte("batch-nonce"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count != 5 || len(q.Entries) != 5 {
		t.Fatalf("count=%d entries=%d, want 5", q.Count, len(q.Entries))
	}
	if err := verifyBatch(chip.AIKPublic(), q); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// Every register is consumed.
	for _, r := range reqs {
		if st, _ := chip.SePCRStateOf(r.Handle); st != SePCRFree {
			t.Fatalf("sePCR %d = %v after batch quote, want Free", r.Handle, st)
		}
	}
}

func TestQuoteBatchTamperMatrix(t *testing.T) {
	chip := sePCRTPM(t, 8)
	q, err := chip.QuoteSePCRBatch(quoteReady(t, chip, 4), []byte("bn"), 0)
	if err != nil {
		t.Fatal(err)
	}
	pub := chip.AIKPublic()

	// Bit-flipped inclusion proof.
	mut := *q
	mut.Entries = append([]BatchEntry(nil), q.Entries...)
	e0 := mut.Entries[0]
	e0.Proof = append([]merkle.Hash(nil), e0.Proof...)
	e0.Proof[0][0] ^= 0x80
	mut.Entries[0] = e0
	if verifyBatch(pub, &mut) == nil {
		t.Fatal("bit-flipped proof accepted")
	}

	// Proof for the wrong job: entry 1 presented with entry 2's proof and
	// index.
	mut = *q
	mut.Entries = append([]BatchEntry(nil), q.Entries...)
	wrong := mut.Entries[1]
	wrong.Proof = q.Entries[2].Proof
	wrong.Index = q.Entries[2].Index
	mut.Entries[1] = wrong
	if verifyBatch(pub, &mut) == nil {
		t.Fatal("wrong-job proof accepted")
	}

	// Tampered composite: proof no longer matches the leaf.
	mut = *q
	mut.Entries = append([]BatchEntry(nil), q.Entries...)
	forged := mut.Entries[3]
	forged.Composite[0] ^= 0xff
	mut.Entries[3] = forged
	if verifyBatch(pub, &mut) == nil {
		t.Fatal("forged composite accepted")
	}

	// Tampered root: the signature check must fail.
	mut = *q
	mut.Root[0] ^= 0x01
	if verifyBatch(pub, &mut) == nil {
		t.Fatal("forged root accepted")
	}

	// Replayed batch nonce mismatch: different nonce, same signature.
	mut = *q
	mut.Nonce = []byte("other-nonce")
	if verifyBatch(pub, &mut) == nil {
		t.Fatal("nonce-substituted batch accepted")
	}
}

func TestQuoteBatchEmptyAndDuplicates(t *testing.T) {
	chip := sePCRTPM(t, 4)
	if _, err := chip.QuoteSePCRBatch(nil, []byte("bn"), 0); !errors.Is(err, evidence.ErrEmptyBatch) {
		t.Fatalf("empty batch: err = %v, want ErrEmptyBatch", err)
	}
	if err := verifyBatch(chip.AIKPublic(), &BatchQuote{}); !errors.Is(err, evidence.ErrEmptyBatch) {
		t.Fatalf("verify empty batch: err = %v, want ErrEmptyBatch", err)
	}
	reqs := quoteReady(t, chip, 1)
	dup := []BatchRequest{reqs[0], reqs[0]}
	if _, err := chip.QuoteSePCRBatch(dup, []byte("bn"), 0); !errors.Is(err, ErrSePCRState) {
		t.Fatalf("duplicate handle: err = %v, want ErrSePCRState", err)
	}
	// The rejected batch consumed nothing.
	if st, _ := chip.SePCRStateOf(reqs[0].Handle); st != SePCRQuote {
		t.Fatalf("sePCR %d = %v after rejected batch, want Quote", reqs[0].Handle, st)
	}
}

// TestQuoteBatchOfOneEquivalence: a batch of one attests exactly what the
// register holds — the composite is the register value, the proof is
// empty, the root is the leaf — and verifies under the AIK, so a single
// job needs no quote command of its own.
func TestQuoteBatchOfOneEquivalence(t *testing.T) {
	chip := sePCRTPM(t, 4)
	h, err := chip.AllocateSePCR(0, evidence.Measure([]byte("same-pal")))
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.ReleaseSePCR(h, 0); err != nil {
		t.Fatal(err)
	}
	want, _ := chip.SePCRValue(h)

	batch, err := quoteOne(chip, h, []byte("the-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Count != 1 || len(batch.Entries) != 1 {
		t.Fatal("batch of one has wrong shape")
	}
	e := batch.Entries[0]
	if e.Handle != h || e.Composite != want {
		t.Fatalf("entry (sePCR %d, %x), want (sePCR %d, %x)", e.Handle, e.Composite, h, want)
	}
	if len(e.Proof) != 0 {
		t.Fatalf("single-leaf proof must be empty, got %d nodes", len(e.Proof))
	}
	if batch.Root != evidence.BatchLeaf(e.Handle, e.Composite, e.Nonce) {
		t.Fatal("single-leaf root must equal the leaf")
	}
	if err := verifyBatch(chip.AIKPublic(), batch); err != nil {
		t.Fatal(err)
	}
	if st, _ := chip.SePCRStateOf(h); st != SePCRFree {
		t.Fatalf("sePCR %d = %v after batch of one, want Free", h, st)
	}
}

// failOnce fails the first matching TPM command, then passes.
type failOnce struct {
	cmd   string
	fired bool
}

func (f *failOnce) TPMCommand(name string) (time.Duration, error) {
	if name == f.cmd && !f.fired {
		f.fired = true
		return 0, errors.New("injected")
	}
	return 0, nil
}

// TestQuoteBatchFailureLeavesRegistersAttestable: a batch that fails
// mid-flight consumes nothing — every register stays in Quote and the
// retry succeeds, which is what the service's supervisor retries rely on.
func TestQuoteBatchFailureLeavesRegistersAttestable(t *testing.T) {
	chip := sePCRTPM(t, 8)
	reqs := quoteReady(t, chip, 3)
	chip.SetFault(&failOnce{cmd: "TPM_Quote"})
	if _, err := chip.QuoteSePCRBatch(reqs, []byte("bn"), 0); err == nil {
		t.Fatal("injected failure did not surface")
	}
	for _, r := range reqs {
		if st, _ := chip.SePCRStateOf(r.Handle); st != SePCRQuote {
			t.Fatalf("sePCR %d = %v after failed batch, want Quote", r.Handle, st)
		}
	}
	q, err := chip.QuoteSePCRBatch(reqs, []byte("bn"), 0)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if err := verifyBatch(chip.AIKPublic(), q); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteSessionMAC(t *testing.T) {
	chip := sePCRTPM(t, 8)
	sess, err := chip.OpenQuoteSession([]byte("session-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	// The grant is signed by the AIK over the session binding.
	if err := evidence.VerifySessionGrant(chip.AIKPublic(), sess); err != nil {
		t.Fatalf("session grant signature invalid: %v", err)
	}

	q, err := chip.QuoteSePCRBatch(quoteReady(t, chip, 2), []byte("bn"), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if q.SessionID != sess.ID || len(q.SessionMAC) == 0 {
		t.Fatal("sessionful batch missing session binding")
	}
	want := evidence.SessionMAC(sess.Key, evidence.BatchSignedDigest(q.Root, q.Count, q.Nonce))
	if !bytes.Equal(q.SessionMAC, want) {
		t.Fatal("session MAC mismatch")
	}
	var otherKey Digest
	otherKey[3] = 0xee
	if bytes.Equal(q.SessionMAC, evidence.SessionMAC(otherKey, evidence.BatchSignedDigest(q.Root, q.Count, q.Nonce))) {
		t.Fatal("MAC did not depend on the key")
	}

	// Unknown session.
	if _, err := chip.QuoteSePCRBatch(quoteReady(t, chip, 1), []byte("bn"), 9999); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown session: err = %v, want ErrUnknownSession", err)
	}

	// Reboot wipes sessions.
	chip.Boot()
	if _, err := chip.QuoteSePCRBatch(quoteReady(t, chip, 1), []byte("bn"), sess.ID); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("post-reboot session: err = %v, want ErrUnknownSession", err)
	}
}

// TestQuoteBatchAmortizedCharge pins the batch's virtual-time claim: N
// registers quoted as a batch cost one QuoteLatency plus N-1 ExtendLatency,
// strictly less than N plain quotes.
func TestQuoteBatchAmortizedCharge(t *testing.T) {
	clock, profile := newClockProfile()
	profile.Jitter = 0
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := New(clock, bus, Config{KeyBits: 1024, Profile: profile, NumSePCRs: 8})
	if err != nil {
		t.Fatal(err)
	}
	reqs := quoteReady(t, chip, 4)
	start := clock.Now()
	if _, err := chip.QuoteSePCRBatch(reqs, []byte("bn"), 0); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now() - start
	want := profile.QuoteLatency + 3*profile.ExtendLatency
	// Bus transfer time rides on top; it must stay well under one extra
	// QuoteLatency, or the amortization claim is void.
	if elapsed < want || elapsed >= want+profile.QuoteLatency {
		t.Fatalf("batch of 4 charged %v, want ~%v (4 plain quotes would be %v)",
			elapsed, want, 4*profile.QuoteLatency)
	}
}

// TestQuoteBatchTwoStepMatchesOneCall pins that the two-step form is the
// one-call form split at the signature: for one seed and one request
// list, both give the same quote, byte for byte, and leave the virtual
// clock at the same reading.
func TestQuoteBatchTwoStepMatchesOneCall(t *testing.T) {
	_, profile := newClockProfile()
	profile.Jitter = 2 * time.Millisecond
	quote := func(twoStep bool) (*BatchQuote, time.Duration) {
		clock := sim.NewClock()
		chip, err := New(clock, lpc.NewBus(clock, lpc.FullSpeed()),
			Config{Seed: 7, KeyBits: 1024, Profile: profile, NumSePCRs: 8})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := chip.OpenQuoteSession([]byte("session-nonce"))
		if err != nil {
			t.Fatal(err)
		}
		reqs := quoteReady(t, chip, 5)
		if !twoStep {
			q, err := chip.QuoteSePCRBatch(reqs, []byte("batch-nonce"), sess.ID)
			if err != nil {
				t.Fatal(err)
			}
			return q, clock.Now()
		}
		q, sign, err := chip.QuoteSePCRBatchUnsigned(reqs, []byte("batch-nonce"), sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		if q.Signature != nil {
			t.Fatal("command returned a signed quote before its signing step")
		}
		now := clock.Now()
		if err := sign(); err != nil {
			t.Fatal(err)
		}
		if clock.Now() != now {
			t.Fatalf("signing step moved the virtual clock %v -> %v", now, clock.Now())
		}
		return q, now
	}
	one, oneNow := quote(false)
	two, twoNow := quote(true)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("two-step quote differs from the one-call quote:\n%+v\n%+v", two, one)
	}
	if len(two.Signature) == 0 || len(two.SessionMAC) == 0 || len(two.Entries[1].Proof) == 0 {
		t.Fatal("quote lacks its signature, session MAC or proofs")
	}
	if oneNow != twoNow {
		t.Fatalf("virtual clock %v after the two-step form, %v after the one-call form", twoNow, oneNow)
	}
}

// TestQuoteBatchSignFailureAfterCommand pins the signing step's failure
// contract: its error comes after the command consumed the registers, so
// they are Free, the quote stays unsigned, and the one-call form reports
// the error. A validated AIK never fails to sign; a key too short for a
// PKCS#1 v1.5 SHA-1 signature stands in for one that does.
func TestQuoteBatchSignFailureAfterCommand(t *testing.T) {
	chip := sePCRTPM(t, 8)
	chip.aik = &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: big.NewInt(3233), E: 17},
		D:         big.NewInt(2753),
		Primes:    []*big.Int{big.NewInt(61), big.NewInt(53)},
	}
	chip.aikFP = keyFingerprint(&chip.aik.PublicKey)
	reqs := quoteReady(t, chip, 3)
	q, sign, err := chip.QuoteSePCRBatchUnsigned(reqs, []byte("bn"), 0)
	if err != nil {
		t.Fatalf("command failed: %v", err)
	}
	if err := sign(); err == nil {
		t.Fatal("signing with a broken AIK succeeded")
	}
	if q.Signature != nil {
		t.Fatal("failed signing step left a signature")
	}
	for _, r := range reqs {
		if st, _ := chip.SePCRStateOf(r.Handle); st != SePCRFree {
			t.Fatalf("sePCR %d = %v after the command, want Free", r.Handle, st)
		}
	}
	if _, err := chip.QuoteSePCRBatch(quoteReady(t, chip, 1), []byte("bn"), 0); err == nil {
		t.Fatal("one-call form hid the signing error")
	}
}
