package attest

import (
	"crypto/rsa"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

func newCA(t *testing.T) *PrivacyCA {
	t.Helper()
	ca, err := NewPrivacyCA(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func newTPM(t *testing.T, seed uint64, sePCRs int) *tpm.TPM {
	t.Helper()
	clock := sim.NewClock()
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := tpm.New(clock, bus, tpm.Config{KeyBits: 1024, Seed: seed, NumSePCRs: sePCRs})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// tpmWithBus pairs a TPM with its bus so tests can assert locality 4
// around the late-launch hash sequence.
type tpmWithBus struct {
	chip *tpm.TPM
	bus  *lpc.Bus
}

func newTPMWithBus(t *testing.T, seed uint64, sePCRs int) tpmWithBus {
	t.Helper()
	clock := sim.NewClock()
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := tpm.New(clock, bus, tpm.Config{KeyBits: 1024, Seed: seed, NumSePCRs: sePCRs})
	if err != nil {
		t.Fatal(err)
	}
	return tpmWithBus{chip: chip, bus: bus}
}

func TestLogReplay(t *testing.T) {
	m1 := evidence.Measure([]byte("pal"))
	m2 := evidence.Measure([]byte("input"))
	log := Log{
		{PCR: 17, Measurement: m1},
		{PCR: 17, Measurement: m2},
		{PCR: 18, Measurement: m1},
	}
	finals := log.Replay()
	want17 := evidence.ExtendDigest(evidence.ExtendDigest(tpm.Digest{}, m1), m2)
	if finals[17] != want17 {
		t.Fatal("PCR17 replay wrong")
	}
	if finals[18] != evidence.ExtendDigest(tpm.Digest{}, m1) {
		t.Fatal("PCR18 replay wrong")
	}
}

// Property: replaying a log equals folding ExtendDigest per PCR, and a
// log's replay is prefix-consistent (replaying more events never erases
// earlier ones — PCRs are append-only).
func TestLogReplayFoldProperty(t *testing.T) {
	f := func(raw []struct {
		PCR  uint8
		Data []byte
	}) bool {
		var log Log
		want := map[int]tpm.Digest{}
		for _, e := range raw {
			pcr := int(e.PCR) % 4
			m := evidence.Measure(e.Data)
			log = append(log, Event{PCR: pcr, Measurement: m})
			want[pcr] = evidence.ExtendDigest(want[pcr], m)
		}
		got := log.Replay()
		if len(got) != len(want) {
			return false
		}
		for pcr, v := range want {
			if got[pcr] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCertifyAndVerify(t *testing.T) {
	ca := newCA(t)
	chip := newTPM(t, 3, 0)
	cert, err := ca.Certify("hp-dc5750-001", chip.AIKPublic())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCert(ca.Public(), cert); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCertRejectsForgery(t *testing.T) {
	ca := newCA(t)
	other, err := NewPrivacyCA(2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	chip := newTPM(t, 3, 0)
	cert, _ := other.Certify("platform", chip.AIKPublic())
	if err := VerifyCert(ca.Public(), cert); err == nil {
		t.Fatal("certificate from untrusted CA verified")
	}
	// Tampered platform ID.
	cert, _ = ca.Certify("platform", chip.AIKPublic())
	cert.PlatformID = "evil-platform"
	if err := VerifyCert(ca.Public(), cert); err == nil {
		t.Fatal("tampered certificate verified")
	}
	if err := VerifyCert(ca.Public(), nil); err == nil {
		t.Fatal("nil certificate verified")
	}
	// Boundary shift: the signature over ("plat", N) must not also cover
	// PlatformID "plat"+N[:1] with modulus N[1:].
	cert, _ = ca.Certify("plat", chip.AIKPublic())
	n := chip.AIKPublic().N.Bytes()
	shifted := &AIKCert{
		PlatformID: "plat" + string(n[:1]),
		AIK:        &rsa.PublicKey{N: new(big.Int).SetBytes(n[1:]), E: chip.AIKPublic().E},
		Signature:  cert.Signature,
	}
	if err := VerifyCert(ca.Public(), shifted); err == nil {
		t.Fatal("certificate with a shifted PlatformID/modulus boundary verified")
	}
}

// Full chain: launch an approved PAL, quote, verify.
func TestVerifyPALQuoteEndToEnd(t *testing.T) {
	ca := newCA(t)
	tb := newTPMWithBus(t, 5, 0)
	image := []byte("the rootkit detector PAL image")
	tb.bus.SetLocality(4)
	tb.chip.HashStart()
	tb.chip.HashData(image)
	tb.chip.HashEnd()
	tb.bus.SetLocality(0)
	log := Log{{PCR: 17, Description: "PAL", Measurement: evidence.Measure(image)}}

	cert, _ := ca.Certify("dc5750", tb.chip.AIKPublic())
	nonce := []byte("fresh challenge 1")
	q, err := tb.chip.QuoteCommand(tpm.Selection{17}, nonce)
	if err != nil {
		t.Fatal(err)
	}

	v := NewVerifier(ca.Public())
	v.Approve("rootkit-detector", evidence.Measure(image))
	name, err := v.VerifyPALQuote(cert, q, log, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if name != "rootkit-detector" {
		t.Fatalf("name %q", name)
	}
	// Replay with same nonce refused.
	if _, err := v.VerifyPALQuote(cert, q, log, nonce); !errors.Is(err, ErrNonceReplay) {
		t.Fatalf("nonce replay: %v", err)
	}
}

func TestVerifyPALQuoteRejectsUnapprovedPAL(t *testing.T) {
	ca := newCA(t)
	tb := newTPMWithBus(t, 5, 0)
	image := []byte("malicious PAL")
	tb.bus.SetLocality(4)
	tb.chip.HashStart()
	tb.chip.HashData(image)
	tb.chip.HashEnd()
	log := Log{{PCR: 17, Measurement: evidence.Measure(image)}}
	cert, _ := ca.Certify("dc5750", tb.chip.AIKPublic())
	nonce := []byte("n2")
	q, _ := tb.chip.QuoteCommand(tpm.Selection{17}, nonce)

	v := NewVerifier(ca.Public())
	v.Approve("good-pal", evidence.Measure([]byte("something else")))
	if _, err := v.VerifyPALQuote(cert, q, log, nonce); !errors.Is(err, ErrUnknownPAL) {
		t.Fatalf("unapproved PAL: %v", err)
	}
}

func TestVerifyPALQuoteRejectsRebootState(t *testing.T) {
	// Quote over PCR17 straight after boot: the verifier must notice no
	// late launch happened (log has no PCR17 event that replays to the
	// quoted -1...-1 composite).
	ca := newCA(t)
	tb := newTPMWithBus(t, 5, 0)
	cert, _ := ca.Certify("dc5750", tb.chip.AIKPublic())
	nonce := []byte("n3")
	q, _ := tb.chip.QuoteCommand(tpm.Selection{17}, nonce)
	v := NewVerifier(ca.Public())
	_, err := v.VerifyPALQuote(cert, q, Log{}, nonce)
	if !errors.Is(err, ErrNotLaunched) {
		t.Fatalf("reboot-state quote: %v", err)
	}
}

func TestVerifyPALQuoteRejectsWrongNonceAndLog(t *testing.T) {
	ca := newCA(t)
	tb := newTPMWithBus(t, 5, 0)
	image := []byte("pal")
	tb.bus.SetLocality(4)
	tb.chip.HashStart()
	tb.chip.HashData(image)
	tb.chip.HashEnd()
	log := Log{{PCR: 17, Measurement: evidence.Measure(image)}}
	cert, _ := ca.Certify("p", tb.chip.AIKPublic())
	q, _ := tb.chip.QuoteCommand(tpm.Selection{17}, []byte("right"))
	v := NewVerifier(ca.Public())
	v.Approve("pal", evidence.Measure(image))
	if _, err := v.VerifyPALQuote(cert, q, log, []byte("wrong")); !errors.Is(err, ErrWrongNonce) {
		t.Fatalf("wrong nonce: %v", err)
	}
	badLog := Log{{PCR: 17, Measurement: evidence.Measure([]byte("lie"))}}
	if _, err := v.VerifyPALQuote(cert, q, badLog, []byte("right")); err == nil {
		t.Fatal("mismatched log verified")
	}
	// A selection naming PCR 273 composites like PCR 17 (the index is
	// hashed as one byte, and the selection is unsigned), so a log could
	// claim the PAL in a register that does not exist and append
	// unquoted events to PCR 17.
	forged := *q
	forged.Selection = evidence.Selection{273}
	forgedLog := Log{
		{PCR: 273, Measurement: evidence.Measure(image)},
		{PCR: 17, Measurement: evidence.Measure([]byte("anything"))},
	}
	if _, err := v.VerifyPALQuote(cert, &forged, forgedLog, []byte("right")); !errors.Is(err, evidence.ErrBadSelection) {
		t.Fatalf("out-of-range selection: err = %v, want ErrBadSelection", err)
	}
}

// quoteOne attests one parked register the way every sePCR is attested:
// as a batch of one, the job nonce doubling as the batch nonce.
func quoteOne(t *testing.T, chip *tpm.TPM, h int, nonce []byte) *tpm.BatchQuote {
	t.Helper()
	q, err := chip.QuoteSePCRBatch([]tpm.BatchRequest{{Handle: h, Nonce: nonce}}, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestVerifySePCRQuoteEndToEnd(t *testing.T) {
	ca := newCA(t)
	chip := newTPM(t, 6, 2)
	image := []byte("factoring PAL")
	meas := evidence.Measure(image)
	h, err := chip.AllocateSePCR(0, meas)
	if err != nil {
		t.Fatal(err)
	}
	input := evidence.Measure([]byte("work unit 7"))
	chip.SePCRExtend(h, 0, input)
	chip.ReleaseSePCR(h, 0)
	nonce := []byte("challenge")
	q := quoteOne(t, chip, h, nonce)

	log := Log{
		{PCR: -1, Description: "PAL", Measurement: meas},
		{PCR: -1, Description: "input", Measurement: input},
	}
	cert, _ := ca.Certify("ws", chip.AIKPublic())
	v := NewVerifier(ca.Public())
	v.Approve("factoring", meas)
	// Failed verifications come first: none of them may burn the nonce.
	if _, err := v.VerifyBatchedQuote(cert, q, 0, log, []byte("wrong")); !errors.Is(err, ErrWrongNonce) {
		t.Fatalf("wrong nonce: %v", err)
	}
	if _, err := v.VerifyBatchedQuote(cert, q, 0, log[:1], nonce); !errors.Is(err, ErrLogMismatch) {
		t.Fatalf("log without the input extension: %v", err)
	}
	name, err := v.VerifyBatchedQuote(cert, q, 0, log, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if name != "factoring" {
		t.Fatalf("name %q", name)
	}
	if _, err := v.VerifyBatchedQuote(cert, q, 0, log, nonce); !errors.Is(err, ErrNonceReplay) {
		t.Fatalf("replayed quote: %v", err)
	}
}

func TestVerifySePCRQuoteRejectsKilledPAL(t *testing.T) {
	ca := newCA(t)
	chip := newTPM(t, 6, 1)
	meas := evidence.Measure([]byte("pal"))
	h, _ := chip.AllocateSePCR(0, meas)
	// SKILL the PAL, then try to pass its register off as clean: the
	// register went straight to Free, so no quote is even possible.
	if err := chip.KillSePCR(h); err != nil {
		t.Fatal(err)
	}
	if _, err := chip.QuoteSePCRBatch([]tpm.BatchRequest{{Handle: h, Nonce: []byte("n")}}, []byte("n"), 0); err == nil {
		t.Fatal("killed PAL's register quoted")
	}
	// And a forged log containing the SKILL marker is rejected.
	v := NewVerifier(ca.Public())
	v.Approve("pal", meas)
	cert, _ := ca.Certify("ws", chip.AIKPublic())
	h2, _ := chip.AllocateSePCR(0, meas)
	chip.SePCRExtend(h2, 0, evidence.SKillMarker)
	chip.ReleaseSePCR(h2, 0)
	nonce := []byte("n9")
	q := quoteOne(t, chip, h2, nonce)
	log := Log{
		{PCR: -1, Measurement: meas},
		{PCR: -1, Measurement: evidence.SKillMarker},
	}
	if _, err := v.VerifyBatchedQuote(cert, q, 0, log, nonce); !errors.Is(err, ErrUnknownPAL) {
		t.Fatalf("log with SKILL marker: %v", err)
	}
}

func TestVerifySePCRQuoteRootMustBeApproved(t *testing.T) {
	ca := newCA(t)
	chip := newTPM(t, 6, 1)
	evil := evidence.Measure([]byte("evil pal"))
	good := evidence.Measure([]byte("good pal"))
	h, _ := chip.AllocateSePCR(0, evil)
	// Evil PAL extends the good PAL's measurement as an "input", hoping
	// the verifier matches on it.
	chip.SePCRExtend(h, 0, good)
	chip.ReleaseSePCR(h, 0)
	nonce := []byte("n10")
	q := quoteOne(t, chip, h, nonce)
	log := Log{
		{PCR: -1, Measurement: evil},
		{PCR: -1, Measurement: good},
	}
	v := NewVerifier(ca.Public())
	v.Approve("good", good)
	cert, _ := ca.Certify("ws", chip.AIKPublic())
	if _, err := v.VerifyBatchedQuote(cert, q, 0, log, nonce); !errors.Is(err, ErrUnknownPAL) {
		t.Fatalf("root-spoofed log: %v", err)
	}
}
