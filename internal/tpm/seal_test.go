package tpm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"minimaltcb/internal/evidence"
)

func TestSealUnsealRoundTrip(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	chip.Extend(evidence.FirstDynamicPCR, evidence.Measure([]byte("pal")))
	secret := []byte("the CA's private signing key")
	blob, err := chip.Seal(Selection{evidence.FirstDynamicPCR}, secret)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chip.Unseal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("unsealed %q, want %q", got, secret)
	}
	if chip.Unseals() != 1 {
		t.Fatalf("Unseals() = %d", chip.Unseals())
	}
}

func TestUnsealFailsAfterPCRChange(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	chip.Extend(evidence.FirstDynamicPCR, evidence.Measure([]byte("pal")))
	blob, err := chip.Seal(Selection{evidence.FirstDynamicPCR}, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	// Different software extends the PCR: policy must no longer match.
	chip.Extend(evidence.FirstDynamicPCR, evidence.Measure([]byte("malware")))
	if _, err := chip.Unseal(blob); !errors.Is(err, ErrPCRMismatch) {
		t.Fatalf("unseal under wrong PCRs: %v", err)
	}
}

func TestUnsealFailsForDifferentPAL(t *testing.T) {
	chip, _, bus := testTPM(t, Config{})
	bus.SetLocality(4)
	// PAL A launches and seals.
	chip.HashStart()
	chip.HashData([]byte("PAL A code"))
	chip.HashEnd()
	blob, err := chip.Seal(Selection{evidence.FirstDynamicPCR}, []byte("A's secret"))
	if err != nil {
		t.Fatal(err)
	}
	// PAL B launches; PCR17 now holds B's measurement.
	chip.HashStart()
	chip.HashData([]byte("PAL B code"))
	chip.HashEnd()
	if _, err := chip.Unseal(blob); !errors.Is(err, ErrPCRMismatch) {
		t.Fatalf("PAL B unsealed A's state: %v", err)
	}
	// PAL A relaunches: unseal works again.
	chip.HashStart()
	chip.HashData([]byte("PAL A code"))
	chip.HashEnd()
	got, err := chip.Unseal(blob)
	if err != nil || string(got) != "A's secret" {
		t.Fatalf("PAL A re-unseal: %q, %v", got, err)
	}
}

func TestSealEmptySelection(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	blob, err := chip.Seal(nil, []byte("open secret"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := chip.Unseal(blob)
	if err != nil || string(got) != "open secret" {
		t.Fatalf("empty-selection roundtrip: %q, %v", got, err)
	}
}

func TestSealLargePayload(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	big := make([]byte, 100_000) // far beyond one RSA block: hybrid envelope
	for i := range big {
		big[i] = byte(i * 7)
	}
	blob, err := chip.Seal(Selection{0}, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chip.Unseal(blob)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large payload corrupted (%v)", err)
	}
}

func TestUnsealRejectsTamperedBlob(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	blob, err := chip.Seal(Selection{0}, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one ciphertext byte (the tail of the blob).
	tampered := append([]byte(nil), blob...)
	tampered[len(tampered)-1] ^= 0x01
	if _, err := chip.Unseal(tampered); !errors.Is(err, ErrBadBlob) {
		t.Fatalf("tampered ciphertext: %v", err)
	}
	// Corrupt the release digest: the policy check must fail first.
	tampered = append([]byte(nil), blob...)
	tampered[7] ^= 0xff // inside release digest (mode 0, nsel 1, sel byte)
	if _, err := chip.Unseal(tampered); err == nil {
		t.Fatal("blob with corrupted policy unsealed")
	}
}

func TestUnsealMalformedBlobs(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	bad := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE definitely not a blob"),
		[]byte("SEAL\x00\x30"), // claims 48 selection bytes, has none
	}
	for _, b := range bad {
		if _, err := chip.Unseal(b); !errors.Is(err, ErrBadBlob) {
			t.Fatalf("Unseal(%q): %v, want ErrBadBlob", b, err)
		}
	}
}

func TestUnsealWrongTPMFails(t *testing.T) {
	a, _, _ := testTPM(t, Config{Seed: 1})
	b, _, _ := testTPM(t, Config{Seed: 2})
	blob, err := a.Seal(Selection{0}, []byte("bound to A"))
	if err != nil {
		t.Fatal(err)
	}
	// B has a different SRK: decryption must fail even though B's PCR 0
	// holds the same (zero) value.
	if _, err := b.Unseal(blob); err == nil {
		t.Fatal("foreign TPM unsealed the blob")
	}
}

func TestSealedBlobsDiffer(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	b1, _ := chip.Seal(Selection{0}, []byte("same data"))
	b2, _ := chip.Seal(Selection{0}, []byte("same data"))
	if bytes.Equal(b1, b2) {
		t.Fatal("two seals of identical data produced identical blobs (nonce reuse)")
	}
}

func TestSealChargesPayloadDependentTime(t *testing.T) {
	clock, profile := newClockProfile()
	chip := newProfiledTPM(t, clock, profile)
	start := clock.Now()
	chip.Seal(Selection{0}, make([]byte, 1024))
	small := clock.Now() - start
	start = clock.Now()
	chip.Seal(Selection{0}, make([]byte, 64*1024))
	large := clock.Now() - start
	if large <= small {
		t.Fatalf("64KB seal (%v) not slower than 1KB seal (%v)", large, small)
	}
}

// Property: seal/unseal round-trips arbitrary payloads under any selection
// of valid PCR indices, as long as the PCRs are untouched in between.
func TestSealRoundTripProperty(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	f := func(data []byte, rawSel []uint8) bool {
		sel := make(Selection, 0, len(rawSel))
		for _, s := range rawSel {
			sel = append(sel, int(s)%evidence.NumPCRs)
		}
		blob, err := chip.Seal(sel, data)
		if err != nil {
			return false
		}
		got, err := chip.Unseal(blob)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
