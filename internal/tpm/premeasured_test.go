package tpm

import (
	"testing"

	"minimaltcb/internal/evidence"
)

// Tests for HashDataPremeasured, the TPM_HASH_DATA variant the CPU's
// launch-measurement cache uses. The contract: the resulting PCR 17 is
// ALWAYS the same as the plain HashData path — the supplied digest is only
// trusted when it provably covers the whole buffered sequence.

func hashSequence(t *testing.T, chip *TPM, feed func(*TPM)) Digest {
	t.Helper()
	if err := chip.bus.SetLocality(4); err != nil {
		t.Fatal(err)
	}
	defer chip.bus.SetLocality(0)
	if err := chip.HashStart(); err != nil {
		t.Fatal(err)
	}
	feed(chip)
	pcr, err := chip.HashEnd()
	if err != nil {
		t.Fatal(err)
	}
	return pcr
}

func TestHashDataPremeasuredMatchesPlainPath(t *testing.T) {
	clock, p := newClockProfile()
	data := []byte("the SLB image crossing the LPC bus")
	plain := hashSequence(t, newProfiledTPM(t, clock, p), func(chip *TPM) {
		if err := chip.HashData(data); err != nil {
			t.Fatal(err)
		}
	})
	clock2, _ := newClockProfile()
	pre := hashSequence(t, newProfiledTPM(t, clock2, p), func(chip *TPM) {
		if err := chip.HashDataPremeasured(data, evidence.Measure(data)); err != nil {
			t.Fatal(err)
		}
	})
	if plain != pre {
		t.Fatalf("premeasured path changed PCR 17: %x vs %x", pre, plain)
	}
}

// TestHashDataPremeasuredWrongDigestOnlySequence documents the trust
// boundary: when the premeasured call is the entire sequence, the TPM takes
// the caller's word for the digest — that caller is launch microcode, and
// the launch cache validated the digest by full content compare. (The model
// cannot re-hash here without paying exactly the cost the cache removes.)
func TestHashDataPremeasuredWrongDigestOnlySequence(t *testing.T) {
	clock, p := newClockProfile()
	data := []byte("image bytes")
	wrong := evidence.Measure([]byte("different bytes"))
	pcr := hashSequence(t, newProfiledTPM(t, clock, p), func(chip *TPM) {
		if err := chip.HashDataPremeasured(data, wrong); err != nil {
			t.Fatal(err)
		}
	})
	if pcr != evidence.ExtendDigest(Digest{}, wrong) {
		t.Fatal("only-sequence premeasured digest was not used verbatim")
	}
}

// TestHashDataPremeasuredMixedFallsBack: as soon as any other data shares
// the sequence, the shortcut is abandoned and the full buffer is hashed —
// a wrong supplied digest must have no effect on the PCR.
func TestHashDataPremeasuredMixedFallsBack(t *testing.T) {
	clock, p := newClockProfile()
	pre, post := []byte("header"), []byte("trailer")
	img := []byte("the image")
	wrong := evidence.Measure([]byte("lies"))

	want := hashSequence(t, newProfiledTPM(t, clock, p), func(chip *TPM) {
		for _, b := range [][]byte{pre, img, post} {
			if err := chip.HashData(b); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Premeasured call after other data: digest must be ignored.
	clock2, _ := newClockProfile()
	got := hashSequence(t, newProfiledTPM(t, clock2, p), func(chip *TPM) {
		if err := chip.HashData(pre); err != nil {
			t.Fatal(err)
		}
		if err := chip.HashDataPremeasured(img, wrong); err != nil {
			t.Fatal(err)
		}
		if err := chip.HashData(post); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Fatal("premeasured digest leaked into a mixed sequence (data before)")
	}

	// Premeasured call before other data: length check must disarm it.
	clock3, _ := newClockProfile()
	got = hashSequence(t, newProfiledTPM(t, clock3, p), func(chip *TPM) {
		if err := chip.HashDataPremeasured(pre, wrong); err != nil {
			t.Fatal(err)
		}
		if err := chip.HashData(img); err != nil {
			t.Fatal(err)
		}
		if err := chip.HashData(post); err != nil {
			t.Fatal(err)
		}
	})
	want = hashSequence(t, newProfiledTPM(t, clock3, p), func(chip *TPM) {
		for _, b := range [][]byte{pre, img, post} {
			if err := chip.HashData(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != want {
		t.Fatal("premeasured digest leaked into a mixed sequence (data after)")
	}
}

// TestHashDataPremeasuredResetBetweenSequences: the known-digest flag must
// not survive HashEnd into the next sequence.
func TestHashDataPremeasuredResetBetweenSequences(t *testing.T) {
	clock, p := newClockProfile()
	chip := newProfiledTPM(t, clock, p)
	img := []byte("first image")
	_ = hashSequence(t, chip, func(chip *TPM) {
		if err := chip.HashDataPremeasured(img, evidence.Measure(img)); err != nil {
			t.Fatal(err)
		}
	})
	other := []byte("second image, plain path")
	got := hashSequence(t, chip, func(chip *TPM) {
		if err := chip.HashData(other); err != nil {
			t.Fatal(err)
		}
	})
	if got != evidence.ExtendDigest(Digest{}, evidence.Measure(other)) {
		t.Fatal("stale premeasured digest affected the following sequence")
	}
}
