package tpm

import (
	"crypto"
	"crypto/rsa"
	"testing"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/sim"
)

func TestMeasureMemoizedMatchesMeasure(t *testing.T) {
	img := []byte("some PAL image bytes")
	want := evidence.Measure(img)

	d, hit := MeasureMemoized(img)
	if d != want {
		t.Fatalf("first measurement %x, want %x", d, want)
	}
	if hit {
		t.Fatal("first measurement of a fresh slice reported a cache hit")
	}
	d, hit = MeasureMemoized(img)
	if d != want {
		t.Fatalf("memoized measurement %x, want %x", d, want)
	}
	if !hit {
		t.Fatal("second measurement of the same slice missed the cache")
	}

	// A distinct slice with identical content is a different identity: the
	// cache keys on the backing array, so it must miss (and still hash
	// correctly).
	clone := append([]byte(nil), img...)
	d, hit = MeasureMemoized(clone)
	if d != want {
		t.Fatalf("clone measurement %x, want %x", d, want)
	}
	if hit {
		t.Fatal("distinct backing array reported a cache hit")
	}
}

func TestMeasureMemoizedEmptySlice(t *testing.T) {
	d, hit := MeasureMemoized(nil)
	if hit {
		t.Fatal("empty slice reported a hit")
	}
	if d != evidence.Measure(nil) {
		t.Fatal("empty-slice digest wrong")
	}
}

// TestMeasureMemoizedSteadyStateAllocs pins the launch path's claim: once
// an image has been measured, re-measuring it costs zero allocations.
func TestMeasureMemoizedSteadyStateAllocs(t *testing.T) {
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i * 7)
	}
	MeasureMemoized(img) // warm the cache entry
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit := MeasureMemoized(img); !hit {
			t.Fatal("steady-state measurement missed the cache")
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized Measure allocates %v allocs/op, want 0", allocs)
	}
}

// TestCryptoMemoNoCrossKeyAliasing is the regression test for the
// pointer-keyed cryptoKey bug: with per-epoch AIK re-minting, a freed key's
// address could be recycled for a different key and alias its cached
// signatures. The cache must key on public material, so two distinct AIKs
// can never share entries — even with the cache fully warm.
func TestCryptoMemoNoCrossKeyAliasing(t *testing.T) {
	mint := func(seed uint64) *rsa.PrivateKey {
		k, err := rsa.GenerateKey(sim.NewRNG(seed), 1024)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k1, k2 := mint(0x10a1), mint(0x10a2)
	if keyFingerprint(&k1.PublicKey) == keyFingerprint(&k2.PublicKey) {
		t.Fatal("distinct keys produced the same fingerprint")
	}

	digest := evidence.Measure([]byte("cross-key aliasing probe"))
	sig1, err := memoSignPKCS1v15(k1, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := rsa.VerifyPKCS1v15(&k1.PublicKey, crypto.SHA1, digest[:], sig1); err != nil {
		t.Fatalf("genuine verify failed: %v", err)
	}
	// With k1's entry warm, k2 signing the same digest must get its own
	// signature, not k1's cached one.
	sig2, err := memoSignPKCS1v15(k2, digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(sig1) == string(sig2) {
		t.Fatal("two keys signed the same digest identically")
	}
	if err := rsa.VerifyPKCS1v15(&k2.PublicKey, crypto.SHA1, digest[:], sig2); err != nil {
		t.Fatalf("k2's signature does not verify under k2: %v", err)
	}
	if err := rsa.VerifyPKCS1v15(&k2.PublicKey, crypto.SHA1, digest[:], sig1); err == nil {
		t.Fatal("k1's signature verified under k2")
	}

	// And fingerprint identity is about public material, not object
	// identity: a distinct copy of k1 must share its cache entries.
	k1copy := *k1
	sigCopy, err := memoSignPKCS1v15(&k1copy, digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(sigCopy) != string(sig1) {
		t.Fatal("copied key produced a different signature")
	}
}
