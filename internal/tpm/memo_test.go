package tpm

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"fmt"
	"sync"
	"testing"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/sim"
)

func TestMeasureImageMatchesMeasure(t *testing.T) {
	img := []byte("some PAL image bytes")
	want := evidence.Measure(img)
	for i := 0; i < 2; i++ {
		if d := MeasureImage(img); d != want {
			t.Fatalf("measurement %d = %x, want %x", i, d, want)
		}
	}
	// The cache keys on content, not identity: a distinct slice holding
	// the same bytes gets the same digest.
	if d := MeasureImage(append([]byte(nil), img...)); d != want {
		t.Fatalf("clone measurement %x, want %x", d, want)
	}
}

func TestMeasureImageEmpty(t *testing.T) {
	for i := 0; i < 2; i++ {
		if MeasureImage(nil) != evidence.Measure(nil) || MeasureImage([]byte{}) != evidence.Measure(nil) {
			t.Fatal("empty-input digest wrong")
		}
	}
}

// TestMeasureImageSteadyStateAllocs pins the launch path's claim: once an
// image has been measured, re-measuring it costs zero allocations.
func TestMeasureImageSteadyStateAllocs(t *testing.T) {
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i * 7)
	}
	want := MeasureImage(img) // warm the cache entry
	allocs := testing.AllocsPerRun(200, func() {
		if MeasureImage(img) != want {
			t.Fatal("steady-state measurement changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("MeasureImage allocates %v allocs/op on a hit, want 0", allocs)
	}
}

// split cuts img into n parts of as equal a length as the bytes allow.
func split(img []byte, n int) [][]byte {
	parts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, img[i*len(img)/n:(i+1)*len(img)/n])
	}
	return parts
}

// TestMeasureImageParts: late launch measures an SLB through views of it
// in memory, one per chunk, so one image arrives as one part or several.
// Every split measures as the whole image does and shares one cache entry;
// a change in the last byte of the last part is a new image; the cache
// keeps its own copy, so rewriting the parts after a call changes nothing
// a later hit sees; and a hit allocates nothing.
func TestMeasureImageParts(t *testing.T) {
	img := make([]byte, 64<<10)
	for i := range img {
		img[i] = byte(i*31 + i>>8)
	}
	copy(img, "TestMeasureImageParts")
	want := evidence.Measure(img)
	measure := func(parts [][]byte) (Digest, CacheCounts) {
		before := CacheStats()
		d := MeasureImage(parts...)
		after := CacheStats()
		return d, CacheCounts{MeasureHits: after.MeasureHits - before.MeasureHits, MeasureMisses: after.MeasureMisses - before.MeasureMisses}
	}
	for i, n := range []int{1, 2, 16, 1, 16, 2} {
		d, got := measure(split(img, n))
		if d != want {
			t.Fatalf("%d parts: digest %x, want %x", n, d, want)
		}
		if wantCounts := (CacheCounts{MeasureHits: 1}); i == 0 {
			wantCounts = CacheCounts{MeasureMisses: 1}
			if got != wantCounts {
				t.Fatalf("first measurement (%d parts) counted %+v, want one miss", n, got)
			}
		} else if got != wantCounts {
			t.Fatalf("%d parts after the first measurement counted %+v, want one hit", n, got)
		}
	}

	for _, n := range []int{1, 2, 16} {
		parts := split(bytes.Clone(img), n)
		last := parts[n-1]
		last[len(last)-1] ^= byte(n) // a different image for each split
		d, got := measure(parts)
		if d != evidence.Measure(bytes.Join(parts, nil)) || d == want {
			t.Fatalf("%d parts, last byte changed: digest %x", n, d)
		}
		if got != (CacheCounts{MeasureMisses: 1}) {
			t.Fatalf("%d parts, last byte changed: counted %+v, want one miss", n, got)
		}
	}

	// Rewrite the parts of the call that filled the cache. Had the entry
	// kept them, an unchanged copy of the image would now miss, and the
	// rewritten bytes would hit with the old digest.
	fresh := bytes.Clone(img)
	fresh[0] ^= 0x11
	freshWant := evidence.Measure(fresh)
	unchanged := bytes.Clone(fresh)
	parts := split(fresh, 2)
	if d, got := measure(parts); d != freshWant || got != (CacheCounts{MeasureMisses: 1}) {
		t.Fatalf("fresh image: digest %x counted %+v, want a miss", d, got)
	}
	parts[0][0] ^= 0x11
	parts[1][7] ^= 0x22
	if d, got := measure(split(unchanged, 16)); d != freshWant || got != (CacheCounts{MeasureHits: 1}) {
		t.Fatalf("after the parts were rewritten: digest %x counted %+v, want the cached digest on a hit", d, got)
	}
	if d := MeasureImage(parts...); d != evidence.Measure(fresh) {
		t.Fatalf("rewritten parts measured %x, want the digest of their new bytes", d)
	}

	for _, n := range []int{1, 2, 16} {
		parts := split(img, n)
		allocs := testing.AllocsPerRun(50, func() {
			if MeasureImage(parts...) != want {
				t.Fatal("hit measured wrong")
			}
		})
		if allocs != 0 {
			t.Fatalf("a hit on %d parts allocates %v allocs/op, want 0", n, allocs)
		}
	}
}

// TestMeasureImageTamperAfterHit: rewriting one byte of a slice that was
// just served from the cache must re-measure — the same backing array with
// new content is a new image.
func TestMeasureImageTamperAfterHit(t *testing.T) {
	img := []byte("an image the OS is about to rewrite in place")
	MeasureImage(img)
	MeasureImage(img) // hit
	img[10] ^= 0x5a
	if got, want := MeasureImage(img), evidence.Measure(img); got != want {
		t.Fatalf("tampered image measured %x, want %x", got, want)
	}
}

// TestMeasureImageConcurrent: every palsvc worker shares the process-wide
// cache. Goroutines measure overlapping images — more of them than the
// cache holds, so hits, misses and evictions interleave — and every answer
// must be the plain SHA-1 of the bytes asked about.
func TestMeasureImageConcurrent(t *testing.T) {
	imgs := make([][]byte, MeasureCacheEntries+8)
	want := make([]Digest, len(imgs))
	for i := range imgs {
		imgs[i] = bytes.Repeat([]byte{byte(i)}, 256+i%3) // some lengths collide
		want[i] = evidence.Measure(imgs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				i := (g*7 + n) % len(imgs)
				if MeasureImage(imgs[i]) != want[i] {
					errs <- fmt.Sprintf("goroutine %d: image %d measured wrong", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
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
	sig1, err := memoSignPKCS1v15(k1, keyFingerprint(&k1.PublicKey), digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := rsa.VerifyPKCS1v15(&k1.PublicKey, crypto.SHA1, digest[:], sig1); err != nil {
		t.Fatalf("genuine verify failed: %v", err)
	}
	// With k1's entry warm, k2 signing the same digest must get its own
	// signature, not k1's cached one.
	sig2, err := memoSignPKCS1v15(k2, keyFingerprint(&k2.PublicKey), digest)
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
	sigCopy, err := memoSignPKCS1v15(&k1copy, keyFingerprint(&k1copy.PublicKey), digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(sigCopy) != string(sig1) {
		t.Fatal("copied key produced a different signature")
	}
}

// TestCacheStatsCounts: CacheStats counts every measurement-cache and
// crypto-memo lookup once, as a hit or a miss. The images and the digest
// are this test's own, so no other test's entries can hit.
func TestCacheStatsCounts(t *testing.T) {
	delta := func(do func()) CacheCounts {
		before := CacheStats()
		do()
		after := CacheStats()
		return CacheCounts{
			MeasureHits: after.MeasureHits - before.MeasureHits, MeasureMisses: after.MeasureMisses - before.MeasureMisses,
			CryptoHits: after.CryptoHits - before.CryptoHits, CryptoMisses: after.CryptoMisses - before.CryptoMisses,
		}
	}
	img := func(i int) []byte { return []byte(fmt.Sprintf("TestCacheStatsCounts image %d", i)) }
	if got := delta(func() { MeasureImage(img(0)); MeasureImage(img(0)) }); got != (CacheCounts{MeasureHits: 1, MeasureMisses: 1}) {
		t.Errorf("one image measured twice counted %+v, want one miss then one hit", got)
	}
	// One more distinct image than the cache has slots evicts the first.
	if got := delta(func() {
		for i := 1; i <= MeasureCacheEntries+1; i++ {
			MeasureImage(img(i))
		}
	}); got != (CacheCounts{MeasureMisses: MeasureCacheEntries + 1}) {
		t.Errorf("%d distinct images counted %+v, want a miss each", MeasureCacheEntries+1, got)
	}
	if got := delta(func() { MeasureImage(img(1)) }); got != (CacheCounts{MeasureMisses: 1}) {
		t.Errorf("the evicted first image counted %+v, want a miss", got)
	}

	key, err := rsa.GenerateKey(sim.NewRNG(0xca5e), 1024)
	if err != nil {
		t.Fatal(err)
	}
	digest := evidence.Measure([]byte("TestCacheStatsCounts digest"))
	if got := delta(func() {
		for i := 0; i < 2; i++ {
			if _, err := memoSignPKCS1v15(key, keyFingerprint(&key.PublicKey), digest); err != nil {
				t.Fatal(err)
			}
		}
	}); got != (CacheCounts{CryptoHits: 1, CryptoMisses: 1}) {
		t.Errorf("one digest signed twice counted %+v, want one miss then one hit", got)
	}
}
