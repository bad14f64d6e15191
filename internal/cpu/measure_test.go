package cpu

import (
	"fmt"
	"testing"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// Tests for late launch through tpm's measurement cache (MeasureImage).
// The cache may only ever change wall-clock cost: every measurement it
// returns must be the SHA-1 of the bytes actually in memory at launch time
// (a full content compare guards every hit), and the virtual time charged
// must be identical on hits and misses.

func TestLaunchCacheRepeatedSKINITIdentical(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := place(t, r.chip, 4096)

	start := r.cpu.Clock().Now()
	first, err := r.cpu.SKINIT(base)
	if err != nil {
		t.Fatal(err)
	}
	missCost := r.cpu.Clock().Now() - start

	start = r.cpu.Clock().Now()
	second, err := r.cpu.SKINIT(base)
	if err != nil {
		t.Fatal(err)
	}
	hitCost := r.cpu.Clock().Now() - start

	if first.PALMeasurement != second.PALMeasurement {
		t.Fatal("cached launch reported a different measurement")
	}
	if first.PCR17 != second.PCR17 {
		t.Fatal("cached launch produced a different PCR 17")
	}
	img, _ := r.chip.Memory().ReadRaw(first.Region.Base, first.Region.Size)
	if want := evidence.Measure(img); first.PALMeasurement != want {
		t.Fatal("measurement is not the image hash")
	}
	if missCost != hitCost {
		t.Fatalf("virtual launch cost changed with the cache: miss %v, hit %v", missCost, hitCost)
	}
}

// TestLaunchCacheTamperInvalidates: changing even one byte of the SLB after
// a cached launch must produce the new content's hash — the hit path does a
// full compare against the cached copy.
func TestLaunchCacheTamperInvalidates(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := place(t, r.chip, 4096)
	first, err := r.cpu.SKINIT(base)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the padded body, past the header.
	raw, err := r.chip.Memory().ReadRaw(base+2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.chip.Memory().WriteRaw(base+2048, []byte{raw[0] ^ 0xa5}); err != nil {
		t.Fatal(err)
	}
	second, err := r.cpu.SKINIT(base)
	if err != nil {
		t.Fatal(err)
	}
	if second.PALMeasurement == first.PALMeasurement {
		t.Fatal("tampered SLB measured as the original — the cache trusted a stale digest")
	}
	img, _ := r.chip.Memory().ReadRaw(second.Region.Base, second.Region.Size)
	if want := evidence.Measure(img); second.PALMeasurement != want {
		t.Fatal("post-tamper measurement is not the current image hash")
	}
}

// TestLaunchCacheEvictionCorrectness: launching more distinct images than
// the cache holds (round-robin eviction) stays correct — every launch
// reports the hash of its own bytes.
func TestLaunchCacheEvictionCorrectness(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := uint32(8 * mem.PageSize)
	for round := 0; round < 2; round++ {
		for i := 0; i < tpm.MeasureCacheEntries+4; i++ {
			im := pal.MustBuild(fmt.Sprintf("ldi r0, %d\nhalt", i))
			im, err := im.Pad(4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.chip.Memory().WriteRaw(base, im.Bytes); err != nil {
				t.Fatal(err)
			}
			res, err := r.cpu.SKINIT(base)
			if err != nil {
				t.Fatal(err)
			}
			if want := evidence.Measure(im.Bytes); res.PALMeasurement != want {
				t.Fatalf("round %d image %d: measurement is not the image hash", round, i)
			}
		}
	}
}

// TestLaunchCacheSENTERTamperAborts: after priming the cache with a genuine
// launch, an in-place corruption of the ACMod must still abort SENTER —
// the content compare refuses the cached digest, and the fresh digest fails
// signature verification.
func TestLaunchCacheSENTERTamperAborts(t *testing.T) {
	r, module, vendor := senterRig(t)
	base := place(t, r.chip, 4096)
	if _, err := r.cpu.SENTER(base, module, vendor.Public()); err != nil {
		t.Fatal(err)
	}
	module.Code[100] ^= 1
	if _, err := r.cpu.SENTER(base, module, vendor.Public()); err == nil {
		t.Fatal("SENTER accepted a tampered ACMod after a cached genuine launch")
	}
}

// TestLaunchCacheSENTERRepeatIdentical mirrors the SKINIT test on the
// Intel path, where the PAL hash runs on the CPU (HashOnCPU) and the TPM's
// ACMod digest feeds signature verification.
func TestLaunchCacheSENTERRepeatIdentical(t *testing.T) {
	r, module, vendor := senterRig(t)
	base := place(t, r.chip, 4096)
	first, err := r.cpu.SENTER(base, module, vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.cpu.SENTER(base, module, vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	if first.PALMeasurement != second.PALMeasurement ||
		first.PCR17 != second.PCR17 || first.PCR18 != second.PCR18 {
		t.Fatal("cached SENTER diverged from the first launch")
	}
	img, _ := r.chip.Memory().ReadRaw(first.Region.Base, first.Region.Size)
	if want := evidence.Measure(img); first.PALMeasurement != want {
		t.Fatal("SENTER measurement is not the PAL hash")
	}
}
