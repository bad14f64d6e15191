package tpm

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/sim"
)

// testTPM builds a functional TPM with zero-latency profile and small keys.
func testTPM(t *testing.T, cfg Config) (*TPM, *sim.Clock, *lpc.Bus) {
	t.Helper()
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 1024
	}
	clock := sim.NewClock()
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := New(clock, bus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return chip, clock, bus
}

func TestBootPCRValues(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	for i := 0; i < evidence.FirstDynamicPCR; i++ {
		v, err := chip.PCRValue(i)
		if err != nil || v != (Digest{}) {
			t.Fatalf("static PCR %d = %x after boot", i, v)
		}
	}
	for i := evidence.FirstDynamicPCR; i < evidence.NumPCRs; i++ {
		v, _ := chip.PCRValue(i)
		for _, b := range v {
			if b != 0xff {
				t.Fatalf("dynamic PCR %d = %x after boot, want all 0xff", i, v)
			}
		}
	}
}

func TestExtendChaining(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	m1 := evidence.Measure([]byte("event one"))
	m2 := evidence.Measure([]byte("event two"))
	v1, err := chip.Extend(0, m1)
	if err != nil {
		t.Fatal(err)
	}
	// v1 = SHA1(0^20 || m1)
	h := sha1.New()
	h.Write(make([]byte, DigestSize))
	h.Write(m1[:])
	var want Digest
	copy(want[:], h.Sum(nil))
	if v1 != want {
		t.Fatalf("extend result %x, want %x", v1, want)
	}
	v2, _ := chip.Extend(0, m2)
	h = sha1.New()
	h.Write(v1[:])
	h.Write(m2[:])
	copy(want[:], h.Sum(nil))
	if v2 != want {
		t.Fatalf("second extend %x, want %x", v2, want)
	}
	if chip.Extends() != 2 {
		t.Fatalf("Extends() = %d", chip.Extends())
	}
}

func TestExtendOrderMatters(t *testing.T) {
	a, _, _ := testTPM(t, Config{})
	b, _, _ := testTPM(t, Config{})
	m1, m2 := evidence.Measure([]byte("x")), evidence.Measure([]byte("y"))
	a.Extend(3, m1)
	a.Extend(3, m2)
	b.Extend(3, m2)
	b.Extend(3, m1)
	va, _ := a.PCRValue(3)
	vb, _ := b.PCRValue(3)
	if va == vb {
		t.Fatal("PCR value insensitive to extension order")
	}
}

func TestExtendBadIndex(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	if _, err := chip.Extend(-1, Digest{}); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("Extend(-1): %v", err)
	}
	if _, err := chip.Extend(evidence.NumPCRs, Digest{}); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("Extend(24): %v", err)
	}
	if _, err := chip.PCRRead(99); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("PCRRead(99): %v", err)
	}
}

func TestHashSequenceRequiresLocality4(t *testing.T) {
	chip, _, bus := testTPM(t, Config{})
	if err := chip.HashStart(); !errors.Is(err, ErrLocality) {
		t.Fatalf("HashStart at locality 0: %v", err)
	}
	bus.SetLocality(4)
	if err := chip.HashStart(); err != nil {
		t.Fatal(err)
	}
}

func TestHashSequenceResetsDynamicPCRsAndExtends(t *testing.T) {
	chip, _, bus := testTPM(t, Config{})
	pal := []byte("this is the PAL binary")
	bus.SetLocality(4)
	if err := chip.HashStart(); err != nil {
		t.Fatal(err)
	}
	// Dynamic PCRs must now read zero (reset), distinguishing a dynamic
	// reset from the post-boot -1.
	for i := evidence.FirstDynamicPCR; i < evidence.NumPCRs; i++ {
		v, _ := chip.PCRValue(i)
		if v != (Digest{}) {
			t.Fatalf("dynamic PCR %d = %x after HASH_START", i, v)
		}
	}
	if err := chip.HashData(pal[:10]); err != nil {
		t.Fatal(err)
	}
	if err := chip.HashData(pal[10:]); err != nil {
		t.Fatal(err)
	}
	meas, got, err := chip.HashEnd()
	if err != nil {
		t.Fatal(err)
	}
	if meas != evidence.Measure(pal) {
		t.Fatalf("HashEnd measurement = %x, want SHA-1 of the streamed bytes", meas)
	}
	want := evidence.ExtendDigest(Digest{}, evidence.Measure(pal))
	if got != want {
		t.Fatalf("PCR17 = %x, want extend of PAL measurement %x", got, want)
	}
	v, _ := chip.PCRValue(evidence.FirstDynamicPCR)
	if v != want {
		t.Fatal("HashEnd return value differs from stored PCR17")
	}
}

func TestHashSequenceStateErrors(t *testing.T) {
	chip, _, bus := testTPM(t, Config{})
	if err := chip.HashData([]byte("x")); !errors.Is(err, ErrNotHashing) {
		t.Fatalf("HashData without start: %v", err)
	}
	if _, _, err := chip.HashEnd(); !errors.Is(err, ErrNotHashing) {
		t.Fatalf("HashEnd without start: %v", err)
	}
	bus.SetLocality(4)
	chip.HashStart()
	if err := chip.HashStart(); !errors.Is(err, ErrAlreadyHashed) {
		t.Fatalf("double HashStart: %v", err)
	}
}

func TestBootResetsHashState(t *testing.T) {
	chip, _, bus := testTPM(t, Config{})
	bus.SetLocality(4)
	chip.HashStart()
	chip.HashData([]byte("partial"))
	chip.Boot()
	if _, _, err := chip.HashEnd(); !errors.Is(err, ErrNotHashing) {
		t.Fatalf("hash survived reboot: %v", err)
	}
	v, _ := chip.PCRValue(evidence.FirstDynamicPCR)
	if v[0] != 0xff {
		t.Fatal("dynamic PCR not -1 after reboot")
	}
}

// TestBootReplaysRandomStream: power-on restarts the chip's RNG from its
// seed, so every boot replays the same GetRandom stream — what lets a
// rebooted machine stand in for a freshly built one.
func TestBootReplaysRandomStream(t *testing.T) {
	chip, _, _ := testTPM(t, Config{Seed: 11})
	first, err := chip.GetRandom(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chip.GetRandom(100); err != nil { // move the stream on
		t.Fatal(err)
	}
	chip.Boot()
	again, err := chip.GetRandom(64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("stream after reboot % x, want the first boot's % x", again[:8], first[:8])
	}
}

// TestBootAllocs pins a reboot of a booted TPM at zero allocations: the
// lab machines the experiments reuse reboot on every acquisition.
func TestBootAllocs(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	if allocs := testing.AllocsPerRun(100, chip.Boot); allocs != 0 {
		t.Fatalf("Boot allocates %v allocs/op, want 0", allocs)
	}
}

func TestGetRandom(t *testing.T) {
	chip, _, _ := testTPM(t, Config{Seed: 5})
	b1, err := chip.GetRandom(128)
	if err != nil || len(b1) != 128 {
		t.Fatalf("GetRandom: %d bytes, %v", len(b1), err)
	}
	b2, _ := chip.GetRandom(128)
	same := true
	for i := range b1 {
		if b1[i] != b2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two GetRandom calls returned identical bytes")
	}
	if _, err := chip.GetRandom(-1); err == nil {
		t.Fatal("negative GetRandom accepted")
	}
	if b, err := chip.GetRandom(0); err != nil || len(b) != 0 {
		t.Fatalf("GetRandom(0): %v %v", b, err)
	}
}

func TestGetRandomDeterministicPerSeed(t *testing.T) {
	a, _, _ := testTPM(t, Config{Seed: 9})
	b, _, _ := testTPM(t, Config{Seed: 9})
	x, _ := a.GetRandom(32)
	y, _ := b.GetRandom(32)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same seed produced different GetRandom streams")
		}
	}
}

func TestCompositeDependsOnSelectionAndValues(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	c1, err := chip.Composite(Selection{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := chip.Composite(Selection{1, 0})
	if c1 == c2 {
		t.Fatal("composite insensitive to selection order")
	}
	chip.Extend(0, evidence.Measure([]byte("m")))
	c3, _ := chip.Composite(Selection{0, 1})
	if c3 == c1 {
		t.Fatal("composite insensitive to PCR change")
	}
	if _, err := chip.Composite(Selection{77}); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("composite of bad index: %v", err)
	}
}

func TestOperationLatenciesCharged(t *testing.T) {
	clock := sim.NewClock()
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := New(clock, bus, Config{
		KeyBits: 1024,
		Profile: Profile{
			Name:          "test",
			ExtendLatency: 10 * time.Millisecond,
			UnsealLatency: 500 * time.Millisecond,
			QuoteLatency:  300 * time.Millisecond,
			SealBase:      20 * time.Millisecond,
			RandomBase:    5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	chip.Extend(0, Digest{})
	d := clock.Now() - start
	if d < 10*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("Extend charged %v, want ≈10ms", d)
	}
	start = clock.Now()
	chip.GetRandom(16)
	d = clock.Now() - start
	if d < 5*time.Millisecond || d > 6*time.Millisecond {
		t.Fatalf("GetRandom charged %v, want ≈5ms", d)
	}
}

func TestPCRReadMatchesValue(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	chip.Extend(5, evidence.Measure([]byte("m")))
	v1, _ := chip.PCRValue(5)
	v2, err := chip.PCRRead(5)
	if err != nil || v1 != v2 {
		t.Fatalf("PCRRead %x != PCRValue %x (%v)", v2, v1, err)
	}
}

// Property: a PCR's value after extending a sequence of measurements equals
// the left fold of the chain function — i.e. the register is append-only
// and order-preserving.
func TestExtendFoldProperty(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	f := func(msgs [][]byte) bool {
		chip.Boot()
		want := Digest{}
		for _, m := range msgs {
			meas := evidence.Measure(m)
			chip.Extend(2, meas)
			want = evidence.ExtendDigest(want, meas)
		}
		got, _ := chip.PCRValue(2)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
