package lpc

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"minimaltcb/internal/sim"
)

// almostEqual allows 0.5% slack for per-byte rounding in the cost model.
func almostEqual(got, want time.Duration) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	tol := want / 200
	if tol < 10*time.Microsecond {
		tol = 10 * time.Microsecond
	}
	return diff <= tol
}

// The LongWait profile must reproduce the paper's Table 1 dc5750 column.
func TestLongWaitMatchesTable1(t *testing.T) {
	tm := LongWait()
	cases := map[int]time.Duration{
		0:     0,
		4096:  11940 * time.Microsecond,
		8192:  22980 * time.Microsecond,
		16384: 45050 * time.Microsecond,
		32768: 89210 * time.Microsecond,
		65536: 177520 * time.Microsecond,
	}
	for n, want := range cases {
		got := tm.HashTransferCost(n)
		if !almostEqual(got, want) {
			t.Errorf("LongWait %d bytes: got %v, want ≈%v", n, got, want)
		}
	}
}

// The FullSpeed profile must reproduce the Tyan n3600R column.
func TestFullSpeedMatchesTable1(t *testing.T) {
	tm := FullSpeed()
	cases := map[int]time.Duration{
		4096:  560 * time.Microsecond,
		8192:  1110 * time.Microsecond,
		16384: 2210 * time.Microsecond,
		32768: 4410 * time.Microsecond,
		65536: 8820 * time.Microsecond,
	}
	for n, want := range cases {
		got := tm.HashTransferCost(n)
		if !almostEqual(got, want) {
			t.Errorf("FullSpeed %d bytes: got %v, want ≈%v", n, got, want)
		}
	}
}

func TestValidateRejectsSuperluminalBus(t *testing.T) {
	tm := Timing{HashDataPerKB: 10 * time.Microsecond} // ~100 MB/s
	if err := tm.Validate(); err == nil {
		t.Fatal("bus faster than LPC ceiling validated")
	}
	if err := (Timing{}).Validate(); err == nil {
		t.Fatal("zero per-byte cost validated")
	}
	if err := FullSpeed().Validate(); err != nil {
		t.Fatalf("FullSpeed invalid: %v", err)
	}
	if err := LongWait().Validate(); err != nil {
		t.Fatalf("LongWait invalid: %v", err)
	}
}

func TestHashTransferChargesClock(t *testing.T) {
	clock := sim.NewClock()
	bus := NewBus(clock, FullSpeed())
	d := bus.TransferHash(65536)
	if clock.Now() != d {
		t.Fatalf("clock %v != returned %v", clock.Now(), d)
	}
	if !almostEqual(d, 8820*time.Microsecond) {
		t.Fatalf("64KB transfer = %v", d)
	}
	if bus.Transferred != 65536 {
		t.Fatalf("Transferred = %d", bus.Transferred)
	}
}

func TestZeroLengthTransferIsFree(t *testing.T) {
	clock := sim.NewClock()
	bus := NewBus(clock, LongWait())
	if d := bus.TransferHash(0); d != 0 {
		t.Fatalf("empty transfer cost %v", d)
	}
	if clock.Now() != 0 {
		t.Fatalf("clock advanced %v", clock.Now())
	}
}

func TestCommandCost(t *testing.T) {
	clock := sim.NewClock()
	bus := NewBus(clock, FullSpeed())
	d := bus.Command(30, 20)
	want := FullSpeed().CommandOverhead + 50*FullSpeed().HashDataPerKB/1024
	if d != want {
		t.Fatalf("Command = %v, want %v", d, want)
	}
	if bus.Transferred != 50 {
		t.Fatalf("Transferred = %d", bus.Transferred)
	}
}

func TestCommandFallsBackToHashRate(t *testing.T) {
	// With CommandPerKB unset, ordinary commands pay the hash-data rate.
	tm := Timing{
		HashStartEnd:    time.Millisecond,
		HashDataPerKB:   1024 * time.Microsecond, // 1 µs/byte
		CommandOverhead: 0,
	}
	clock := sim.NewClock()
	bus := NewBus(clock, tm)
	if d := bus.Command(512, 512); d != 1024*time.Microsecond {
		t.Fatalf("fallback command cost %v, want 1.024ms", d)
	}
}

func TestLocality(t *testing.T) {
	bus := NewBus(sim.NewClock(), FullSpeed())
	if bus.Locality() != 0 {
		t.Fatalf("initial locality %d", bus.Locality())
	}
	if err := bus.SetLocality(4); err != nil {
		t.Fatal(err)
	}
	if bus.Locality() != 4 {
		t.Fatalf("locality %d after set", bus.Locality())
	}
	if err := bus.SetLocality(5); err == nil {
		t.Fatal("locality 5 accepted")
	}
	if err := bus.SetLocality(-1); err == nil {
		t.Fatal("locality -1 accepted")
	}
}

func TestHardwareLock(t *testing.T) {
	bus := NewBus(sim.NewClock(), FullSpeed())
	if bus.Holder() != -1 {
		t.Fatalf("initial holder %d", bus.Holder())
	}
	if err := bus.Acquire(0); err != nil {
		t.Fatal(err)
	}
	if err := bus.Acquire(0); err != nil {
		t.Fatalf("re-acquire by holder: %v", err)
	}
	if err := bus.Acquire(1); !errors.Is(err, ErrLocked) {
		t.Fatalf("contended acquire: %v", err)
	}
	bus.Release(1) // non-holder release is a no-op
	if bus.Holder() != 0 {
		t.Fatal("non-holder release dropped the lock")
	}
	bus.Release(0)
	if err := bus.Acquire(1); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// Property: transfer cost is monotone in size and exactly linear past zero.
func TestHashTransferLinearityProperty(t *testing.T) {
	tm := LongWait()
	f := func(a, b uint16) bool {
		na, nb := int(a)+1, int(b)+1
		ca, cb := tm.HashTransferCost(na), tm.HashTransferCost(nb)
		if na < nb && ca >= cb {
			return false
		}
		// Linearity: cost(na)+cost(nb) == cost(na+nb) + one extra
		// framing, up to 2 ns of integer-division rounding.
		sum := ca + cb
		joint := tm.HashTransferCost(na+nb) + tm.HashStartEnd
		diff := sum - joint
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2*time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
