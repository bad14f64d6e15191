package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Stdev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample must report zeros")
	}
	if s.Percentile(50) != 0 {
		t.Fatal("empty sample percentile must be 0")
	}
}

func TestSampleMean(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{10, 20, 30} {
		s.Add(v * time.Millisecond)
	}
	if got := s.Mean(); got != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", got)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestSampleStdev(t *testing.T) {
	var s Sample
	// Values 2,4,4,4,5,5,7,9 have sample stdev sqrt(32/7) ≈ 2.138.
	for _, v := range []time.Duration{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v * time.Second)
	}
	got := float64(s.Stdev()) / float64(time.Second)
	if got < 2.13 || got > 2.15 {
		t.Fatalf("stdev = %v s, want ≈2.138 s", got)
	}
}

func TestSampleStdevSingleValue(t *testing.T) {
	var s Sample
	s.Add(time.Second)
	if s.Stdev() != 0 {
		t.Fatal("stdev of single observation must be 0")
	}
}

func TestSampleMinMax(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{5, 1, 9, 3} {
		s.Add(v)
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSamplePercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
}

func TestSamplePercentilesBatch(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i))
	}
	got := s.Percentiles(50, 95, 99)
	want := []time.Duration{50, 95, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The batch must agree with the single-rank method.
	for _, p := range []float64{0, 1, 25, 50, 99, 100} {
		if b := s.Percentiles(p)[0]; b != s.Percentile(p) {
			t.Fatalf("Percentiles(%v) = %v, Percentile = %v", p, b, s.Percentile(p))
		}
	}
}

func TestSamplePercentilesDegenerate(t *testing.T) {
	var empty Sample
	for i, v := range empty.Percentiles(50, 95, 99) {
		if v != 0 {
			t.Fatalf("empty sample rank %d = %v", i, v)
		}
	}

	var one Sample
	one.Add(7 * time.Millisecond)
	for i, v := range one.Percentiles(0, 50, 100) {
		if v != 7*time.Millisecond {
			t.Fatalf("single-value sample rank %d = %v", i, v)
		}
	}

	// Out-of-range and NaN ranks clamp to the extremes; no index panics.
	var s Sample
	s.Add(1)
	s.Add(2)
	got := s.Percentiles(-50, math.NaN(), 150)
	if got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("clamped ranks = %v", got)
	}

	if out := s.Percentiles(); len(out) != 0 {
		t.Fatalf("no-rank call returned %v", out)
	}
}

// Property: Min <= Mean <= Max for any non-empty sample, and the mean of n
// copies of x is x.
func TestSampleOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		return s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleConstantProperty(t *testing.T) {
	f := func(x uint32, n uint8) bool {
		if n == 0 {
			return true
		}
		var s Sample
		for i := 0; i < int(n); i++ {
			s.Add(time.Duration(x))
		}
		return s.Mean() == time.Duration(x) && s.Stdev() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMillisFormatting(t *testing.T) {
	if got := Millis(177520 * time.Microsecond); got != "177.52" {
		t.Fatalf("Millis = %q, want 177.52", got)
	}
	if got := Millis(0); got != "0.00" {
		t.Fatalf("Millis(0) = %q", got)
	}
}

func TestMicrosFormatting(t *testing.T) {
	if got := Micros(558 * time.Nanosecond); got != "0.5580" {
		t.Fatalf("Micros = %q, want 0.5580", got)
	}
}

// windowRanks are the percentile ranks the Window tests compare, degenerate
// ones included.
var windowRanks = []float64{math.NaN(), -5, 0, 1, 50, 95, 99, 100, 150}

// sameSummary reports whether w summarizes exactly like s.
func sameSummary(w *Window, s *Sample) bool {
	if w.N() != s.N() || w.Mean() != s.Mean() || w.Max() != s.Max() {
		return false
	}
	wp, sp := w.Percentiles(windowRanks...), s.Percentiles(windowRanks...)
	for i := range wp {
		if wp[i] != sp[i] {
			return false
		}
	}
	return true
}

// Property: up to WindowSize observations, a Window is bit-identical to a
// Sample fed the same values — negative durations and every degenerate rank
// included.
func TestWindowMatchesSampleUpToSize(t *testing.T) {
	f := func(raw []int32) bool {
		var w Window
		var s Sample
		for _, v := range raw {
			w.Add(time.Duration(v))
			s.Add(time.Duration(v))
		}
		return sameSummary(&w, &s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	rng := NewRNG(7)
	var w Window
	var s Sample
	for i := 0; i < WindowSize; i++ {
		d := time.Duration(rng.Intn(1_000_000))
		w.Add(d)
		s.Add(d)
	}
	if !sameSummary(&w, &s) {
		t.Fatalf("full window differs from sample: n=%d mean=%v/%v max=%v/%v",
			w.N(), w.Mean(), s.Mean(), w.Max(), s.Max())
	}
}

// Past WindowSize observations, N, Mean and Max stay exact over the whole
// lifetime while the percentiles equal a Sample of the last WindowSize.
func TestWindowBeyondSize(t *testing.T) {
	for _, n := range []int{WindowSize + 1, 2*WindowSize - 3, 10 * WindowSize} {
		rng := NewRNG(uint64(n))
		var w Window
		var all Sample
		vals := make([]time.Duration, n)
		for i := range vals {
			// A drifting distribution, so a window ranking stale or
			// misplaced observations shows in its percentiles; the
			// lifetime max sits early, long evicted from the window.
			vals[i] = time.Duration(i*10 + rng.Intn(5000))
			if i == 3 {
				vals[i] = time.Hour
			}
			w.Add(vals[i])
			all.Add(vals[i])
		}
		if w.N() != n || w.Mean() != all.Mean() || w.Max() != time.Hour {
			t.Fatalf("n=%d: lifetime N/mean/max = %d/%v/%v, want %d/%v/%v",
				n, w.N(), w.Mean(), w.Max(), n, all.Mean(), time.Hour)
		}
		var last Sample
		for _, v := range vals[n-WindowSize:] {
			last.Add(v)
		}
		wp, lp := w.Percentiles(windowRanks...), last.Percentiles(windowRanks...)
		for i := range wp {
			if wp[i] != lp[i] {
				t.Fatalf("n=%d: rank %v = %v, want %v over the last %d", n, windowRanks[i], wp[i], lp[i], WindowSize)
			}
		}
	}
}

func TestWindowEmptyAndCopy(t *testing.T) {
	var w Window
	if w.N() != 0 || w.Mean() != 0 || w.Max() != 0 {
		t.Fatal("empty window must report zeros")
	}
	for i, v := range w.Percentiles(50, 95, 99) {
		if v != 0 {
			t.Fatalf("empty window rank %d = %v", i, v)
		}
	}
	w.Add(3)
	snap := w
	w.Add(9)
	if snap.N() != 1 || snap.Max() != 3 || snap.Percentiles(100)[0] != 3 {
		t.Fatalf("copy shares state with the live window: n=%d max=%v", snap.N(), snap.Max())
	}

	// Ranking must not reorder the ring: the next Add after it still
	// evicts the oldest observation.
	var r Window
	for i := WindowSize; i > 0; i-- {
		r.Add(time.Duration(i))
	}
	r.Percentiles(50)
	r.Add(0)
	if got := r.Percentiles(100)[0]; got != WindowSize-1 {
		t.Fatalf("after evicting the oldest (%d), the window's p100 = %v, want %d", WindowSize, got, WindowSize-1)
	}
}

func TestWindowAddDoesNotAllocate(t *testing.T) {
	var w Window
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(3*WindowSize, func() {
		d += 7
		w.Add(d)
	}); allocs != 0 {
		t.Fatalf("Window.Add allocated %.1f times per call", allocs)
	}
}
