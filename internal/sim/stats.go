package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Sample accumulates duration observations across repeated trials of an
// experiment and reports the summary statistics the paper publishes
// (averages over 100 runs in Figure 2, averages with standard deviation over
// 20 trials in Figure 3 and Table 2).
type Sample struct {
	values []time.Duration
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) { s.values = append(s.values, d) }

// N returns the number of observations recorded.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean of the observations, or 0 if empty.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.values {
		sum += v
	}
	return sum / time.Duration(len(s.values))
}

// Stdev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two observations.
func (s *Sample) Stdev() time.Duration {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, v := range s.values {
		d := float64(v) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss / float64(n-1)))
}

// Min returns the smallest observation, or 0 if empty.
func (s *Sample) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or 0 if empty.
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy; it returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	return s.Percentiles(p)[0]
}

// Percentiles computes several percentiles with a single sort — callers
// summarizing a distribution (mean/p50/p95/p99) would otherwise re-sort
// the sample once per rank. Degenerate samples are well-defined: an empty
// sample yields all zeros, a single observation yields that value at every
// rank, and p outside [0, 100] (including NaN) clamps to the extremes.
func (s *Sample) Percentiles(ps ...float64) []time.Duration {
	sorted := make([]time.Duration, len(s.values))
	copy(sorted, s.values)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return nearestRanks(sorted, ps)
}

// nearestRanks picks each p-th percentile out of ascending observations by
// nearest rank, with the degenerate cases Sample.Percentiles documents.
func nearestRanks(sorted []time.Duration, ps []float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(sorted) == 0 {
		return out
	}
	for i, p := range ps {
		switch {
		case !(p > 0): // includes NaN
			out[i] = sorted[0]
		case p >= 100:
			out[i] = sorted[len(sorted)-1]
		default:
			rank := int(math.Ceil(p / 100 * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			if rank > len(sorted) {
				rank = len(sorted)
			}
			out[i] = sorted[rank-1]
		}
	}
	return out
}

// WindowSize is how many recent observations a Window ranks: enough that
// its p99 has 20 observations above it, and 16 KB of durations however long
// the window runs.
const WindowSize = 2048

// Window is the fixed-size counterpart of Sample for long-running services,
// whose Sample would grow with every observation. N, Mean and Max are exact
// over the window's lifetime; percentiles are nearest-rank over the most
// recent min(N, WindowSize) observations, so up to WindowSize observations
// a Window reports exactly what a Sample would. Add is O(1) and never
// allocates. The zero value is empty, and a Window holds no pointers, so
// assigning one copies it: copy under the lock that guards the window and
// rank the copy after releasing it.
type Window struct {
	n        int
	sum, max time.Duration
	ring     [WindowSize]time.Duration
}

// Add records one observation, overwriting the oldest once the window is
// full.
func (w *Window) Add(d time.Duration) {
	if w.n == 0 || d > w.max {
		w.max = d
	}
	w.ring[w.n%WindowSize] = d
	w.n++
	w.sum += d
}

// N returns the number of observations recorded over the window's lifetime.
func (w *Window) N() int { return w.n }

// Mean returns the lifetime mean, or 0 if empty.
func (w *Window) Mean() time.Duration {
	if w.n == 0 {
		return 0
	}
	return w.sum / time.Duration(w.n)
}

// Max returns the lifetime maximum, or 0 if empty.
func (w *Window) Max() time.Duration { return w.max }

// Percentiles ranks the most recent min(N, WindowSize) observations by
// nearest rank, with Sample.Percentiles' degenerate cases. It sorts a copy
// of at most WindowSize values and leaves w unchanged.
func (w *Window) Percentiles(ps ...float64) []time.Duration {
	sorted := slices.Clone(w.ring[:min(w.n, WindowSize)])
	slices.Sort(sorted)
	return nearestRanks(sorted, ps)
}

// Millis formats a duration as fractional milliseconds with two decimals,
// the unit every table in the paper uses.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// Micros formats a duration as fractional microseconds with four decimals,
// matching Table 2's precision.
func Micros(d time.Duration) string {
	return fmt.Sprintf("%.4f", float64(d)/float64(time.Microsecond))
}
