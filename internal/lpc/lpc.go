// Package lpc models the Low Pin Count bus that connects the TPM to the
// rest of an x86 platform.
//
// Table 1 of the paper is, at heart, a measurement of this bus: SKINIT
// streams the entire SLB to the TPM as a TPM_HASH_START / TPM_HASH_DATA* /
// TPM_HASH_END command sequence, and the TPM is allowed to stall each
// command for the LPC "long wait" period. On the HP dc5750 the TPM does
// exactly that, turning a 3.8 ms best-case 64 KB transfer (at the 16.67 MB/s
// LPC ceiling) into 177.52 ms; on the TPM-less Tyan n3600R the same
// transfer takes 8.82 ms, which the paper takes as representative of a
// future full-bus-speed TPM. The Timing struct captures those two knobs —
// per-command data latency and fixed start/end framing — so each platform
// profile reproduces its measured line exactly.
package lpc

import (
	"errors"
	"fmt"
	"time"

	"minimaltcb/internal/sim"
)

// Timing parameterizes the bus + TPM-wait-state cost model.
type Timing struct {
	// HashStartEnd is the combined fixed cost of the TPM_HASH_START and
	// TPM_HASH_END commands framing a measured transfer.
	HashStartEnd time.Duration
	// HashDataPerKB is the effective cost of moving 1024 bytes of
	// TPM_HASH_DATA payload, including any long-wait cycles the TPM
	// inserts. Costs are accounted per KB because the per-byte cost is a
	// fraction of a nanosecond on a fast bus.
	HashDataPerKB time.Duration
	// CommandOverhead is the framing cost of one ordinary TPM command
	// (request out + response in), excluding the TPM's own compute time.
	CommandOverhead time.Duration
	// CommandPerKB is the per-KB payload cost of ordinary commands.
	// Unlike TPM_HASH_DATA, ordinary command payloads move at normal
	// LPC speed even on chips that wait-state the hash sequence; zero
	// falls back to HashDataPerKB.
	CommandPerKB time.Duration
	// BytesPerCommand is how many payload bytes one TPM_HASH_DATA carries
	// (the spec allows one to four); only used for reporting.
	BytesPerCommand int
}

// MaxLPCBandwidth is the theoretical ceiling of the LPC bus, 16.67 MB/s
// (Intel LPC interface specification 1.1). Profiles cannot beat it.
const MaxLPCBandwidth = 16.67e6

// FullSpeed returns the timing of a bus whose TPM inserts no wait states,
// i.e. the Tyan n3600R behaviour: ~0.01 ms framing + 0.1377 ms/KB.
func FullSpeed() Timing {
	return Timing{
		HashStartEnd:    5 * time.Microsecond,
		HashDataPerKB:   137700 * time.Nanosecond, // 0.1377 ms/KB
		CommandOverhead: 10 * time.Microsecond,
		CommandPerKB:    137700 * time.Nanosecond,
		BytesPerCommand: 4,
	}
}

// LongWait returns the timing of a bus whose TPM consumes most of the long
// wait cycle on every TPM_HASH_DATA command — the HP dc5750 behaviour:
// 0.901 ms framing + 2.75968 ms/KB, which reproduces the paper's
// 11.94/22.98/45.05/89.21/177.52 ms SKINIT ladder.
func LongWait() Timing {
	return Timing{
		HashStartEnd:    8965 * 100 * time.Nanosecond, // 0.8965 ms
		HashDataPerKB:   2759700 * time.Nanosecond,    // 2.7597 ms/KB
		CommandOverhead: 150 * time.Microsecond,
		CommandPerKB:    137700 * time.Nanosecond, // ordinary commands skip the long wait
		BytesPerCommand: 4,
	}
}

// Validate checks the timing is physically plausible: the data rate must
// not exceed the LPC ceiling.
func (t Timing) Validate() error {
	if t.HashDataPerKB <= 0 {
		return errors.New("lpc: non-positive per-KB cost")
	}
	rate := 1024 * float64(time.Second) / float64(t.HashDataPerKB)
	if rate > MaxLPCBandwidth {
		return fmt.Errorf("lpc: %.1f MB/s exceeds the 16.67 MB/s LPC ceiling", rate/1e6)
	}
	return nil
}

// HashTransferCost returns the virtual time to stream n bytes to the TPM
// via TPM_HASH_START/DATA/END. Zero bytes cost nothing: SKINIT of an empty
// SLB does not engage the hash sequence (Table 1's 0 KB row is ~0 ms).
func (t Timing) HashTransferCost(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return t.HashStartEnd + time.Duration(n)*t.HashDataPerKB/1024
}

// Bus is an LPC bus instance bound to a clock, with the hardware TPM-access
// lock of §5.4.5: with multiple CPUs running PALs concurrently, TPM access
// must be arbitrated in hardware rather than by (untrusted) software locks.
type Bus struct {
	clock    *sim.Clock
	timing   Timing
	locality int
	lockedBy int // CPU holding the TPM lock, or -1
	// Transferred accumulates total bytes moved, for reporting.
	Transferred int64
}

// ErrLocked is returned when a CPU attempts TPM access while another CPU
// holds the hardware lock.
var ErrLocked = errors.New("lpc: TPM bus locked by another CPU")

// NewBus creates a bus with the given timing on the given clock.
func NewBus(clock *sim.Clock, timing Timing) *Bus {
	return &Bus{clock: clock, timing: timing, lockedBy: -1}
}

// Timing returns the bus cost model.
func (b *Bus) Timing() Timing { return b.timing }

// Clock returns the clock the bus charges.
func (b *Bus) Clock() *sim.Clock { return b.clock }

// Locality returns the currently asserted TPM locality (0–4). Locality 4 is
// hardware-only: the CPU asserts it during late launch, which is what
// authorizes the dynamic-PCR reset.
func (b *Bus) Locality() int { return b.locality }

// SetLocality asserts a locality on the bus. Values outside 0–4 error.
func (b *Bus) SetLocality(l int) error {
	if l < 0 || l > 4 {
		return fmt.Errorf("lpc: invalid locality %d", l)
	}
	b.locality = l
	return nil
}

// Acquire takes the hardware TPM lock for cpu. Re-acquisition by the holder
// is idempotent; contention returns ErrLocked (the caller retries when the
// holder releases — §5.4.5's "all other CPUs learn that the TPM lock is set
// and wait").
func (b *Bus) Acquire(cpu int) error {
	if b.lockedBy != -1 && b.lockedBy != cpu {
		return fmt.Errorf("%w (held by CPU%d, wanted by CPU%d)", ErrLocked, b.lockedBy, cpu)
	}
	b.lockedBy = cpu
	return nil
}

// Release drops the hardware TPM lock if cpu holds it.
func (b *Bus) Release(cpu int) {
	if b.lockedBy == cpu {
		b.lockedBy = -1
	}
}

// Holder returns the CPU holding the TPM lock, or -1.
func (b *Bus) Holder() int { return b.lockedBy }

// TransferHash charges the clock for streaming n bytes to the TPM with one
// TPM_HASH_* sequence and returns the elapsed bus time. The charge is per
// sequence (HashStartEnd) plus per byte, so a launch makes one call over
// its whole SLB however many pieces it hands the TPM.
func (b *Bus) TransferHash(n int) time.Duration {
	d := b.timing.HashTransferCost(n)
	b.clock.Advance(d)
	b.Transferred += int64(n)
	return d
}

// Command charges the clock for an ordinary TPM command exchange of the
// given request and response payload sizes and returns the elapsed time.
// The TPM's own compute latency is charged separately by the TPM model.
func (b *Bus) Command(reqLen, respLen int) time.Duration {
	perKB := b.timing.CommandPerKB
	if perKB == 0 {
		perKB = b.timing.HashDataPerKB
	}
	d := b.timing.CommandOverhead + time.Duration(reqLen+respLen)*perKB/1024
	b.clock.Advance(d)
	b.Transferred += int64(reqLen + respLen)
	return d
}
