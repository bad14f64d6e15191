// Package sksm implements the paper's §5 hardware recommendations — the
// Secure Kernel / Secure Machine extensions that never shipped in silicon:
//
//   - SECB, the Secure Execution Control Block holding a PAL's resources
//     and saved state (§5.1, Figure 5(a));
//   - SLAUNCH, which protects, measures (once), and runs or resumes a PAL
//     (§5.1, §5.6, Figure 7);
//   - the hardware context switch: preemption timer and SYIELD save state
//     to the SECB and seclude the PAL's pages instead of sealing state
//     through the TPM (§5.3);
//   - SFREE and SKILL termination (§5.5);
//   - sePCR binding for measurement, sealed storage and attestation of
//     concurrent PALs (§5.4).
//
// The package composes the primitives of internal/cpu, internal/chipset and
// internal/tpm; the latency win over internal/sea — six orders of magnitude
// on context switches (§5.7) — is the paper's headline result.
package sksm

import (
	"fmt"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/tpm"
)

// State is a PAL's position in the life cycle of Figure 6.
type State int

// Life-cycle states (Figure 6).
const (
	StateStart State = iota
	StateProtect
	StateMeasure
	StateExecute
	StateSuspend
	StateDone
)

// String names the state as in Figure 6.
func (s State) String() string {
	switch s {
	case StateStart:
		return "Start"
	case StateProtect:
		return "Protect"
	case StateMeasure:
		return "Measure"
	case StateExecute:
		return "Execute"
	case StateSuspend:
		return "Suspend"
	case StateDone:
		return "Done"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// SECB is the Secure Execution Control Block (Figure 5(a)). The untrusted
// OS allocates it and the PAL's memory; the hardware (this package's
// Manager) is the only writer of the protected fields once SLAUNCH runs.
//
// Per §5.1 the SECB and the PAL are contiguous in memory and both are
// covered by the access-control table: the block occupies the page
// directly below the PAL's region (SECBRegion), and the suspended CPU
// state is serialized into that page by the context-switch microcode —
// the Go-side CPUState field is only the working copy.
type SECB struct {
	// Region is the PAL's allocated pages. NewSECB copies the image to
	// its base, and data and stack space follow the binary. SLAUNCH
	// measures and enters the SLB it finds there once the pages are
	// protected: the header at the base declares the SLB's length, which
	// must fit the region, and its entry point.
	Region mem.Region
	// SECBRegion is the page holding the hardware-written control block,
	// contiguous with and directly below Region.
	SECBRegion mem.Region

	// MeasuredFlag distinguishes first launch from resume (§5.1); it is
	// honored only from the Suspend state, which prevents the untrusted
	// OS from forging it (§5.3.1).
	MeasuredFlag bool
	// Measurement is SHA1 of the SLB in the protected pages, set during
	// Measure.
	Measurement tpm.Digest
	// SePCRHandle is the TPM register bound at first launch (§5.4.1).
	SePCRHandle int
	// PreemptTimer is the execution quantum the OS configured; zero
	// means run to completion (§5.3.1).
	PreemptTimer time.Duration

	// CPUState is the saved architectural state while suspended.
	CPUState cpu.ArchState
	// OwnerCPU is the core executing the PAL, or -1.
	OwnerCPU int
	// State tracks the Figure 6 life cycle.
	State State

	// Input and Output are the PAL's I/O channels, served over the SVC
	// ABI by the manager.
	Input  []byte
	Output []byte
	// ExitStatus is r0 at exit.
	ExitStatus uint32

	// JoinedCPUs lists cores joined to the PAL beyond the owner (§6
	// multicore PALs); cleared on suspension.
	JoinedCPUs []int

	// Slices counts executed time slices; Resumes counts hardware
	// context-switch resumes (statistics for the benchmarks).
	Slices, Resumes int

	// CrashID is the flight-recorder bundle recorded for this SECB (0 =
	// none). Set on the fault path so the later SKILL does not record the
	// same incident twice.
	CrashID uint64

	// entry is the entry offset SLAUNCH read from the SLB header; joined
	// cores start there too.
	entry uint16
}

// fullRegion is the contiguous span the access-control table protects:
// the SECB page followed by the PAL's pages.
func (s *SECB) fullRegion() mem.Region {
	if s.SECBRegion.Size == 0 {
		return s.Region // forged/legacy SECBs without a control page
	}
	return mem.Region{Base: s.SECBRegion.Base, Size: s.SECBRegion.Size + s.Region.Size}
}
