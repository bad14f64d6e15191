package sksm

import (
	"errors"
	"fmt"
	"time"

	"minimaltcb/internal/audit"
	"minimaltcb/internal/chipset"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/obs/prof"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// Manager is the recommended-hardware extension: its methods are the
// microcode of the proposed SLAUNCH/SYIELD/SFREE/SKILL instructions plus
// the OS-side driver that sequences them.
type Manager struct {
	Kernel *osker.Kernel
	// Trace, when set, records a dual-timestamp span per instruction
	// (SLAUNCH, suspend, SFREE, SKILL, per-slice) with the machine's TPM
	// command spans nested underneath. Nil disables tracing.
	Trace *obs.Scope
	// Prof, when set, collects exact virtual-cycle attribution for every
	// PAL this manager launches: the profiler is installed on the core at
	// SLAUNCH and removed with the rest of the execution context at
	// suspend/SFREE. Nil disables profiling at zero cost beyond the CPU's
	// per-instruction nil check.
	Prof *prof.CPUProfiler
	// Flight, when set, records a crash bundle when a PAL faults and when
	// a suspended PAL is SKILLed without one (violation kills). Nil
	// disables the flight recorder.
	Flight *prof.FlightRecorder
	// Job is the identity of the job currently executing on this machine,
	// stamped into crash bundles. The multi-tenant service maintains it
	// under the same lock that serializes the machine.
	Job prof.JobInfo
	// Chaos, when set, injects scheduler-level faults (internal/chaos):
	// per-slice quantum collapse (slice-expiry storms) and spurious PAL
	// faults after a slice. Nil costs one pointer check per slice.
	Chaos ChaosHook
	// Audit, when set, records trust-relevant lifecycle events (launch,
	// fault, SKILL, SFREE, and — via the TPM hook — every sePCR and
	// sealing-storage transition) into the machine's tamper-evident log,
	// stamped with the Job identity. Nil costs one pointer check per event.
	// Installing it as the TPM's audit hook (tpm.SetAuditHook) is the
	// embedder's job; palsvc.New does both together.
	Audit *audit.Recorder
}

// TPMAuditEvent implements tpm.AuditHook: the chip reports the bare state
// transition, the manager stamps the identity of the PAL it is currently
// running. Called under the machine lock, like every TPM command.
func (mg *Manager) TPMAuditEvent(op string, handle int, value tpm.Digest) {
	if mg.Audit == nil {
		return
	}
	mg.Audit.Record(audit.Event{
		Type:   op,
		Handle: handle,
		Value:  audit.Digest20(value),
		Tenant: mg.Job.Tenant,
		Trace:  mg.Job.Trace,
	})
}

// auditEvent records one manager-level lifecycle event with Job identity.
func (mg *Manager) auditEvent(typ string, handle int, detail string, image tpm.Digest) {
	if mg.Audit == nil {
		return
	}
	mg.Audit.Record(audit.Event{
		Type:   typ,
		Handle: handle,
		Detail: detail,
		Image:  audit.Digest20(image),
		Tenant: mg.Job.Tenant,
		Trace:  mg.Job.Trace,
	})
}

// ChaosHook injects scheduler-level faults into RunSlice. SliceQuantum may
// shrink the preemption quantum for one slice; SliceFault, consulted after
// a slice that neither halted nor faulted, may declare a spurious fault —
// the manager then follows its real fault path (suspend, flight-record,
// ErrPALFault).
type ChaosHook interface {
	SliceQuantum(q time.Duration) time.Duration
	SliceFault() error
}

// traced wraps one instruction in a span: the ambient context moves to the
// span for its duration so TPM command spans issued by the microcode nest
// under it.
func (mg *Manager) traced(name string, f func() error, attrs ...obs.Attr) error {
	if !mg.Trace.Enabled() {
		return f()
	}
	sp := mg.Trace.Start(name, "sksm")
	for _, a := range attrs {
		sp.Attr(a.Key, a.Val)
	}
	prev := mg.Trace.Swap(sp.Context())
	err := f()
	mg.Trace.Swap(prev)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	mg.Trace.End(sp)
	return err
}

// NewManager enables the recommendations on a machine. The machine's TPM
// must provision sePCRs (platform.Recommended does this).
func NewManager(k *osker.Kernel) (*Manager, error) {
	if !k.Machine.Chipset.HasTPM() {
		return nil, errors.New("sksm: recommended hardware requires a TPM")
	}
	if k.Machine.TPM().NumSePCRs() == 0 {
		return nil, errors.New("sksm: TPM has no sePCRs; build the platform with platform.Recommended")
	}
	return &Manager{Kernel: k}, nil
}

// FreeSePCRs reports how many sePCRs are currently in the Free state — the
// platform's live admission capacity for additional concurrent PALs
// (§5.6). The scan models the chipset reading bank state rather than a TPM
// command, so it advances no simulated time. Callers multiplexing one
// machine across goroutines must hold whatever lock serializes the machine
// (the simulator is single-threaded by design; see internal/sim).
func (mg *Manager) FreeSePCRs() int {
	t := mg.Kernel.Machine.TPM()
	free := 0
	for h := 0; h < t.NumSePCRs(); h++ {
		if st, err := t.SePCRStateOf(h); err == nil && st == tpm.SePCRFree {
			free++
		}
	}
	return free
}

// Errors of the instruction set.
var (
	ErrBadState = errors.New("sksm: SECB in wrong state")
	// ErrLaunchFailed is the SLAUNCH failure code: page conflict or
	// sePCR exhaustion (§5.6).
	ErrLaunchFailed = errors.New("sksm: SLAUNCH failed")
	ErrPALFault     = errors.New("sksm: PAL faulted")
)

// NewSECB is the OS resource-allocation step of Figure 6's Start state:
// allocate one control page plus pages for the image plus extraDataPages —
// SECB and PAL contiguous, per §5.1 — copy the image in, and configure the
// preemption timer.
func (mg *Manager) NewSECB(image pal.Image, extraDataPages int, quantum time.Duration) (*SECB, error) {
	imagePages := (len(image.Bytes) + mem.PageSize - 1) / mem.PageSize
	full, err := mg.Kernel.Alloc.Alloc(1 + imagePages + extraDataPages)
	if err != nil {
		return nil, err
	}
	secbRegion := mem.Region{Base: full.Base, Size: mem.PageSize}
	palRegion := mem.Region{Base: full.Base + mem.PageSize, Size: full.Size - mem.PageSize}
	if err := mg.Kernel.Machine.Chipset.Memory().WriteRaw(palRegion.Base, image.Bytes); err != nil {
		mg.Kernel.Alloc.Free(full)
		return nil, err
	}
	return &SECB{
		Region:       palRegion,
		SECBRegion:   secbRegion,
		SePCRHandle:  -1,
		PreemptTimer: quantum,
		OwnerCPU:     -1,
		State:        StateStart,
	}, nil
}

// SLAUNCH implements the proposed instruction (Figure 7): from Start it
// protects, measures and begins executing the PAL; from Suspend it
// re-protects the pages and resumes the saved state at world-switch cost.
// On failure the memory protections are rolled back and the error wraps
// ErrLaunchFailed.
func (mg *Manager) SLAUNCH(c *cpu.CPU, s *SECB) error {
	if !mg.Trace.Enabled() {
		return mg.slaunch(c, s)
	}
	return mg.traced("SLAUNCH", func() error { return mg.slaunch(c, s) },
		obs.Int("cpu", c.ID), obs.String("from", s.State.String()))
}

func (mg *Manager) slaunch(c *cpu.CPU, s *SECB) error {
	m := mg.Kernel.Machine
	switch s.State {
	case StateStart:
		// Fig. 5(b) lets a page go ALL -> CPU only at a first launch, so
		// a region with any page not in ALL — a suspended PAL's NONE
		// pages above all — is refused before anything is claimed.
		if err := regionIn(m.Chipset, s.fullRegion(), mem.AccessAll); err != nil {
			return fmt.Errorf("%w: first launch: %w", ErrLaunchFailed, err)
		}
		// Protect: the memory controller claims the pages — SECB and
		// PAL both — for this CPU ("for the memory region defined in
		// the SECB and for the SECB itself", §5.1).
		s.State = StateProtect
		if err := m.Chipset.ProtectRegion(s.fullRegion(), c.ID); err != nil {
			s.State = StateStart
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		// Measure: read the SLB from the pages just protected, taking
		// its length and entry from the header there — what is measured
		// is what runs, whatever the OS wrote or claimed before. Then
		// take the hardware TPM lock (§5.4.5 — with PALs on multiple
		// CPUs, TPM access is arbitrated in hardware, not by untrusted
		// software locks), allocate a sePCR, and stream the PAL to the
		// TPM once.
		s.State = StateMeasure
		var viewBuf [2][]byte
		slb, entry, views, err := readSLB(m.Chipset.Memory(), s.Region, viewBuf[:0])
		if err != nil {
			m.Chipset.ReleaseRegion(s.fullRegion(), c.ID)
			s.State = StateStart
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		s.Measurement = tpm.MeasureImage(views...)
		bus := m.Chipset.Bus()
		if err := bus.Acquire(c.ID); err != nil {
			m.Chipset.ReleaseRegion(s.fullRegion(), c.ID)
			s.State = StateStart
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		handle, err := m.TPM().AllocateSePCR(c.ID, s.Measurement)
		if err != nil {
			bus.Release(c.ID)
			m.Chipset.ReleaseRegion(s.fullRegion(), c.ID)
			s.State = StateStart
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		s.SePCRHandle = handle
		bus.TransferHash(slb.Size)
		bus.Release(c.ID)
		s.MeasuredFlag = true
		s.entry = entry

		// Execute: reinitialize the core to its trusted state and enter.
		c.Reset()
		m.Clock.Advance(c.Params.InitCost)
		c.EnterRegion(s.Region, entry)
		c.SetService(mg.serviceFor(s))
		if mg.Prof != nil {
			// The profiler clones an image it has not seen, so it
			// needs contiguous bytes only when the SLB spans chunks.
			image := views[0]
			if len(views) > 1 {
				image = make([]byte, 0, slb.Size)
				for _, v := range views {
					image = append(image, v...)
				}
			}
			mg.Prof.Enter(s.Measurement, pal.Image{Bytes: image, Entry: entry}, s.Region.Size, false)
			c.SetProfiler(mg.Prof)
		}
		s.OwnerCPU = c.ID
		s.State = StateExecute
		mg.auditEvent(audit.EventSLaunch, s.SePCRHandle, "", s.Measurement)
		return nil

	case StateSuspend:
		// Resume: the MeasuredFlag is honored because the pages are in
		// NONE (§5.3.1); re-protect for this CPU and reload state.
		if !s.MeasuredFlag {
			return fmt.Errorf("%w: resume of unmeasured SECB", ErrLaunchFailed)
		}
		// Fig. 5(b) lets a page go NONE -> CPU only at a resume, and only
		// a suspend leaves pages NONE with the saved state in the control
		// page directly below the PAL. Anything else — pages the OS can
		// still write, whatever its SECB struct claims — is no suspended
		// PAL. The saved state is read back from that page, never from
		// the software-visible struct: honoring one would let a forged
		// control block resume a victim PAL with attacker-chosen
		// registers and program counter.
		if s.SECBRegion.Size != mem.PageSize || s.SECBRegion.End() != s.Region.Base {
			return fmt.Errorf("%w: SECB has no protected control page", ErrLaunchFailed)
		}
		if err := regionIn(m.Chipset, s.fullRegion(), mem.AccessNone); err != nil {
			return fmt.Errorf("%w: resume: %w", ErrLaunchFailed, err)
		}
		s.State = StateProtect
		if err := m.Chipset.ProtectRegion(s.fullRegion(), c.ID); err != nil {
			s.State = StateSuspend
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		// The saved state: the hardware's copy, which the OS could not
		// have touched while the pages were NONE.
		saved, savedHandle, err := readArchState(m.Chipset.Memory(), s.SECBRegion.Base)
		if err != nil {
			m.Chipset.SecludeRegion(s.fullRegion(), c.ID)
			s.State = StateSuspend
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		if err := m.TPM().RebindSePCR(savedHandle, s.OwnerCPU, c.ID); err != nil {
			m.Chipset.SecludeRegion(s.fullRegion(), c.ID)
			s.State = StateSuspend
			return fmt.Errorf("%w: %w", ErrLaunchFailed, err)
		}
		s.SePCRHandle = savedHandle
		c.Reset()
		c.EnterRegion(s.Region, s.entry)
		c.LoadState(saved)
		c.SetService(mg.serviceFor(s))
		if mg.Prof != nil {
			mg.Prof.Enter(s.Measurement, pal.Image{}, s.Region.Size, true)
			c.SetProfiler(mg.Prof)
		}
		c.VMEnter() // the hardware context-switch cost (§5.3.2, Table 2)
		s.OwnerCPU = c.ID
		s.State = StateExecute
		s.Resumes++
		return nil

	default:
		return fmt.Errorf("%w: SLAUNCH from %v", ErrBadState, s.State)
	}
}

// regionIn checks that every page of r is in state want, the source state
// Fig. 5(b) allows for the transition SLAUNCH is about to make. It reads
// the page table only and charges no time.
func regionIn(cs *chipset.Chipset, r mem.Region, want mem.PageState) error {
	st, err := cs.RegionState(r)
	if err == nil && st != want {
		err = fmt.Errorf("pages are %v, want %v", st, want)
	}
	return err
}

// readSLB is the Measure step's read of the PAL in its protected pages:
// the header at the region's base declares the SLB's length, which must fit
// the region, and its entry point. It appends read-only views of the SLB's
// bytes where they lie (mem.Memory.Views) to dst; they must not outlive the
// launch.
func readSLB(m *mem.Memory, r mem.Region, dst [][]byte) (slb mem.Region, entry uint16, views [][]byte, err error) {
	slb, entry, err = cpu.SLBHeader(m, r.Base)
	if err != nil {
		return mem.Region{}, 0, nil, err
	}
	if slb.Size > r.Size {
		return mem.Region{}, 0, nil, fmt.Errorf("sksm: SLB header declares %d bytes, region holds %d", slb.Size, r.Size)
	}
	views, err = m.Views(dst, slb.Base, slb.Size)
	return slb, entry, views, err
}

// Suspend implements the preemption-timer expiry / SYIELD path (§5.3):
// architectural state is written to the SECB, microarchitectural state is
// cleared, and the pages transition to NONE.
func (mg *Manager) Suspend(c *cpu.CPU, s *SECB) error {
	if !mg.Trace.Enabled() {
		return mg.suspend(c, s)
	}
	return mg.traced("Suspend", func() error { return mg.suspend(c, s) },
		obs.Int("cpu", c.ID))
}

func (mg *Manager) suspend(c *cpu.CPU, s *SECB) error {
	if s.State != StateExecute || s.OwnerCPU != c.ID {
		return fmt.Errorf("%w: suspend from %v (owner CPU%d, caller CPU%d)",
			ErrBadState, s.State, s.OwnerCPU, c.ID)
	}
	s.CPUState = c.SaveState()
	if s.SECBRegion.Size != 0 {
		// Hardware writes the architectural state into the SECB page;
		// the page is about to become inaccessible to all software.
		if err := writeArchState(mg.Kernel.Machine.Chipset.Memory(),
			s.SECBRegion.Base, s.CPUState, s.SePCRHandle); err != nil {
			return err
		}
	}
	c.ClearMicroarchState() // also uninstalls the profiler hook
	mg.Prof.Leave()
	if err := mg.Kernel.Machine.Chipset.SecludeRegion(s.fullRegion(), c.ID); err != nil {
		return err
	}
	c.VMExit() // world-switch cost back to the untrusted OS
	s.State = StateSuspend
	return nil
}

// SFREE implements clean PAL termination (§5.5): the PAL has erased its
// secrets; pages return to ALL for the OS to reuse, and the sePCR
// transitions to the Quote state so untrusted code can attest the run.
func (mg *Manager) SFREE(c *cpu.CPU, s *SECB) error {
	if !mg.Trace.Enabled() {
		return mg.sfree(c, s)
	}
	return mg.traced("SFREE", func() error { return mg.sfree(c, s) },
		obs.Int("cpu", c.ID))
}

func (mg *Manager) sfree(c *cpu.CPU, s *SECB) error {
	if s.State != StateExecute || s.OwnerCPU != c.ID {
		return fmt.Errorf("%w: SFREE from %v", ErrBadState, s.State)
	}
	m := mg.Kernel.Machine
	if err := m.TPM().ReleaseSePCR(s.SePCRHandle, c.ID); err != nil {
		return err
	}
	c.ClearMicroarchState() // also uninstalls the profiler hook
	mg.Prof.Leave()
	if err := m.Chipset.ReleaseRegion(s.fullRegion(), c.ID); err != nil {
		return err
	}
	s.OwnerCPU = -1
	s.State = StateDone
	mg.auditEvent(audit.EventSFree, s.SePCRHandle, "", s.Measurement)
	return nil
}

// SKILL implements abnormal termination of a suspended, misbehaving PAL
// (§5.5): erase its pages, return them to ALL, extend the kill marker into
// its sePCR and free the register.
func (mg *Manager) SKILL(s *SECB) error {
	if !mg.Trace.Enabled() {
		return mg.skill(s)
	}
	return mg.traced("SKILL", func() error { return mg.skill(s) },
		obs.Int("sepcr", s.SePCRHandle))
}

func (mg *Manager) skill(s *SECB) error {
	if s.State != StateSuspend {
		return fmt.Errorf("%w: SKILL from %v (only suspended PALs can be killed)", ErrBadState, s.State)
	}
	// A SKILL of a PAL that never crashed is the OS declaring it
	// misbehaving (violation path). Capture the bundle now: the next
	// lines zero the pages and kill the sePCR, destroying the evidence.
	if mg.Flight != nil && s.CrashID == 0 {
		s.CrashID = mg.Flight.Record(mg.crashBundle(s, "skill", nil))
	}
	m := mg.Kernel.Machine
	full := s.fullRegion()
	if err := m.Chipset.Memory().ZeroRange(full.Base, full.Size); err != nil {
		return err
	}
	// Pages are NONE; Release from NONE is the SKILL transition.
	if err := m.Chipset.ReleaseRegion(full, -1); err != nil {
		return err
	}
	if err := m.TPM().KillSePCR(s.SePCRHandle); err != nil {
		return err
	}
	s.State = StateDone
	s.OwnerCPU = -1
	mg.auditEvent(audit.EventSKill, s.SePCRHandle, "", s.Measurement)
	return nil
}

// RunSlice executes one scheduling slice of the PAL on core c: launch or
// resume via SLAUNCH, run until halt/yield/preemption, then suspend or
// free. It returns the stop reason.
func (mg *Manager) RunSlice(c *cpu.CPU, s *SECB) (cpu.StopReason, error) {
	if !mg.Trace.Enabled() {
		return mg.runSlice(c, s)
	}
	sp := mg.Trace.Start("slice", "sksm").
		AttrInt("cpu", c.ID).AttrInt("slice", s.Slices)
	prev := mg.Trace.Swap(sp.Context())
	reason, err := mg.runSlice(c, s)
	mg.Trace.Swap(prev)
	sp.Attr("stop", reason.String())
	if err != nil {
		sp.Attr("error", err.Error())
	}
	mg.Trace.End(sp)
	return reason, err
}

func (mg *Manager) runSlice(c *cpu.CPU, s *SECB) (cpu.StopReason, error) {
	if err := mg.SLAUNCH(c, s); err != nil {
		return cpu.StopFault, err
	}
	s.Slices++
	quantum := s.PreemptTimer
	if mg.Chaos != nil {
		quantum = mg.Chaos.SliceQuantum(quantum)
	}
	reason, err := c.Run(quantum)
	if err == nil && reason != cpu.StopHalt && mg.Chaos != nil {
		// Spurious injected fault: the hardware declares a violation on a
		// PAL that was about to suspend cleanly. It takes the identical
		// path a real fault does below.
		err = mg.Chaos.SliceFault()
	}
	if mg.Prof != nil {
		mg.Prof.NoteSlice(s.Measurement, reason, err != nil)
	}
	switch {
	case err != nil:
		// Faulting PALs are suspended (their state secluded) and left
		// for the OS to SKILL — their secrets never become readable.
		// Both wraps keep the causal error in the chain (%w, not %v):
		// supervisors decide retryability via errors.As on the cause.
		if serr := mg.Suspend(c, s); serr != nil {
			return cpu.StopFault, fmt.Errorf("%w: %w (suspend also failed: %v)", ErrPALFault, err, serr)
		}
		// The suspend above saved the faulting architectural state into
		// the SECB, so the bundle sees the true registers and PC.
		if mg.Flight != nil {
			s.CrashID = mg.Flight.Record(mg.crashBundle(s, "fault", err))
		}
		mg.auditEvent(audit.EventFault, s.SePCRHandle, err.Error(), s.Measurement)
		return cpu.StopFault, fmt.Errorf("%w: %w", ErrPALFault, err)
	case reason == cpu.StopHalt:
		if err := mg.SFREE(c, s); err != nil {
			return reason, err
		}
		return reason, nil
	default: // yield or preempted
		if mg.Trace.Enabled() {
			if reason == cpu.StopPreempted {
				mg.Trace.Event("preempt", "sksm", obs.Int("cpu", c.ID))
			} else {
				mg.Trace.Event("SYIELD", "sksm", obs.Int("cpu", c.ID))
			}
		}
		if err := mg.Suspend(c, s); err != nil {
			return reason, err
		}
		return reason, nil
	}
}

// RunToCompletion drives a PAL through as many slices as needed on core c.
func (mg *Manager) RunToCompletion(c *cpu.CPU, s *SECB) error {
	for s.State != StateDone {
		if _, err := mg.RunSlice(c, s); err != nil {
			return err
		}
	}
	return nil
}

// QuoteBatchAfterExit generates the attestation for completed PALs from
// untrusted code, using the sePCR handles the PALs reported (§5.4.3):
// every SECB's sePCR becomes a Merkle leaf and the AIK signs the root once
// (tpm.QuoteSePCRBatch); one PAL is a batch of one. All SECBs are
// validated Done before any register is consumed — a rejected or failed
// batch leaves every register attestable on retry. nonces[i] is the per-job verifier
// nonce for secbs[i]; sessionID, when non-zero, names an open quote
// session to MAC the batch under. It is QuoteBatchAfterExitUnsigned
// followed by its signing step.
func (mg *Manager) QuoteBatchAfterExit(secbs []*SECB, nonces [][]byte, batchNonce []byte, sessionID uint64) (*tpm.BatchQuote, error) {
	q, sign, err := mg.QuoteBatchAfterExitUnsigned(secbs, nonces, batchNonce, sessionID)
	if err != nil {
		return nil, err
	}
	if err := sign(); err != nil {
		return nil, err
	}
	return q, nil
}

// QuoteBatchAfterExitUnsigned is QuoteBatchAfterExit in the two steps of
// tpm.QuoteSePCRBatchUnsigned: the TPM command, with its virtual time and
// profiler attribution, happens here, under whatever serializes the
// machine; the returned sign computes the AIK signature and needs no
// machine state, so the caller may run it after dropping that lock. Once
// this returns without error the registers are Free, even if sign later
// fails.
func (mg *Manager) QuoteBatchAfterExitUnsigned(secbs []*SECB, nonces [][]byte, batchNonce []byte, sessionID uint64) (*tpm.BatchQuote, func() error, error) {
	if len(secbs) != len(nonces) {
		return nil, nil, fmt.Errorf("sksm: %d SECBs but %d nonces", len(secbs), len(nonces))
	}
	reqs := make([]tpm.BatchRequest, len(secbs))
	for i, s := range secbs {
		if s.State != StateDone {
			return nil, nil, fmt.Errorf("%w: batch quote of %v SECB", ErrBadState, s.State)
		}
		reqs[i] = tpm.BatchRequest{Handle: s.SePCRHandle, Nonce: nonces[i]}
	}
	var q *tpm.BatchQuote
	var sign func() error
	v0 := mg.Kernel.Machine.Clock.Now()
	err := mg.traced("QuoteBatchAfterExit", func() error {
		var err error
		q, sign, err = mg.Kernel.Machine.TPM().QuoteSePCRBatchUnsigned(reqs, batchNonce, sessionID)
		return err
	}, obs.Int("batch", len(secbs)))
	if mg.Prof != nil && err == nil {
		// Attribute the amortized cost evenly: the profile sees what one
		// job actually paid, which is the whole point of batching.
		per := (mg.Kernel.Machine.Clock.Now() - v0) / time.Duration(len(secbs))
		for _, s := range secbs {
			mg.Prof.NoteQuote(s.Measurement, per)
		}
	}
	return q, sign, err
}

// Release returns a SECB's pages to the OS allocator. It accepts Done
// SECBs (the normal post-quote path) and Start SECBs whose SLAUNCH never
// succeeded: those pages were allocated by NewSECB but never protected, so
// neither SKILL nor SFREE will ever reclaim them — without this path a
// failed launch leaks its pages permanently. A released SECB transitions
// to Done so it cannot be relaunched over freed memory.
func (mg *Manager) Release(s *SECB) error {
	switch s.State {
	case StateDone:
	case StateStart:
		s.State = StateDone
		s.OwnerCPU = -1
	default:
		return fmt.Errorf("%w: release of %v SECB", ErrBadState, s.State)
	}
	mg.Kernel.ReleaseRegion(s.fullRegion())
	return nil
}
