package sksm

import (
	"errors"
	"testing"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
)

func TestSECBPageContiguousWithPAL(t *testing.T) {
	mg := newManager(t, 1)
	s, err := mg.NewSECB(pal.MustBuild("ldi r0, 0\nsvc 0"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.SECBRegion.End() != s.Region.Base {
		t.Fatalf("SECB [%d,%d) not directly below PAL [%d,%d)",
			s.SECBRegion.Base, s.SECBRegion.End(), s.Region.Base, s.Region.End())
	}
	if s.SECBRegion.Size != mem.PageSize {
		t.Fatalf("SECB page size %d", s.SECBRegion.Size)
	}
}

func TestSuspendWritesStateToSECBPage(t *testing.T) {
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild(`
		ldi r0, 0xbeef
		lui r0, 0xdead
		svc 1
		svc 0
	`), 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	if _, err := mg.RunSlice(core, s); err != nil {
		t.Fatal(err)
	}
	// The SECB page holds the serialized state (read with hardware
	// access; software is locked out).
	st, handle, err := readArchState(mg.Kernel.Machine.Chipset.Memory(), s.SECBRegion.Base)
	if err != nil {
		t.Fatal(err)
	}
	if st.Regs[0] != 0xdeadbeef {
		t.Fatalf("saved r0 = %#x", st.Regs[0])
	}
	if handle != s.SePCRHandle {
		t.Fatalf("saved handle %d != %d", handle, s.SePCRHandle)
	}
}

func TestSECBPageInaccessibleToOSWhileSuspended(t *testing.T) {
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild("svc 1\nldi r0, 0\nsvc 0"), 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	if _, err := mg.RunSlice(core, s); err != nil {
		t.Fatal(err)
	}
	// The OS cannot read the saved register file or forge it.
	cs := mg.Kernel.Machine.Chipset
	if _, err := cs.CPURead(0, s.SECBRegion.Base, secbBlockSize); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("OS read saved CPU state: %v", err)
	}
	if err := cs.CPUWrite(0, s.SECBRegion.Base+36, []byte{0xff, 0xff, 0, 0}); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("OS forged saved PC: %v", err)
	}
}

func TestSECBPageInaccessibleToPAL(t *testing.T) {
	// The PAL's own address space starts at its region base; negative
	// offsets (into the SECB page) are unreachable because PAL-relative
	// addresses are unsigned and bounds-checked.
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild(`
		ldi	r0, 0
		addi	r0, -4	; 0xfffffffc: wraps far beyond the region
		load	r1, [r0]
		svc	0
	`), 0, 0)
	_, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s)
	if !errors.Is(err, ErrPALFault) {
		t.Fatalf("PAL reached outside its region: %v", err)
	}
}

func TestResumeRestoresFromMemoryNotStruct(t *testing.T) {
	// Corrupting the Go-side working copy must not matter: resume reads
	// the hardware copy in the SECB page.
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild(`
		ldi r0, 42
		svc 1
		addi r0, 1
		mov r1, r0
		ldi r0, out
		store r1, [r0]
		ldi r1, 4
		svc 6
		ldi r0, 0
		svc 0
	out:	.word 0
	stack:	.space 32
	`), 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	if _, err := mg.RunSlice(core, s); err != nil {
		t.Fatal(err)
	}
	// "OS" tampers with the software-visible struct copy.
	s.CPUState = cpu.ArchState{}
	if _, err := mg.RunSlice(core, s); err != nil {
		t.Fatal(err)
	}
	if len(s.Output) != 4 || s.Output[0] != 43 {
		t.Fatalf("output % x, want 43 (resume used the protected copy)", s.Output)
	}
}

func TestSKILLErasesSECBPageToo(t *testing.T) {
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild("svc 1\nldi r0, 0\nsvc 0"), 0, 0)
	if _, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
	// The saved register file is gone along with the PAL's pages.
	b, err := mg.Kernel.Machine.Chipset.Memory().ReadRaw(s.SECBRegion.Base, secbBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("SKILL left saved CPU state behind")
		}
	}
}

func TestForgedSECBCannotResumeWithAttackerState(t *testing.T) {
	// The OS forges a control block claiming Suspend state over a real
	// suspended PAL's pages, with attacker-chosen registers/PC in the
	// software-visible struct and no protected control page. Resume must
	// refuse rather than honor the forged state.
	mg := newManager(t, 2)
	victim, _ := mg.NewSECB(pal.MustBuild(`
		svc 1
		ldi r0, 0
		svc 0
	secret:	.ascii "sealed-adjacent data"
	stack:	.space 32
	`), 0, 0)
	core1 := mg.Kernel.Machine.CPUs[1]
	if _, err := mg.RunSlice(core1, victim); err != nil {
		t.Fatal(err)
	}

	forged := &SECB{
		Region:       victim.Region, // the victim's pages
		MeasuredFlag: true,
		SePCRHandle:  victim.SePCRHandle,
		OwnerCPU:     victim.OwnerCPU,
		State:        StateSuspend,
		CPUState:     cpu.ArchState{PC: 24}, // attacker-chosen resume point
	}
	err := mg.SLAUNCH(mg.Kernel.Machine.CPUs[2], forged)
	if !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("forged resume: %v", err)
	}
	// Victim's pages remain protected and the genuine resume still works.
	st, _ := mg.Kernel.Machine.Chipset.RegionState(victim.Region)
	if st != mem.AccessNone {
		t.Fatalf("victim pages %v after forged resume attempt", st)
	}
	if _, err := mg.RunSlice(core1, victim); err != nil {
		t.Fatalf("genuine resume broken: %v", err)
	}
}

func TestReadArchStateRejectsUnsuspendedPage(t *testing.T) {
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild("ldi r0, 0\nsvc 0"), 0, 0)
	if _, _, err := readArchState(mg.Kernel.Machine.Chipset.Memory(), s.SECBRegion.Base); err == nil {
		t.Fatal("fresh SECB page parsed as saved state")
	}
}

func TestArchStateRoundTripsThroughMemory(t *testing.T) {
	mg := newManager(t, 1)
	m := mg.Kernel.Machine.Chipset.Memory()
	var st cpu.ArchState
	for i := range st.Regs {
		st.Regs[i] = uint32(0x1010101 * (i + 1))
	}
	st.PC = 0x1234
	st.FlagZ, st.FlagN = true, true
	st.IntrEnabled = true
	st.IDT[3] = 0x77
	if err := writeArchState(m, 0, st, 5); err != nil {
		t.Fatal(err)
	}
	got, handle, err := readArchState(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != st || handle != 5 {
		t.Fatalf("round trip mismatch:\n%+v\n%+v handle=%d", st, got, handle)
	}
}
