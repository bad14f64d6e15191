package sksm

import (
	"encoding/binary"
	"errors"
	"testing"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// evilPALSource is the attacker's PAL: it announces itself and exits.
const evilPALSource = `
	ldi	r0, msg
	ldi	r1, 4
	svc	6
	ldi	r0, 0
	svc	0
msg:	.ascii "EVIL"
`

// gadgetPALSource is an approved PAL that outputs "OK". The five words
// after its exit are a gadget it never reaches, at gadgetOffset.
const gadgetPALSource = `
	ldi	r0, ok
	ldi	r1, 2
	svc	6
	ldi	r0, 0
	svc	0
gadget:	ldi	r0, evil
	ldi	r1, 4
	svc	6
	ldi	r0, 0
	svc	0
ok:	.ascii "OK"
evil:	.ascii "EVIL"
`

const gadgetOffset = pal.HeaderSize + 5*isa.WordSize

// TestSLAUNCHMeasuresRewrittenPages: the OS places an approved PAL with
// NewSECB and then rewrites its pages before SLAUNCH. SLAUNCH measures the
// pages it protected, so the sePCR names the code that ran, not the PAL
// the OS claimed to launch.
func TestSLAUNCHMeasuresRewrittenPages(t *testing.T) {
	mg := newManager(t, 1)
	approved := pal.MustBuild("ldi r0, 0\nsvc 0")
	evil := pal.MustBuild(evilPALSource)
	s, err := mg.NewSECB(approved, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Kernel.Machine.Chipset.Memory().WriteRaw(s.Region.Base, evil.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := mg.RunToCompletion(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	if string(s.Output) != "EVIL" {
		t.Fatalf("output %q, want the rewritten PAL's EVIL", s.Output)
	}
	if want := evidence.Measure(evil.Bytes); s.Measurement != want {
		t.Fatalf("measurement %x, want the rewritten bytes' %x (approved PAL: %x)",
			s.Measurement, want, evidence.Measure(approved.Bytes))
	}
	v, err := mg.Kernel.Machine.TPM().SePCRValue(s.SePCRHandle)
	if err != nil {
		t.Fatal(err)
	}
	if v != evidence.ExtendDigest(tpm.Digest{}, s.Measurement) {
		t.Fatal("sePCR does not hold the measurement SLAUNCH took")
	}
}

// TestSLAUNCHEntersAtHeaderEntry: the only entry point SLAUNCH honors is
// the one in the SLB header inside the protected pages. An OS that moves
// it into code the PAL never reaches must rewrite the header, so the
// gadget runs under a measurement that names the rewritten header — and a
// core joined to the PAL starts at the same entry.
func TestSLAUNCHEntersAtHeaderEntry(t *testing.T) {
	mg := newManager(t, 1)
	approved := pal.MustBuild(gadgetPALSource)
	s, err := mg.NewSECB(approved, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	memory := mg.Kernel.Machine.Chipset.Memory()
	var entry [2]byte
	binary.LittleEndian.PutUint16(entry[:], gadgetOffset)
	if err := memory.WriteRaw(s.Region.Base+2, entry[:]); err != nil {
		t.Fatal(err)
	}
	rewritten := append([]byte(nil), approved.Bytes...)
	copy(rewritten[2:], entry[:])

	owner, worker := mg.Kernel.Machine.CPUs[1], mg.Kernel.Machine.CPUs[2]
	if err := mg.SLAUNCH(owner, s); err != nil {
		t.Fatal(err)
	}
	if owner.PC != gadgetOffset {
		t.Fatalf("SLAUNCH entered at %#x, want the header's %#x", owner.PC, gadgetOffset)
	}
	if want := evidence.Measure(rewritten); s.Measurement != want {
		t.Fatal("measurement does not cover the rewritten header")
	}
	if err := mg.Join(worker, s); err != nil {
		t.Fatal(err)
	}
	if worker.PC != gadgetOffset {
		t.Fatalf("joined core entered at %#x, want the header's %#x", worker.PC, gadgetOffset)
	}
	if err := mg.Leave(worker, s); err != nil {
		t.Fatal(err)
	}
	if reason, err := owner.Run(0); err != nil || reason != cpu.StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	if string(s.Output) != "EVIL" {
		t.Fatalf("output %q, want the gadget's EVIL", s.Output)
	}
}

// TestSLAUNCHRejectsBadSLBHeader: a header in the protected pages that
// declares a length past the SECB's region, a length shorter than the
// header itself, or an entry at or past its length fails the launch with
// the usual rollback — pages back in ALL, no sePCR consumed, SECB in Start.
func TestSLAUNCHRejectsBadSLBHeader(t *testing.T) {
	im := pal.MustBuild("ldi r0, 0\nsvc 0")
	for _, tc := range []struct {
		name          string
		length, entry func(s *SECB) uint16
	}{
		{"length past region",
			func(s *SECB) uint16 { return uint16(s.Region.Size + 4) },
			func(*SECB) uint16 { return pal.HeaderSize }},
		{"length below header",
			func(*SECB) uint16 { return pal.HeaderSize - 1 },
			func(*SECB) uint16 { return 0 }},
		{"entry at length",
			func(*SECB) uint16 { return uint16(im.Len()) },
			func(*SECB) uint16 { return uint16(im.Len()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mg := newManager(t, 1)
			s, err := mg.NewSECB(im, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var hdr [pal.HeaderSize]byte
			binary.LittleEndian.PutUint16(hdr[0:], tc.length(s))
			binary.LittleEndian.PutUint16(hdr[2:], tc.entry(s))
			if err := mg.Kernel.Machine.Chipset.Memory().WriteRaw(s.Region.Base, hdr[:]); err != nil {
				t.Fatal(err)
			}
			free := mg.FreeSePCRs()
			if err := mg.SLAUNCH(mg.Kernel.Machine.CPUs[1], s); !errors.Is(err, ErrLaunchFailed) {
				t.Fatalf("SLAUNCH = %v, want ErrLaunchFailed", err)
			}
			if st, err := mg.Kernel.Machine.Chipset.RegionState(s.fullRegion()); err != nil || st != mem.AccessAll {
				t.Fatalf("pages %v (%v) after failed launch, want ALL", st, err)
			}
			if got := mg.FreeSePCRs(); got != free {
				t.Fatalf("free sePCRs %d after failed launch, want %d", got, free)
			}
			if s.State != StateStart {
				t.Fatalf("SECB in %v after failed launch, want Start", s.State)
			}
		})
	}
}
