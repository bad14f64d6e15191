package sksm

import (
	"errors"
	"testing"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/pal"
)

func TestServiceUnknownFaults(t *testing.T) {
	mg := newManager(t, 1)
	s, _ := mg.NewSECB(pal.MustBuild("svc 77"), 0, 0)
	_, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s)
	if !errors.Is(err, ErrPALFault) {
		t.Fatalf("unknown svc: %v", err)
	}
}

func TestServiceExtendGoesToSePCR(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi	r0, data
		ldi	r1, 5
		svc	2
		ldi	r0, 0
		svc	0
	data:	.ascii "input"
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	if err := mg.SLAUNCH(core, s); err != nil {
		t.Fatal(err)
	}
	before, _ := mg.Kernel.Machine.TPM().SePCRValue(s.SePCRHandle)
	if reason, err := core.Run(0); err != nil || reason != cpu.StopHalt {
		t.Fatalf("%v %v", reason, err)
	}
	after, _ := mg.Kernel.Machine.TPM().SePCRValue(s.SePCRHandle)
	want := evidence.ExtendDigest(before, evidence.Measure([]byte("input")))
	if after != want {
		t.Fatal("svc 2 did not extend the PAL's sePCR")
	}
	if err := mg.SFREE(core, s); err != nil {
		t.Fatal(err)
	}
	// The attestation now covers the input, replayable by a verifier.
	q, err := quoteOne(mg, s, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if q.Entries[0].Composite != want {
		t.Fatal("quote does not cover the extended input")
	}
}

func TestServiceRandomAndTime(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi	r0, buf
		ldi	r1, 8
		svc	5		; TPM random
		svc	8		; virtual time -> r0
		ldi	r1, tbuf
		store	r0, [r1]
		ldi	r0, buf
		ldi	r1, 12
		svc	6
		ldi	r0, 0
		svc	0
	buf:	.space 8
	tbuf:	.word 0
	stack:	.space 32
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	if err := mg.RunToCompletion(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	if len(s.Output) != 12 {
		t.Fatalf("output %d bytes", len(s.Output))
	}
	zero := true
	for _, b := range s.Output[:8] {
		if b != 0 {
			zero = false
		}
	}
	if zero {
		t.Fatal("TPM random returned all zeros")
	}
}

func TestServiceInputOutputRoundTrip(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi	r0, buf
		ldi	r1, 64
		svc	7
		mov	r1, r0
		ldi	r0, buf
		svc	6
		ldi	r0, 0
		svc	0
	buf:	.space 64
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	s.Input = []byte("through the SECB channel")
	if err := mg.RunToCompletion(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	if string(s.Output) != "through the SECB channel" {
		t.Fatalf("output %q", s.Output)
	}
}

func TestServiceSealBadPointerFaults(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi	r0, 0xff00
		ldi	r1, 32
		ldi	r2, 0
		svc	3
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	_, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s)
	if !errors.Is(err, ErrPALFault) {
		t.Fatalf("bad seal pointer: %v", err)
	}
	// The faulted PAL is suspended; clean it up and confirm no leaks.
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
	if err := mg.Release(s); err != nil {
		t.Fatal(err)
	}
}
