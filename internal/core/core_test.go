package core

import (
	"errors"
	"testing"
	"time"

	"minimaltcb/internal/platform"
)

func fastProfile() platform.Profile {
	p := platform.HPdc5750()
	p.KeyBits = 1024
	return p
}

func fastRecommended() platform.Profile {
	p := platform.Recommended(platform.HPdc5750(), 4)
	p.KeyBits = 1024
	return p
}

const helloSource = `
	ldi r0, msg
	ldi r1, 5
	svc 6
	ldi r0, 0
	svc 0
msg:	.ascii "hello"
`

func TestSystemLegacyRoundTrip(t *testing.T) {
	sys, err := NewSystem(fastProfile())
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompilePAL("hello", helloSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunLegacy(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "hello" || res.ExitStatus != 0 {
		t.Fatalf("output %q exit %d", res.Output, res.ExitStatus)
	}
	if res.Total <= 0 {
		t.Fatal("no time charged")
	}
	// Attestation round trip.
	name, att, err := sys.AttestLegacy(p, []byte("challenge-1"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "hello" || att.Quote == nil {
		t.Fatalf("attested name %q", name)
	}
}

func TestSystemRecommendedRoundTrip(t *testing.T) {
	sys, err := NewSystem(fastRecommended())
	if err != nil {
		t.Fatal(err)
	}
	if sys.SKSM == nil {
		t.Fatal("recommended hardware missing")
	}
	p, err := CompilePAL("hello", helloSource)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("challenge-2")
	res, err := sys.RunRecommended(p, nil, 0, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "hello" {
		t.Fatalf("output %q", res.Output)
	}
	name, err := sys.VerifyRecommended(p, res, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if name != "hello" {
		t.Fatalf("verified name %q", name)
	}
}

// quoteFault fails every TPM_Quote, standing in for a chip glitch at the
// signature.
type quoteFault struct{}

func (quoteFault) TPMCommand(name string) (time.Duration, error) {
	if name == "TPM_Quote" {
		return 0, errors.New("injected quote fault")
	}
	return 0, nil
}

// TestRecommendedFailuresReclaimResources: a run that fails after SLAUNCH —
// the PAL faults, or its quote does — hands its sePCR and its pages back,
// so the bank and the allocator return to their pre-call levels.
func TestRecommendedFailuresReclaimResources(t *testing.T) {
	sys, err := NewSystem(fastRecommended())
	if err != nil {
		t.Fatal(err)
	}
	hello, err := CompilePAL("hello", helloSource)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := CompilePAL("faulty", "svc 99\nldi r0, 0\nsvc 0")
	if err != nil {
		t.Fatal(err)
	}
	regs, pages := sys.SKSM.FreeSePCRs(), sys.Kernel.Alloc.FreePages()
	check := func(what string) {
		t.Helper()
		if got := sys.SKSM.FreeSePCRs(); got != regs {
			t.Errorf("after %s: %d free sePCRs, want %d", what, got, regs)
		}
		if got := sys.Kernel.Alloc.FreePages(); got != pages {
			t.Errorf("after %s: %d free pages, want %d", what, got, pages)
		}
	}

	if _, err := sys.RunRecommended(faulty, nil, 0, []byte("n1")); err == nil {
		t.Fatal("faulting PAL reported success")
	}
	check("PAL fault")

	sys.Machine.InstallFaults(quoteFault{})
	if _, err := sys.RunRecommended(hello, nil, 0, []byte("n2")); err == nil {
		t.Fatal("run with a failing quote reported success")
	}
	check("quote fault")

	sys.Machine.InstallFaults(nil)
	res, err := sys.RunRecommended(hello, nil, 0, []byte("n3"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.VerifyRecommended(hello, res, []byte("n3")); err != nil {
		t.Fatal(err)
	}
	check("clean run")
}

func TestRecommendedOnStockHardwareFails(t *testing.T) {
	sys, err := NewSystem(fastProfile())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := CompilePAL("x", "ldi r0, 0\nsvc 0")
	if _, err := sys.RunRecommended(p, nil, 0, nil); !errors.Is(err, ErrNoRecommendedHardware) {
		t.Fatalf("recommended run on stock hardware: %v", err)
	}
}

func TestRecommendedPreemptionCountsSlices(t *testing.T) {
	sys, err := NewSystem(fastRecommended())
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompilePAL("worker", `
		ldi r0, 0
		ldi r1, 2000
	loop:	addi r0, 1
		cmp r0, r1
		jnz loop
		ldi r0, 0
		svc 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunRecommended(p, nil, time.Microsecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slices < 2 || res.Resumes < 1 {
		t.Fatalf("slices %d resumes %d — preemption never fired", res.Slices, res.Resumes)
	}
}

func TestCompilePALErrors(t *testing.T) {
	if _, err := CompilePAL("bad", "not a program"); err == nil {
		t.Fatal("bad source compiled")
	}
}

func TestSystemWithoutTPM(t *testing.T) {
	p := platform.TyanN3600R()
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Verifier != nil || sys.Cert != nil {
		t.Fatal("TPM-less system has attestation state")
	}
	pl, _ := CompilePAL("x", "ldi r0, 0\nsvc 0")
	res, err := sys.RunLegacy(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Log != nil {
		t.Fatal("TPM-less session produced a log")
	}
	if _, _, err := sys.AttestLegacy(pl, nil); err == nil {
		t.Fatal("attestation without TPM succeeded")
	}
}

func TestIntelSystemLog(t *testing.T) {
	p := platform.IntelTEP()
	p.KeyBits = 1024
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := CompilePAL("hello", helloSource)
	if _, err := sys.RunLegacy(pl, nil); err != nil {
		t.Fatal(err)
	}
	name, att, err := sys.AttestLegacy(pl, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "hello" {
		t.Fatalf("name %q", name)
	}
	// Intel logs two events: ACMod (PCR17) and PAL (PCR18).
	if len(att.Log) != 2 || att.Log[0].PCR != 17 || att.Log[1].PCR != 18 {
		t.Fatalf("log %v", att.Log)
	}
}

func TestPALMeasurementStable(t *testing.T) {
	a, _ := CompilePAL("x", helloSource)
	b, _ := CompilePAL("y", helloSource)
	if a.Measurement() != b.Measurement() {
		t.Fatal("same source, different measurement")
	}
	c, _ := CompilePAL("z", "ldi r0, 1\nsvc 0")
	if a.Measurement() == c.Measurement() {
		t.Fatal("different source, same measurement")
	}
}
