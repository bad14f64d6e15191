package sksm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/tpm"
)

func TestStateStrings(t *testing.T) {
	names := map[State]string{
		StateStart: "Start", StateProtect: "Protect", StateMeasure: "Measure",
		StateExecute: "Execute", StateSuspend: "Suspend", StateDone: "Done",
	}
	for st, want := range names {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Fatal("unknown state renders empty")
	}
}

func TestSchedulerCPUAccessor(t *testing.T) {
	mg := newManager(t, 1)
	sch := NewScheduler(mg)
	if sch.CPU(2) != mg.Kernel.Machine.CPUs[2] {
		t.Fatal("CPU accessor wrong")
	}
}

// platformRecommendedSingleCore builds a 1-CPU recommended machine.
func platformRecommendedSingleCore(t *testing.T) *Manager {
	t.Helper()
	p := platform.Recommended(platform.HPdc5750(), 2)
	p.KeyBits = 1024
	p.NumCPUs = 1
	m, err := platform.New(p)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewManager(osker.NewKernel(m))
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// newManager builds a recommended-hardware dc5750 with n sePCRs.
func newManager(t *testing.T, sePCRs int) *Manager {
	t.Helper()
	p := platform.Recommended(platform.HPdc5750(), sePCRs)
	p.KeyBits = 1024
	p.NumCPUs = 4
	m, err := platform.New(p)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewManager(osker.NewKernel(m))
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

// quoteOne attests one finished PAL as a batch of one, the job nonce
// doubling as the batch nonce.
func quoteOne(mg *Manager, s *SECB, nonce []byte) (*tpm.BatchQuote, error) {
	return mg.QuoteBatchAfterExit([]*SECB{s}, [][]byte{nonce}, nonce, 0)
}

// counterPAL yields `yields` times, incrementing r-state in memory across
// suspensions, then outputs the count and exits.
const counterPALSource = `
	ldi	r1, count
	load	r0, [r1]
loop:
	addi	r0, 1
	store	r0, [r1]
	svc	1		; yield: state must survive suspension
	load	r0, [r1]
	ldi	r2, 5
	cmp	r0, r2
	jnz	loop
	ldi	r0, count
	ldi	r1, 4
	svc	6		; output the final count
	ldi	r0, 0
	svc	0
count:	.word 0
stack:	.space 64
`

func buildCounter(t *testing.T) pal.Image {
	t.Helper()
	im, err := pal.Build(counterPALSource)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestLifecycleFirstLaunch(t *testing.T) {
	mg := newManager(t, 2)
	im := pal.MustBuild("ldi r0, 9\nsvc 0")
	s, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateStart || s.MeasuredFlag {
		t.Fatalf("fresh SECB: %v measured=%v", s.State, s.MeasuredFlag)
	}
	core := mg.Kernel.Machine.CPUs[1]
	reason, err := mg.RunSlice(core, s)
	if err != nil {
		t.Fatal(err)
	}
	if reason != cpu.StopHalt || s.State != StateDone {
		t.Fatalf("reason %v state %v", reason, s.State)
	}
	if s.ExitStatus != 9 {
		t.Fatalf("exit %d", s.ExitStatus)
	}
	// Pages back to ALL.
	st, err := mg.Kernel.Machine.Chipset.RegionState(s.Region)
	if err != nil || st != mem.AccessAll {
		t.Fatalf("region state %v %v", st, err)
	}
	// sePCR in Quote state, attestable from untrusted code.
	q, err := quoteOne(mg, s, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := evidence.VerifyBatchSignature(mg.Kernel.Machine.TPM().AIKPublic(), q); err != nil {
		t.Fatal(err)
	}
	if !evidence.VerifyBatchInclusion(q.Root, q.Count, &q.Entries[0]) {
		t.Fatal("batch of one: inclusion proof invalid")
	}
	// The quoted value is the PAL measurement chain.
	want := evidence.ExtendDigest(tpm.Digest{}, evidence.Measure(im.Bytes))
	if q.Entries[0].Composite != want {
		t.Fatal("quoted sePCR is not the PAL measurement")
	}
	if err := mg.Release(s); err != nil {
		t.Fatal(err)
	}
}

func TestYieldSuspendResumePreservesState(t *testing.T) {
	mg := newManager(t, 2)
	im := buildCounter(t)
	s, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cores := mg.Kernel.Machine.CPUs
	coreIdx := 1
	for s.State != StateDone {
		// Resume on a different core each slice (§5.3).
		core := cores[1+coreIdx%3]
		coreIdx++
		if _, err := mg.RunSlice(core, s); err != nil {
			t.Fatal(err)
		}
		if s.State == StateSuspend {
			// While suspended: pages NONE, nobody can read.
			st, _ := mg.Kernel.Machine.Chipset.RegionState(s.Region)
			if st != mem.AccessNone {
				t.Fatalf("suspended region state %v", st)
			}
		}
	}
	if s.ExitStatus != 0 {
		t.Fatalf("exit %d", s.ExitStatus)
	}
	// Counter reached 5 across suspensions.
	if len(s.Output) != 4 || s.Output[0] != 5 {
		t.Fatalf("output % x, want count 5", s.Output)
	}
	if s.Resumes < 4 {
		t.Fatalf("resumes %d, want >=4", s.Resumes)
	}
}

func TestSuspendedStateInaccessibleToOS(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi r0, secret
		svc 1          ; yield while holding a secret in memory
		ldi r0, 0
		svc 0
	secret: .ascii "password"
	stack: .space 32
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	reason, err := mg.RunSlice(core, s)
	if err != nil || reason != cpu.StopYield {
		t.Fatalf("%v %v", reason, err)
	}
	// The untrusted OS (any other core) cannot read the secret.
	for _, id := range []int{0, 2, 3} {
		if _, err := mg.Kernel.Machine.Chipset.CPURead(id, s.Region.Base, 16); !errors.Is(err, mem.ErrDenied) {
			t.Fatalf("CPU%d read suspended PAL memory: %v", id, err)
		}
	}
	// Not even the core that ran it.
	if _, err := mg.Kernel.Machine.Chipset.CPURead(1, s.Region.Base, 16); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("former owner read suspended PAL memory: %v", err)
	}
	// Registers cleared — no secret residue in microarch state.
	for i, r := range core.Regs {
		if r != 0 {
			t.Fatalf("register r%d = %#x after suspend", i, r)
		}
	}
}

func TestSLAUNCHFailsOnPageConflict(t *testing.T) {
	mg := newManager(t, 2)
	im := pal.MustBuild("svc 1\nldi r0, 0\nsvc 0")
	a, _ := mg.NewSECB(im, 0, 0)
	core1 := mg.Kernel.Machine.CPUs[1]
	if _, err := mg.RunSlice(core1, a); err != nil {
		t.Fatal(err)
	} // a is suspended; pages NONE

	// Forge a SECB pointing at a's pages: SLAUNCH must refuse to measure
	// it as a fresh PAL only if pages conflict — NONE pages are claimable
	// on resume, so emulate the conflict with an Execute-state PAL.
	b, _ := mg.NewSECB(im, 0, 0)
	core2 := mg.Kernel.Machine.CPUs[2]
	if err := mg.SLAUNCH(core2, b); err != nil {
		t.Fatal(err)
	} // b executing on core2
	forged := &SECB{Region: b.Region, SePCRHandle: -1, OwnerCPU: -1}
	core3 := mg.Kernel.Machine.CPUs[3]
	if err := mg.SLAUNCH(core3, forged); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("overlapping SLAUNCH: %v", err)
	}
}

func TestSLAUNCHFailsOnSePCRExhaustion(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild("svc 1\nldi r0, 0\nsvc 0")
	a, _ := mg.NewSECB(im, 0, 0)
	if _, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], a); err != nil {
		t.Fatal(err)
	} // a suspended, holds the only sePCR
	b, _ := mg.NewSECB(im, 0, 0)
	err := mg.SLAUNCH(mg.Kernel.Machine.CPUs[2], b)
	if !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("launch without free sePCR: %v", err)
	}
	// Failure path must roll back memory protection.
	st, _ := mg.Kernel.Machine.Chipset.RegionState(b.Region)
	if st != mem.AccessAll {
		t.Fatalf("failed launch leaked protection: %v", st)
	}
}

func TestMeasuredFlagNotHonoredFromStart(t *testing.T) {
	mg := newManager(t, 2)
	im := pal.MustBuild("ldi r0, 0\nsvc 0")
	s, _ := mg.NewSECB(im, 0, 0)
	// Malicious OS sets MeasuredFlag on a fresh SECB hoping to skip
	// measurement; SLAUNCH from Start always measures.
	s.MeasuredFlag = true
	core := mg.Kernel.Machine.CPUs[1]
	if err := mg.SLAUNCH(core, s); err != nil {
		t.Fatal(err)
	}
	if s.SePCRHandle < 0 {
		t.Fatal("PAL ran without a sePCR binding")
	}
	v, _ := mg.Kernel.Machine.TPM().SePCRValue(s.SePCRHandle)
	if v != evidence.ExtendDigest(tpm.Digest{}, evidence.Measure(im.Bytes)) {
		t.Fatal("PAL ran unmeasured")
	}
}

func TestSKILLErasesAndFrees(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi r0, secret
		svc 1
		svc 0
	secret: .ascii "launch codes"
	stack: .space 32
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	if _, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
	if s.State != StateDone {
		t.Fatalf("state %v", s.State)
	}
	// Memory zeroed and back to ALL.
	b, err := mg.Kernel.Machine.Chipset.CPURead(0, s.Region.Base, s.Region.Size)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("killed PAL's memory not erased")
		}
	}
	// sePCR reusable.
	if _, err := mg.Kernel.Machine.TPM().AllocateSePCR(0, tpm.Digest{}); err != nil {
		t.Fatalf("sePCR not freed by SKILL: %v", err)
	}
}

func TestSKILLOnlyFromSuspend(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild("ldi r0, 0\nsvc 0")
	s, _ := mg.NewSECB(im, 0, 0)
	if err := mg.SKILL(s); !errors.Is(err, ErrBadState) {
		t.Fatalf("SKILL from Start: %v", err)
	}
}

func TestFaultingPALIsSuspendedThenKilled(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		ldi r0, 1
		ldi r1, 0
		divu r0, r1
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	_, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s)
	if !errors.Is(err, ErrPALFault) {
		t.Fatalf("fault: %v", err)
	}
	if s.State != StateSuspend {
		t.Fatalf("faulted PAL state %v, want Suspend", s.State)
	}
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptionTimer(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
	spin:	jmp spin
	`)
	s, _ := mg.NewSECB(im, 0, 10*time.Microsecond)
	core := mg.Kernel.Machine.CPUs[1]
	reason, err := mg.RunSlice(core, s)
	if err != nil || reason != cpu.StopPreempted {
		t.Fatalf("%v %v", reason, err)
	}
	if s.State != StateSuspend {
		t.Fatalf("state %v", s.State)
	}
	// The wedged PAL is killable.
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
}

// §5.7: hardware context switch must cost microseconds, not hundreds of
// milliseconds — six orders of magnitude below the seal/unseal path.
func TestContextSwitchCostIsMicroseconds(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild(`
		svc 1
		svc 1
		svc 1
		ldi r0, 0
		svc 0
	`)
	s, _ := mg.NewSECB(im, 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	if _, err := mg.RunSlice(core, s); err != nil {
		t.Fatal(err)
	}
	// Measure one suspend->resume round trip.
	clock := mg.Kernel.Machine.Clock
	start := clock.Now()
	if _, err := mg.RunSlice(core, s); err != nil {
		t.Fatal(err)
	}
	rt := clock.Now() - start
	// One resume (VM enter 558ns) + slice execution (few instructions)
	// + one suspend (VM exit 519ns): ~1.1 µs plus noise.
	if rt > 5*time.Microsecond {
		t.Fatalf("context-switch round trip %v, want microseconds", rt)
	}
}

func TestQuoteAfterExitRequiresDone(t *testing.T) {
	mg := newManager(t, 1)
	im := pal.MustBuild("svc 1\nldi r0, 0\nsvc 0")
	s, _ := mg.NewSECB(im, 0, 0)
	mg.RunSlice(mg.Kernel.Machine.CPUs[1], s)
	if _, err := quoteOne(mg, s, []byte("n")); !errors.Is(err, ErrBadState) {
		t.Fatalf("quote of suspended PAL: %v", err)
	}
	if err := mg.Release(s); !errors.Is(err, ErrBadState) {
		t.Fatalf("release of suspended PAL: %v", err)
	}
}

func TestManagerRequiresSePCRs(t *testing.T) {
	p := platform.HPdc5750() // stock hardware
	p.KeyBits = 1024
	m, err := platform.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(osker.NewKernel(m)); err == nil {
		t.Fatal("manager built on stock TPM")
	}
}

func TestSealUnsealViaSePCRAcrossSessions(t *testing.T) {
	// A PAL seals in one complete session and unseals in a brand-new
	// session (fresh SECB, possibly different sePCR).
	mg := newManager(t, 2)
	genSrc := `
		ldi	r0, data
		ldi	r1, 16
		svc	5
		ldi	r0, data
		ldi	r1, 16
		ldi	r2, blob
		svc	3
		mov	r1, r0
		ldi	r0, blob
		svc	6
		ldi	r0, 0
		svc	0
	data:	.space 16
	blob:	.space 1024
	stack:	.space 64
	`
	useSrc := `
		ldi	r0, blob
		ldi	r1, 1024
		svc	7
		mov	r1, r0
		ldi	r0, blob
		ldi	r2, data
		svc	4
		mov	r0, r1	; exit status = unseal status
		svc	0
	data:	.space 16
	blob:	.space 1024
	stack:	.space 64
	`
	_ = useSrc
	genIm := pal.MustBuild(genSrc)
	s1, _ := mg.NewSECB(genIm, 0, 0)
	core := mg.Kernel.Machine.CPUs[1]
	if err := mg.RunToCompletion(core, s1); err != nil {
		t.Fatal(err)
	}
	blob := s1.Output
	if _, err := quoteOne(mg, s1, []byte("n")); err != nil { // frees sePCR
		t.Fatal(err)
	}

	// Same PAL code relaunches with the blob as input.
	s2, _ := mg.NewSECB(genIm, 0, 0)
	s2.Input = blob
	// Replace program? No: the gen PAL ignores input. Instead unseal
	// directly through the TPM under the new session's sePCR to check
	// identity-based release.
	if err := mg.SLAUNCH(core, s2); err != nil {
		t.Fatal(err)
	}
	got, err := mg.Kernel.Machine.TPM().UnsealSePCR(s2.SePCRHandle, core.ID, blob)
	if err != nil {
		t.Fatalf("same PAL could not unseal across sessions: %v", err)
	}
	if len(got) != 16 {
		t.Fatalf("unsealed %d bytes", len(got))
	}

	// A different PAL cannot.
	core.Run(0) // finish s2
	mg.SFREE(core, s2)
	otherIm := pal.MustBuild("ldi r0, 1\nsvc 0") // different code
	s3, _ := mg.NewSECB(otherIm, 0, 0)
	core2 := mg.Kernel.Machine.CPUs[2]
	if err := mg.SLAUNCH(core2, s3); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Kernel.Machine.TPM().UnsealSePCR(s3.SePCRHandle, core2.ID, blob); err == nil {
		t.Fatal("different PAL unsealed the blob")
	}
}

// TestMemoryReuseAcrossImages: two different PALs alternate over the same
// physical pages (the first-fit allocator reuses the freed range). Each
// launch must run its own image, never what the previous tenant left in
// those pages.
func TestMemoryReuseAcrossImages(t *testing.T) {
	const loop = `
	ldi	r1, acc
	ldi	r0, 0
	ldi	r3, 40
loop:	addi	r0, 1
	load	r2, [r1]
	add	r2, r0
%s	store	r2, [r1]
	cmp	r0, r3
	jnz	loop
	ldi	r0, acc
	ldi	r1, 4
	svc	6		; output the accumulator
	ldi	r0, 0
	svc	0
acc:	.word 0
stack:	.space 64
`
	// Same shape, different arithmetic: running the other image's code
	// would show in the output at once.
	a := pal.MustBuild(fmt.Sprintf(loop, ""))
	b := pal.MustBuild(fmt.Sprintf(loop, "\tadd\tr2, r0\n"))
	mg := newManager(t, 2)
	core := mg.Kernel.Machine.CPUs[1]
	var base uint32
	for job := 0; job < 12; job++ {
		image, want := a, 820 // sum 1..40
		if job%2 == 1 {
			image, want = b, 1640 // the doubled add
		}
		s, err := mg.NewSECB(image, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if job == 0 {
			base = s.Region.Base
		} else if s.Region.Base != base {
			t.Fatalf("job %d placed at %#x, want the reused %#x", job, s.Region.Base, base)
		}
		if err := mg.RunToCompletion(core, s); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if _, err := quoteOne(mg, s, []byte("n")); err != nil { // frees the sePCR
			t.Fatalf("job %d quote: %v", job, err)
		}
		if err := mg.Release(s); err != nil {
			t.Fatal(err)
		}
		if len(s.Output) != 4 || int(binary.LittleEndian.Uint32(s.Output)) != want {
			t.Fatalf("job %d output % x, want %d", job, s.Output, want)
		}
	}
}
