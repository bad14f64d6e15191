package sksm

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// System-level differential tests for the threaded-code tier: a full SKSM
// lifecycle — SLAUNCH, preemption, SYIELD suspend/resume, SFREE, quote —
// must be bit-identical with block compilation on and off. These are the
// end-to-end counterpart of the cpu-package unit differentials: here the
// tier also has to survive ownership transitions (every suspend/resume
// bumps the page versions under its compiled blocks) and memory reuse
// across SKILL/Release cycles.

// hotPALSource loops well past the compile threshold inside a single
// launch, so compiled blocks execute even on the first job.
const hotPALSource = `
	ldi	r1, acc
	ldi	r0, 0
	ldi	r3, 40
loop:	addi	r0, 1
	load	r2, [r1]
	add	r2, r0
	store	r2, [r1]
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

type jobResult struct {
	meas   tpm.Digest
	out    []byte
	status uint32
	clock  time.Duration
	quote  *tpm.BatchQuote
}

// runJobs executes `jobs` back-to-back launches of image on one core with
// the tier on or off, returning every job's observables. The quantum
// forces mid-loop preemption, so suspend/resume cycles interleave with
// compiled-block execution.
func runJobs(t *testing.T, image pal.Image, compile bool, jobs int, quantumInstrs int) []jobResult {
	t.Helper()
	mg := newManager(t, 2)
	core := mg.Kernel.Machine.CPUs[1]
	core.SetBlockCompile(compile)
	quantum := time.Duration(quantumInstrs) * core.Params.InstrCost
	var res []jobResult
	for job := 0; job < jobs; job++ {
		s, err := mg.NewSECB(image, 1, quantum)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if err := mg.RunToCompletion(core, s); err != nil {
			t.Fatalf("job %d (compile=%v): %v", job, compile, err)
		}
		q, err := quoteOne(mg, s, []byte("tcode-diff"))
		if err != nil {
			t.Fatalf("job %d quote: %v", job, err)
		}
		if err := mg.Release(s); err != nil {
			t.Fatalf("job %d release: %v", job, err)
		}
		res = append(res, jobResult{
			meas: s.Measurement, out: s.Output, status: s.ExitStatus,
			clock: mg.Kernel.Machine.Clock.Now(), quote: q,
		})
	}
	return res
}

func sameJobs(t *testing.T, on, off []jobResult) {
	t.Helper()
	for i := range on {
		if on[i].meas != off[i].meas {
			t.Errorf("job %d: measurements diverge", i)
		}
		if !bytes.Equal(on[i].out, off[i].out) {
			t.Errorf("job %d: outputs diverge: compiled %v, interpreted %v", i, on[i].out, off[i].out)
		}
		if on[i].status != off[i].status {
			t.Errorf("job %d: exit status diverges: %d vs %d", i, on[i].status, off[i].status)
		}
		if on[i].clock != off[i].clock {
			t.Errorf("job %d: virtual clocks diverge: %v vs %v", i, on[i].clock, off[i].clock)
		}
		if !reflect.DeepEqual(on[i].quote, off[i].quote) {
			t.Errorf("job %d: quotes diverge", i)
		}
	}
}

// TestBlockCompileDifferentialLifecycle: hot straight-line jobs, no
// preemption — later jobs run almost entirely from compiled blocks, and
// every observable (including the signed quote and the per-job virtual
// clock) must match the interpreter's.
func TestBlockCompileDifferentialLifecycle(t *testing.T) {
	image := pal.MustBuild(hotPALSource)
	on := runJobs(t, image, true, 12, 0)
	off := runJobs(t, image, false, 12, 0)
	sameJobs(t, on, off)
	if len(on[11].out) != 4 || on[11].out[0] != 820&0xff {
		t.Fatalf("hot PAL output % x, want sum 1..40 = 820", on[11].out)
	}
}

// TestBlockCompileDifferentialPreempted: a tight preemption quantum cuts
// blocks mid-stream; every suspend/resume also bumps the page versions
// under the compiled code, exercising lookup-time revalidation on every
// slice.
func TestBlockCompileDifferentialPreempted(t *testing.T) {
	image := pal.MustBuild(hotPALSource)
	for _, q := range []int{3, 7, 17} {
		on := runJobs(t, image, true, 10, q)
		off := runJobs(t, image, false, 10, q)
		sameJobs(t, on, off)
	}
}

// TestBlockCompileDifferentialYield: the counter PAL suspends itself with
// SYIELD between iterations, so its state crosses seclusion/restore cycles
// while its leaders heat up across slices.
func TestBlockCompileDifferentialYield(t *testing.T) {
	image := buildCounter(t)
	on := runJobs(t, image, true, 12, 0)
	off := runJobs(t, image, false, 12, 0)
	sameJobs(t, on, off)
	if len(on[0].out) != 4 || on[0].out[0] != 5 {
		t.Fatalf("counter output % x, want 5", on[0].out)
	}
}

// TestBlockCompileMemoryReuseAcrossImages: two different PALs alternate
// over the same physical pages (the first-fit allocator reuses the freed
// range). A compiled block from image A must never execute for image B —
// the block cache keys on content-revalidated physical words, so the swap
// forces invalidation/recompile, never stale execution.
func TestBlockCompileMemoryReuseAcrossImages(t *testing.T) {
	a := pal.MustBuild(hotPALSource)
	// Same shape, different arithmetic: a stale block would be visible in
	// the output immediately.
	b := pal.MustBuild(`
	ldi	r1, acc
	ldi	r0, 0
	ldi	r3, 40
loop:	addi	r0, 1
	load	r2, [r1]
	add	r2, r0
	add	r2, r0
	store	r2, [r1]
	cmp	r0, r3
	jnz	loop
	ldi	r0, acc
	ldi	r1, 4
	svc	6
	ldi	r0, 0
	svc	0
acc:	.word 0
stack:	.space 64
	`)
	mg := newManager(t, 2)
	core := mg.Kernel.Machine.CPUs[1]
	var outA, outB []byte
	for job := 0; job < 12; job++ {
		image := a
		if job%2 == 1 {
			image = b
		}
		s, err := mg.NewSECB(image, 1, 0)
		if err != nil {
			t.Fatal(err)
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
		if job%2 == 0 {
			outA = s.Output
		} else {
			outB = s.Output
		}
	}
	// sum 1..40 = 820; with the doubled add, 2*820 = 1640.
	if len(outA) != 4 || int(outA[0])|int(outA[1])<<8 != 820 {
		t.Fatalf("image A output % x, want 820", outA)
	}
	if len(outB) != 4 || int(outB[0])|int(outB[1])<<8 != 1640 {
		t.Fatalf("image B output % x, want 1640 — a stale compiled block leaked across images", outB)
	}
	if st := core.TCodeStatsSnapshot(); st.Execs == 0 {
		t.Fatalf("alternating workload never reached the compiled tier: %+v", st)
	}
}
