package cpu

import (
	"testing"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/sim"
)

// Tests for the retirement-profiler hook: with a profiler installed the
// interpreter must report every retired instruction exactly once, and with
// no profiler the hook must cost nothing — neither allocations nor any
// architecturally visible difference.

// fakeProfiler records every retirement callback.
type fakeProfiler struct {
	pcs   []uint32
	ops   []isa.Opcode
	total time.Duration
}

func (f *fakeProfiler) RetireInstr(pc uint32, op isa.Opcode, cost time.Duration) {
	f.pcs = append(f.pcs, pc)
	f.ops = append(f.ops, op)
	f.total += cost
}

// runImageProfiled executes image on a fresh machine with p installed.
func runImageProfiled(t *testing.T, image pal.Image, p Profiler) (*CPU, *chipset.Chipset) {
	t.Helper()
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	if err := cs.Memory().WriteRaw(0x4000, image.Bytes); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	c.SetProfiler(p)
	c.EnterRegion(mem.Region{Base: 0x4000, Size: image.Len()}, image.Entry)
	reason, err := c.Run(0)
	if err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	return c, cs
}

func TestProfilerHookObservesEveryRetirement(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 4
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	f := &fakeProfiler{}
	c, _ := runImageProfiled(t, image, f)
	if int64(len(f.pcs)) != c.Retired {
		t.Fatalf("profiler saw %d retirements, CPU retired %d", len(f.pcs), c.Retired)
	}
	if f.total != time.Duration(c.Retired)*c.Params.InstrCost {
		t.Fatalf("charged %v, want %v", f.total, time.Duration(c.Retired)*c.Params.InstrCost)
	}
	// The hook reports pre-execution PCs: the first is the entry point.
	if f.pcs[0] != uint32(image.Entry) {
		t.Fatalf("first retirement at pc=0x%x, want entry 0x%x", f.pcs[0], image.Entry)
	}
	// The loop body retires four times; its PC appears that often.
	body := uint32(image.Entry) + 2*isa.WordSize
	n := 0
	for _, pc := range f.pcs {
		if pc == body {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("loop body retired %d times, want 4", n)
	}
}

// TestProfilerDifferential: a run with the hook installed must be
// bit-identical to one without — same registers, flags, memory, retirement
// count, and virtual clock. The profiler observes; it must never perturb.
func TestProfilerDifferential(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 3
		ldi	r1, 7
		mul	r0, r1
		ldi	r2, v
		store	r0, [r2]
		load	r3, [r2]
		halt
	v:	.word 0
	`)
	on, csOn := runImageProfiled(t, image, &fakeProfiler{})
	off, csOff := runImage(t, image)
	sameArchState(t, on, off, csOn, csOff)
	if on.Retired != off.Retired {
		t.Fatalf("retired diverge: %d vs %d", on.Retired, off.Retired)
	}
	if on.Clock().Now() != off.Clock().Now() {
		t.Fatalf("virtual clocks diverge: %v vs %v", on.Clock().Now(), off.Clock().Now())
	}
}

// TestProfilerClearedWithMicroarchState: the hook is execution-context
// state, wiped with the rest of the microarchitectural state on suspend so
// a later unprofiled run cannot leak retirements into a stale collector.
func TestProfilerClearedWithMicroarchState(t *testing.T) {
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(4*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	f := &fakeProfiler{}
	c.SetProfiler(f)
	if c.prof == nil {
		t.Fatal("SetProfiler did not install the hook")
	}
	c.ClearMicroarchState()
	if c.prof != nil {
		t.Fatal("ClearMicroarchState left the profiler installed")
	}
}

// TestRunSteadyStateAllocsProfilerOff pins the profiler-off cost of the
// full fetch/execute loop: with no profiler installed, re-running a
// program end to end must not allocate — the zero-allocation gate
// extended over the profiler's nil check.
func TestRunSteadyStateAllocsProfilerOff(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 8
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	if err := cs.Memory().WriteRaw(0x4000, image.Bytes); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	region := mem.Region{Base: 0x4000, Size: image.Len()}
	var (
		reason StopReason
		err    error
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.EnterRegion(region, image.Entry)
		reason, err = c.Run(0)
	})
	if err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	if allocs != 0 {
		t.Fatalf("profiler-off Run allocates %v allocs/op, want 0", allocs)
	}
}
