package cpu

import (
	"bytes"
	"testing"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/sim"
)

// Tests for instruction fetch: every fetch is a checked read of the
// current word, so code the PAL rewrites runs as rewritten, and the read
// allocates nothing.

// runImage executes image on a fresh single-CPU machine, returning the
// halted CPU and its chipset.
func runImage(t *testing.T, image pal.Image) (*CPU, *chipset.Chipset) {
	t.Helper()
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	if err := cs.Memory().WriteRaw(0x4000, image.Bytes); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	c.EnterRegion(mem.Region{Base: 0x4000, Size: image.Len()}, image.Entry)
	reason, err := c.Run(0)
	if err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	return c, cs
}

// sameArchState compares the full architectural state of two halted runs.
func sameArchState(t *testing.T, a, b *CPU, csA, csB *chipset.Chipset) {
	t.Helper()
	if a.Regs != b.Regs {
		t.Fatalf("registers diverge:\n  %v\n  %v", a.Regs, b.Regs)
	}
	if a.FlagZ != b.FlagZ || a.FlagC != b.FlagC || a.FlagN != b.FlagN {
		t.Fatalf("flags diverge: Z=%v C=%v N=%v vs Z=%v C=%v N=%v",
			a.FlagZ, a.FlagC, a.FlagN, b.FlagZ, b.FlagC, b.FlagN)
	}
	mA, err := csA.Memory().ReadRaw(0, 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := csB.Memory().ReadRaw(0, 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mA, mB) {
		t.Fatal("memory contents diverge")
	}
}

// TestSelfModifyingCode executes an instruction, overwrites it in place,
// and executes the same address again: the patched instruction — not the
// one first fetched from that address — must run.
func TestSelfModifyingCode(t *testing.T) {
	const (
		e          = pal.HeaderSize
		targetAddr = e + 1*isa.WordSize // address of the patched instruction
		doneAddr   = e + 10*isa.WordSize
	)
	patched := isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 42}.Encode()
	prog := []isa.Instruction{
		{Op: isa.OpLdi, RA: 5, Imm: 1},
		{Op: isa.OpLdi, RA: 0, Imm: 7}, // TARGET: replaced by `ldi r0, 42`
		{Op: isa.OpCmp, RA: 6, RB: 5},
		{Op: isa.OpJz, Imm: doneAddr}, // second pass: exit with patched r0
		{Op: isa.OpMov, RA: 6, RB: 5}, // mark pass two
		{Op: isa.OpLdi, RA: 1, Imm: targetAddr},
		{Op: isa.OpLdi, RA: 2, Imm: uint16(patched)},
		{Op: isa.OpLui, RA: 2, Imm: uint16(patched >> 16)},
		{Op: isa.OpStore, RA: 2, RB: 1}, // overwrite TARGET in place
		{Op: isa.OpJmp, Imm: targetAddr},
		{Op: isa.OpHalt},
	}
	image, err := pal.FromCode(isa.EncodeProgram(prog), pal.HeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := runImage(t, image)
	if c.Regs[0] != 42 {
		t.Fatalf("r0 = %d, want 42: the overwritten instruction ran", c.Regs[0])
	}
}

// TestFetchSteadyStateAllocs pins the zero-allocation claim for
// instruction fetch: the checked read and decode of a word allocate
// nothing.
func TestFetchSteadyStateAllocs(t *testing.T) {
	image := pal.MustBuild("ldi r0, 0\nsvc 0")
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	if err := cs.Memory().WriteRaw(0x4000, image.Bytes); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	c.EnterRegion(mem.Region{Base: 0x4000, Size: image.Len()}, image.Entry)

	var err error
	allocs := testing.AllocsPerRun(200, func() {
		_, err = c.fetch()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("fetch allocates %v allocs/op, want 0", allocs)
	}
}
