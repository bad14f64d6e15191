package isa_test

import (
	"bytes"
	"testing"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/sim"
)

// FuzzExecDifferential is the executable extension of the ISA fuzz harness:
// any byte string, run as a program, must compute the same thing wherever
// the preemption timer fires. World A runs it in slices of k instructions,
// resuming after each preemption, for up to 64 slices; world B runs it
// once with a quantum of 64·k instructions. Both must end with the same
// stop reason, error text, PC, registers, flags, retirement count, virtual
// clock and memory. This is the interrupt-placement property of Busi et
// al.'s interruptible enclaves (PAPERS.md), checked at the core: where the
// timer fires must not change what the PAL computes.
//
// Stores land anywhere in the region, including over the program's own
// instructions, and undecodable words and runtime faults (division by
// zero, stack over/underflow, out-of-region accesses) must surface the
// identical error at the identical PC in both worlds.
//
// This lives in package isa_test (not isa) because it needs the cpu
// package, which imports isa.
func FuzzExecDifferential(f *testing.F) {
	enc := func(prog ...isa.Instruction) []byte { return isa.EncodeProgram(prog) }

	// A counted loop.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 0},
		isa.Instruction{Op: isa.OpLdi, RA: 1, Imm: 30},
		isa.Instruction{Op: isa.OpAddi, RA: 0, Imm: 1}, // loop
		isa.Instruction{Op: isa.OpAdd, RA: 2, RB: 0},
		isa.Instruction{Op: isa.OpCmp, RA: 0, RB: 1},
		isa.Instruction{Op: isa.OpJnz, Imm: 8},
		isa.Instruction{Op: isa.OpHalt},
	), uint32(0), uint32(0), uint8(9))

	// Self-modifying: the loop stores a fresh word over its own body.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 0},
		isa.Instruction{Op: isa.OpLdi, RA: 2, Imm: 12},
		isa.Instruction{Op: isa.OpLdi, RA: 3, Imm: 9},
		isa.Instruction{Op: isa.OpAddi, RA: 0, Imm: 1}, // loop; also the store target
		isa.Instruction{Op: isa.OpStore, RA: 3, RB: 2},
		isa.Instruction{Op: isa.OpCmp, RA: 0, RB: 1},
		isa.Instruction{Op: isa.OpJnz, Imm: 12},
		isa.Instruction{Op: isa.OpHalt},
	), uint32(0), uint32(0), uint8(3))

	// Division faults once r1 counts down to zero.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 1, Imm: 5},
		isa.Instruction{Op: isa.OpLdi, RA: 2, Imm: 1},
		isa.Instruction{Op: isa.OpLdi, RA: 3, Imm: 100}, // loop
		isa.Instruction{Op: isa.OpDivu, RA: 3, RB: 1},
		isa.Instruction{Op: isa.OpSub, RA: 1, RB: 2},
		isa.Instruction{Op: isa.OpJmp, Imm: 8},
	), uint32(0), uint32(0), uint8(5))

	// Stack traffic: call/ret plus push/pop pairs.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 7},
		isa.Instruction{Op: isa.OpCall, Imm: 16},
		isa.Instruction{Op: isa.OpHalt},
		isa.Instruction{Op: isa.OpNop},
		isa.Instruction{Op: isa.OpPush, RA: 0}, // sub
		isa.Instruction{Op: isa.OpPush, RA: 0},
		isa.Instruction{Op: isa.OpPop, RA: 1},
		isa.Instruction{Op: isa.OpPop, RA: 2},
		isa.Instruction{Op: isa.OpRet},
	), uint32(3), uint32(4), uint8(0))

	// Raw garbage: must fault identically.
	f.Add([]byte{0xff, 0x13, 0x22, 0x9c, 0x01, 0x02}, uint32(1), uint32(2), uint8(2))

	// Never halts: both worlds must stop preempted after exactly 64·k
	// instructions.
	f.Add(enc(
		isa.Instruction{Op: isa.OpAddi, RA: 0, Imm: 1},
		isa.Instruction{Op: isa.OpJmp, Imm: 0},
	), uint32(0), uint32(0), uint8(6))

	f.Fuzz(func(t *testing.T, prog []byte, r0, r1 uint32, qsel uint8) {
		if len(prog) == 0 || len(prog) > 256*isa.WordSize {
			return
		}
		prog = prog[:len(prog)/isa.WordSize*isa.WordSize]
		if len(prog) == 0 {
			return
		}
		// The region holds the program plus a stack/data page; sp starts at
		// the region top, clear of the code.
		const base = 0x4000
		size := len(prog) + int(mem.PageSize)

		type machine struct {
			c  *cpu.CPU
			cs *chipset.Chipset
		}
		mk := func() machine {
			clock := sim.NewClock()
			cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
			c := cpu.New(0, cpu.ParamsAMDdc5750(), cs)
			if err := cs.Memory().WriteRaw(base, prog); err != nil {
				t.Fatal(err)
			}
			c.Reset()
			c.EnterRegion(mem.Region{Base: base, Size: size}, 0)
			c.Regs[0], c.Regs[1] = r0, r1
			return machine{c, cs}
		}
		sliced, whole := mk(), mk()

		// k instructions per slice; a quantum of 0 would never preempt
		// an infinite loop, so k is at least one. Slices are capped so
		// looping inputs terminate.
		const maxSlices = 64
		k := time.Duration(1 + int(qsel%32))
		instr := cpu.ParamsAMDdc5750().InstrCost

		var reasonA cpu.StopReason
		var errA error
		for slice := 0; slice < maxSlices; slice++ {
			reasonA, errA = sliced.c.Run(k * instr)
			if reasonA != cpu.StopPreempted {
				break // halted, yielded, or faulted
			}
		}
		reasonB, errB := whole.c.Run(maxSlices * k * instr)

		a, b := sliced.c, whole.c
		if reasonA != reasonB {
			t.Fatalf("stop reasons diverge: sliced %v, whole %v", reasonA, reasonB)
		}
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("errors diverge:\n  sliced %v\n  whole  %v", errA, errB)
		}
		if a.PC != b.PC {
			t.Fatalf("PC diverges: sliced %d, whole %d", a.PC, b.PC)
		}
		if a.Regs != b.Regs {
			t.Fatalf("registers diverge:\n  sliced %v\n  whole  %v", a.Regs, b.Regs)
		}
		if a.FlagZ != b.FlagZ || a.FlagC != b.FlagC || a.FlagN != b.FlagN {
			t.Fatal("flags diverge")
		}
		if a.Retired != b.Retired {
			t.Fatalf("retirement counts diverge: sliced %d, whole %d", a.Retired, b.Retired)
		}
		if a.Clock().Now() != b.Clock().Now() {
			t.Fatalf("virtual clocks diverge: sliced %v, whole %v", a.Clock().Now(), b.Clock().Now())
		}
		mA, err := sliced.cs.Memory().ReadRaw(0, 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		mB, err := whole.cs.Memory().ReadRaw(0, 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mA, mB) {
			t.Fatal("memory contents diverge between sliced and whole runs")
		}
	})
}
