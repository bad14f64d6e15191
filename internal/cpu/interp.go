package cpu

import (
	"fmt"
	"time"

	"minimaltcb/internal/isa"
)

// Run executes instructions from the current region until the PAL halts,
// yields, faults, or — when quantum > 0 — the execution quantum expires
// (the preemption timer of §5.3, which on recommended hardware the
// untrusted OS configures in the SECB). The charged virtual time per
// instruction is Params.InstrCost.
//
// On StopFault the returned error describes the fault; for the other stop
// reasons the error is nil.
//
// The quantum counts instruction time only: virtual time a service call
// spends inside the TPM does not advance the preemption timer, mirroring
// hardware where the timer gates CPU execution and TPM commands complete
// atomically from the scheduler's viewpoint.
func (c *CPU) Run(quantum time.Duration) (StopReason, error) {
	var elapsed time.Duration
	for {
		if quantum > 0 && elapsed >= quantum {
			return StopPreempted, nil
		}
		in, err := c.fetch()
		if err != nil {
			return StopFault, err
		}
		if c.tracer != nil {
			c.tracer(c, c.PC, in)
		}
		c.Clock().Advance(c.Params.InstrCost)
		elapsed += c.Params.InstrCost
		c.Retired++
		if c.prof != nil {
			c.prof.RetireInstr(c.PC, in.Op, c.Params.InstrCost)
		}

		action, err := c.execute(in)
		if err != nil {
			return StopFault, err
		}
		switch action {
		case SvcExit:
			return StopHalt, nil
		case SvcYield:
			return StopYield, nil
		}
	}
}

// fetch reads and decodes the instruction at PC. It is the same
// access-checked read as every load: the region bounds check, then the
// chipset's consultation of the page's access-control entry (§5.2).
func (c *CPU) fetch() (isa.Instruction, error) {
	phys, err := c.translate(c.PC, isa.WordSize)
	if err != nil {
		return isa.Instruction{}, fmt.Errorf("%w: fetch at pc=%d: %v", ErrFault, c.PC, err)
	}
	word, err := c.chip.CPUReadWord(c.ID, phys)
	if err != nil {
		return isa.Instruction{}, fmt.Errorf("%w: pc=%d: %v", ErrFault, c.PC, err)
	}
	in, err := isa.Decode(word)
	if err != nil {
		return isa.Instruction{}, fmt.Errorf("%w: pc=%d: %v", ErrFault, c.PC, err)
	}
	return in, nil
}

// execute runs one decoded instruction. It returns the action requested by
// a service call (SvcContinue otherwise).
func (c *CPU) execute(in isa.Instruction) (SvcAction, error) {
	next := c.PC + isa.WordSize
	ra, rb := in.RA, in.RB
	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.PC = next
		return SvcExit, nil
	case isa.OpMov:
		c.Regs[ra] = c.Regs[rb]
	case isa.OpLdi:
		c.Regs[ra] = uint32(in.Imm)
	case isa.OpLui:
		c.Regs[ra] = (c.Regs[ra] & 0xffff) | uint32(in.Imm)<<16
	case isa.OpAddi:
		c.Regs[ra] += uint32(int32(int16(in.Imm)))
	case isa.OpAdd:
		c.Regs[ra] += c.Regs[rb]
	case isa.OpSub:
		c.Regs[ra] -= c.Regs[rb]
	case isa.OpMul:
		c.Regs[ra] *= c.Regs[rb]
	case isa.OpDivu:
		if c.Regs[rb] == 0 {
			return 0, fmt.Errorf("%w: divide by zero at pc=%d", ErrFault, c.PC)
		}
		c.Regs[ra] /= c.Regs[rb]
	case isa.OpRemu:
		if c.Regs[rb] == 0 {
			return 0, fmt.Errorf("%w: remainder by zero at pc=%d", ErrFault, c.PC)
		}
		c.Regs[ra] %= c.Regs[rb]
	case isa.OpAnd:
		c.Regs[ra] &= c.Regs[rb]
	case isa.OpOr:
		c.Regs[ra] |= c.Regs[rb]
	case isa.OpXor:
		c.Regs[ra] ^= c.Regs[rb]
	case isa.OpShl:
		c.Regs[ra] <<= c.Regs[rb] & 31
	case isa.OpShr:
		c.Regs[ra] >>= c.Regs[rb] & 31
	case isa.OpLoad:
		v, err := c.ReadWord(c.Regs[rb] + uint32(int32(int16(in.Imm))))
		if err != nil {
			return 0, err
		}
		c.Regs[ra] = v
	case isa.OpLoadb:
		b, err := c.LoadByte(c.Regs[rb] + uint32(int32(int16(in.Imm))))
		if err != nil {
			return 0, err
		}
		c.Regs[ra] = uint32(b)
	case isa.OpStore:
		if err := c.WriteWord(c.Regs[rb]+uint32(int32(int16(in.Imm))), c.Regs[ra]); err != nil {
			return 0, err
		}
	case isa.OpStoreb:
		if err := c.StoreByte(c.Regs[rb]+uint32(int32(int16(in.Imm))), byte(c.Regs[ra])); err != nil {
			return 0, err
		}
	case isa.OpCmp:
		a, b := c.Regs[ra], c.Regs[rb]
		c.FlagZ = a == b
		c.FlagC = a < b
		c.FlagN = int32(a) < int32(b)
	case isa.OpJmp:
		c.PC = uint32(in.Imm)
		return SvcContinue, nil
	case isa.OpJz:
		if c.FlagZ {
			c.PC = uint32(in.Imm)
			return SvcContinue, nil
		}
	case isa.OpJnz:
		if !c.FlagZ {
			c.PC = uint32(in.Imm)
			return SvcContinue, nil
		}
	case isa.OpJc:
		if c.FlagC {
			c.PC = uint32(in.Imm)
			return SvcContinue, nil
		}
	case isa.OpJnc:
		if !c.FlagC {
			c.PC = uint32(in.Imm)
			return SvcContinue, nil
		}
	case isa.OpJn:
		if c.FlagN {
			c.PC = uint32(in.Imm)
			return SvcContinue, nil
		}
	case isa.OpJmpr:
		c.PC = c.Regs[ra]
		return SvcContinue, nil
	case isa.OpCall:
		if err := c.push(next); err != nil {
			return 0, err
		}
		c.PC = uint32(in.Imm)
		return SvcContinue, nil
	case isa.OpRet:
		v, err := c.pop()
		if err != nil {
			return 0, err
		}
		c.PC = v
		return SvcContinue, nil
	case isa.OpPush:
		if err := c.push(c.Regs[ra]); err != nil {
			return 0, err
		}
	case isa.OpPop:
		v, err := c.pop()
		if err != nil {
			return 0, err
		}
		c.Regs[ra] = v
	case isa.OpSvc:
		c.PC = next // handler sees the post-SVC PC, as after a trap
		if handled, err := c.handleArchService(in.Imm); handled {
			return SvcContinue, err
		}
		if c.svc == nil {
			return 0, fmt.Errorf("%w (SVC %d)", ErrNoService, in.Imm)
		}
		return c.svc(c, in.Imm)
	default:
		return 0, fmt.Errorf("%w: unimplemented opcode %v at pc=%d", ErrFault, in.Op, c.PC)
	}
	c.PC = next
	return SvcContinue, nil
}

// push writes v to the descending stack at r7.
func (c *CPU) push(v uint32) error {
	sp := c.Regs[7]
	if sp < isa.WordSize {
		return fmt.Errorf("%w: stack overflow (sp=%d)", ErrFault, sp)
	}
	sp -= isa.WordSize
	if err := c.WriteWord(sp, v); err != nil {
		return err
	}
	c.Regs[7] = sp
	return nil
}

// pop reads the top-of-stack word at r7.
func (c *CPU) pop() (uint32, error) {
	sp := c.Regs[7]
	v, err := c.ReadWord(sp)
	if err != nil {
		return 0, fmt.Errorf("%w: stack underflow (sp=%d): %v", ErrFault, sp, err)
	}
	c.Regs[7] = sp + isa.WordSize
	return v, nil
}
