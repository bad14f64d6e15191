package sksm

import (
	"fmt"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/isa"
)

// serviceFor builds the PAL ABI handler for a SECB, wrapped — only when
// the manager profiles — so every service call is attributed to its
// caller site with the virtual time the platform charged inside it. The
// wrapper is chosen once at SLAUNCH, so the unprofiled handler is the
// bare one: profiling off adds no work per call.
func (mg *Manager) serviceFor(s *SECB) cpu.ServiceFunc {
	base := mg.serviceBase(s)
	if mg.Prof == nil {
		return base
	}
	clock := mg.Kernel.Machine.Clock
	p := mg.Prof
	return func(c *cpu.CPU, num uint16) (cpu.SvcAction, error) {
		// The SVC trap already advanced PC past the instruction.
		caller := c.PC - isa.WordSize
		v0 := clock.Now()
		act, err := base(c, num)
		p.SvcCall(num, caller, clock.Now()-v0)
		return act, err
	}
}

// serviceBase builds the bare PAL ABI handler. Where the SEA runtime
// binds sealed storage to the dynamic PCRs, recommended hardware binds it
// to the PAL's sePCR — identity-based, so a PAL unseals its state under
// whatever register a later launch assigns (§5.4.4).
func (mg *Manager) serviceBase(s *SECB) cpu.ServiceFunc {
	m := mg.Kernel.Machine
	return func(c *cpu.CPU, num uint16) (cpu.SvcAction, error) {
		switch num {
		case cpu.SvcNumExit:
			s.ExitStatus = c.Regs[0]
			// By convention the PAL outputs its sePCR handle so
			// untrusted code can quote it (§5.4.1); the manager
			// records it on the SECB, which models the same channel.
			return cpu.SvcExit, nil

		case cpu.SvcNumYield:
			return cpu.SvcYield, nil

		case cpu.SvcNumExtend:
			data, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
			if err != nil {
				return 0, err
			}
			_, err = m.TPM().SePCRExtend(s.SePCRHandle, c.ID, evidence.Measure(data))
			return cpu.SvcContinue, err

		case cpu.SvcNumSeal:
			data, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
			if err != nil {
				return 0, err
			}
			blob, err := m.TPM().SealSePCR(s.SePCRHandle, c.ID, data)
			if err != nil {
				return 0, err
			}
			if err := c.WriteBytes(c.Regs[2], blob); err != nil {
				return 0, err
			}
			c.Regs[0] = uint32(len(blob))
			return cpu.SvcContinue, nil

		case cpu.SvcNumUnseal:
			blob, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
			if err != nil {
				return 0, err
			}
			data, uerr := m.TPM().UnsealSePCR(s.SePCRHandle, c.ID, blob)
			if uerr != nil {
				c.Regs[0] = 0
				c.Regs[1] = 1
				return cpu.SvcContinue, nil
			}
			if err := c.WriteBytes(c.Regs[2], data); err != nil {
				return 0, err
			}
			c.Regs[0] = uint32(len(data))
			c.Regs[1] = 0
			return cpu.SvcContinue, nil

		case cpu.SvcNumRandom:
			b, err := m.TPM().GetRandom(int(c.Regs[1]))
			if err != nil {
				return 0, err
			}
			if err := c.WriteBytes(c.Regs[0], b); err != nil {
				return 0, err
			}
			return cpu.SvcContinue, nil

		case cpu.SvcNumOutput:
			b, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
			if err != nil {
				return 0, err
			}
			s.Output = append(s.Output, b...)
			return cpu.SvcContinue, nil

		case cpu.SvcNumInput:
			n := int(c.Regs[1])
			if n > len(s.Input) {
				n = len(s.Input)
			}
			if err := c.WriteBytes(c.Regs[0], s.Input[:n]); err != nil {
				return 0, err
			}
			c.Regs[0] = uint32(n)
			return cpu.SvcContinue, nil

		case cpu.SvcNumGetTime:
			c.Regs[0] = uint32(m.Clock.Now())
			return cpu.SvcContinue, nil
		}
		return 0, fmt.Errorf("sksm: unknown service %d", num)
	}
}
