package sea

import (
	"fmt"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/sim"
)

// tpmTime accumulates time spent inside TPM service calls so the exec
// phase can be reported net of TPM phases (Figure 2 stacks them
// separately).
// It lives on Session; see the field access in Execute.

// service implements the PAL ABI for SEA sessions. Seal and unseal bind to
// the dynamic PCRs holding this PAL's late-launch measurement, so sealed
// state is released only to the same PAL code (§3.3).
func (s *Session) service(c *cpu.CPU, num uint16) (cpu.SvcAction, error) {
	m := s.rt.Kernel.Machine
	switch num {
	case cpu.SvcNumExit:
		s.ExitStatus = c.Regs[0]
		return cpu.SvcExit, nil

	case cpu.SvcNumYield:
		// On today's hardware a yield ends the session; state survival
		// is the PAL's job via seal (§5.7 "resume is achieved by
		// executing late launch again").
		return cpu.SvcYield, nil

	case cpu.SvcNumExtend:
		if !m.Chipset.HasTPM() {
			return 0, fmt.Errorf("sea: SVC extend without TPM")
		}
		data, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
		if err != nil {
			return 0, err
		}
		sw := sim.StartStopwatch(m.Clock)
		_, err = m.TPM().Extend(evidence.FirstDynamicPCR, evidence.Measure(data))
		s.charge("Extend", sw.Elapsed())
		return cpu.SvcContinue, err

	case cpu.SvcNumSeal:
		if !m.Chipset.HasTPM() {
			return 0, fmt.Errorf("sea: SVC seal without TPM")
		}
		data, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
		if err != nil {
			return 0, err
		}
		sw := sim.StartStopwatch(m.Clock)
		blob, err := m.TPM().Seal(s.rt.sealSelection(), data)
		s.charge(PhaseSeal, sw.Elapsed())
		if err != nil {
			return 0, err
		}
		if err := c.WriteBytes(c.Regs[2], blob); err != nil {
			return 0, err
		}
		c.Regs[0] = uint32(len(blob))
		return cpu.SvcContinue, nil

	case cpu.SvcNumUnseal:
		if !m.Chipset.HasTPM() {
			return 0, fmt.Errorf("sea: SVC unseal without TPM")
		}
		blob, err := c.ReadBytes(c.Regs[0], int(c.Regs[1]))
		if err != nil {
			return 0, err
		}
		sw := sim.StartStopwatch(m.Clock)
		data, uerr := m.TPM().Unseal(blob)
		s.charge(PhaseUnseal, sw.Elapsed())
		if uerr != nil {
			// Policy mismatch is PAL-visible, not a fault: the PAL
			// decides how to proceed (e.g. refuse to run).
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
		if !m.Chipset.HasTPM() {
			return 0, fmt.Errorf("sea: SVC random without TPM")
		}
		n := int(c.Regs[1])
		sw := sim.StartStopwatch(m.Clock)
		b, err := m.TPM().GetRandom(n)
		s.charge("GetRandom", sw.Elapsed())
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
	return 0, fmt.Errorf("sea: unknown service %d", num)
}

// charge books TPM time under a phase and into the tpmTime total.
func (s *Session) charge(phase string, d time.Duration) {
	s.Breakdown[phase] += d
	s.tpmTime += d
}
