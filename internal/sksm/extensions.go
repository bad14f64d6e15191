package sksm

import (
	"fmt"

	"minimaltcb/internal/cpu"
)

// This file implements the §6 extensions the paper sketches beyond its
// core recommendations: joining additional CPUs to a running PAL
// (multicore PALs) and the bookkeeping that keeps the join sound across
// suspension.

// Join adds core c to an executing PAL: the memory controller grants the
// core access to the PAL's pages, and the SECB records the membership.
// The paper motivates this for PALs whose threads communicate too often to
// be split into separate single-CPU PALs (§6 "Multicore PALs").
func (mg *Manager) Join(c *cpu.CPU, s *SECB) error {
	if s.State != StateExecute {
		return fmt.Errorf("%w: join while %v (PAL must be executing)", ErrBadState, s.State)
	}
	if c.ID == s.OwnerCPU {
		return fmt.Errorf("sksm: CPU%d already owns the PAL", c.ID)
	}
	for _, id := range s.JoinedCPUs {
		if id == c.ID {
			return fmt.Errorf("sksm: CPU%d already joined", c.ID)
		}
	}
	if err := mg.Kernel.Machine.Chipset.ShareRegion(s.Region, s.OwnerCPU, c.ID); err != nil {
		return err
	}
	s.JoinedCPUs = append(s.JoinedCPUs, c.ID)
	// The joining core enters the PAL's trusted state too: clean
	// registers, interrupts off, confined to the PAL region, at the
	// entry SLAUNCH took from the SLB header.
	c.Reset()
	mg.Kernel.Machine.Clock.Advance(c.Params.InitCost)
	c.EnterRegion(s.Region, s.entry)
	c.SetService(mg.serviceFor(s))
	return nil
}

// Leave removes a joined core from the PAL, clearing its state and
// revoking its page access.
func (mg *Manager) Leave(c *cpu.CPU, s *SECB) error {
	idx := -1
	for i, id := range s.JoinedCPUs {
		if id == c.ID {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("sksm: CPU%d has not joined this PAL", c.ID)
	}
	if err := mg.Kernel.Machine.Chipset.UnshareRegion(s.Region, c.ID); err != nil {
		return err
	}
	c.ClearMicroarchState()
	s.JoinedCPUs = append(s.JoinedCPUs[:idx], s.JoinedCPUs[idx+1:]...)
	return nil
}

// SuspendAll suspends a multicore PAL: joined cores leave first (their
// access is revoked and microarchitectural state cleared), then the owner
// suspends normally. Membership is not preserved across suspension — the
// OS re-joins workers after resume, mirroring how the page-table shares
// are dropped by the memory controller on seclusion.
func (mg *Manager) SuspendAll(owner *cpu.CPU, s *SECB) error {
	cores := mg.Kernel.Machine.CPUs
	for _, id := range append([]int(nil), s.JoinedCPUs...) {
		if err := mg.Leave(cores[id], s); err != nil {
			return err
		}
	}
	return mg.Suspend(owner, s)
}
