package sksm

import (
	"encoding/hex"

	"minimaltcb/internal/mem"
	"minimaltcb/internal/obs/prof"
)

// crashBundle assembles the flight-recorder snapshot for a faulted or
// killed SECB. It runs after the fault path's Suspend — the architectural
// state in s.CPUState is what the hardware saved at the moment of the
// fault — and, on the skill path, before the pages are zeroed, so the
// memory-ownership map still shows the PAL's seclusion. Must be called
// under the machine's serialization, like everything else here.
func (mg *Manager) crashBundle(s *SECB, reason string, ferr error) *prof.CrashBundle {
	m := mg.Kernel.Machine
	b := &prof.CrashBundle{
		VirtNs:  m.Clock.Now().Nanoseconds(),
		Reason:  reason,
		Tenant:  mg.Job.Tenant,
		Trace:   mg.Job.Trace,
		Machine: mg.Job.Machine,
		CPU:     s.OwnerCPU,
		Image:   hex.EncodeToString(s.Measurement[:]),
		Slices:  s.Slices,
		Resumes: s.Resumes,
		SePCR:   s.SePCRHandle,
		Regs:    s.CPUState,
		Region: prof.RegionInfo{
			Base:     s.Region.Base,
			Size:     s.Region.Size,
			Entry:    s.entry,
			SECBBase: s.SECBRegion.Base,
		},
		HotPCs: mg.Prof.HotPCs(s.Measurement, 8),
	}
	if ferr != nil {
		b.Error = ferr.Error()
	}

	t := m.TPM()
	for h := 0; h < t.NumSePCRs(); h++ {
		st, err := t.SePCRStateOf(h)
		if err != nil {
			break
		}
		b.SePCRBank = append(b.SePCRBank, st.String())
	}

	memory := m.Chipset.Memory()
	for p := 0; p < memory.NumPages(); p++ {
		st, err := memory.State(p)
		if err != nil {
			break
		}
		switch {
		case st == mem.AccessAll:
			b.Memory.PagesAll++
		case st == mem.AccessNone:
			b.Memory.PagesNone++
		default:
			b.Memory.PagesOwned++
		}
	}
	full := s.fullRegion()
	for p := mem.PageOf(full.Base); p <= mem.PageOf(full.Base+uint32(full.Size)-1); p++ {
		st, err := memory.State(p)
		if err != nil {
			break
		}
		b.Memory.RegionPages = append(b.Memory.RegionPages, prof.PageInfo{Page: p, State: st.String()})
	}
	return b
}
