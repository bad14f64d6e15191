package cpu

import (
	"crypto/rsa"
	"fmt"

	"minimaltcb/internal/acmod"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// SLBHeader reads the Secure Loader Block header at base with microcode
// (raw) access and returns the region the header declares and the entry
// offset. Every late launch — SKINIT, SENTER and sksm's SLAUNCH — takes
// the SLB's length and entry from here, never from software's word.
func SLBHeader(m *mem.Memory, base uint32) (region mem.Region, entry uint16, err error) {
	var hdr [pal.HeaderSize]byte
	if err := m.ReadInto(hdr[:], base); err != nil {
		return mem.Region{}, 0, err
	}
	length, entry, err := pal.ParseHeader(hdr[:])
	if err != nil {
		return mem.Region{}, 0, err
	}
	return mem.Region{Base: base, Size: length}, entry, nil
}

// This file implements the late-launch microcode of 2007 hardware.
//
// SKINIT (AMD, §2.2.1): DEV-protect the SLB, reset the core to its trusted
// state with interrupts disabled, stream the entire SLB to the TPM over the
// LPC bus (TPM_HASH_START/DATA/END at locality 4, which resets the dynamic
// PCRs and extends PCR 17), then jump to the SLB's entry point.
//
// SENTER (Intel, §2.2.2): additionally loads an Intel-signed Authenticated
// Code Module; the chipset verifies its signature with a fused key and the
// ACMod itself — running on the main CPU — hashes the PAL and extends
// PCR 18. Only the ~10 KB ACMod crosses the slow bus, which is why Intel's
// Table 1 column starts high but grows slowly.

// LaunchResult reports what a late launch measured and where execution
// begins.
type LaunchResult struct {
	// Region is the protected memory region covering the SLB.
	Region mem.Region
	// Entry is the PAL entry offset.
	Entry uint16
	// PALMeasurement is SHA1 of the full SLB image.
	PALMeasurement tpm.Digest
	// PCR17 and PCR18 are the dynamic PCR values after launch (PCR18
	// meaningful on Intel only).
	PCR17, PCR18 tpm.Digest
}

// SKINIT performs AMD late launch of the SLB at physical address slbBase.
// On return the core is inside the PAL region with PC at its entry point;
// the caller then drives execution with Run. On platforms without a TPM
// the bus transfer still happens (the Tyan n3600R measurement) but no
// measurement is recorded.
func (c *CPU) SKINIT(slbBase uint32) (*LaunchResult, error) {
	if c.Params.Vendor != AMD {
		return nil, fmt.Errorf("%w: SKINIT on %v", ErrWrongModel, c.Params.Vendor)
	}
	if c.Ring != 0 {
		// Invoked from kernel mode; model callers run the kernel path.
		c.Ring = 0
	}
	chip := c.chip
	region, entry, err := SLBHeader(chip.Memory(), slbBase)
	if err != nil {
		return nil, fmt.Errorf("cpu: SKINIT: %w", err)
	}

	// DMA-protect the SLB pages via the DEV before anything else — the
	// window between measurement and execution must be closed to devices.
	if err := chip.SetDEVRegion(region, true); err != nil {
		return nil, fmt.Errorf("cpu: SKINIT DEV: %w", err)
	}

	// Reset the core: clean state, interrupts off, debug access disabled.
	c.Reset()
	c.Clock().Advance(c.Params.InitCost)

	// Measure the SLB where it lies: read-only views of its bytes, one
	// per memory chunk. An SLB is at most 64 KB, so it spans at most two.
	var viewBuf [2][]byte
	views, err := chip.Memory().Views(viewBuf[:0], region.Base, region.Size)
	if err != nil {
		return nil, fmt.Errorf("cpu: SKINIT image: %w", err)
	}
	res := &LaunchResult{Region: region, Entry: entry}

	bus := chip.Bus()
	if err := bus.SetLocality(4); err != nil {
		return nil, err
	}
	defer bus.SetLocality(0)

	if chip.HasTPM() {
		t := chip.TPM()
		if err := t.HashStart(); err != nil {
			return nil, fmt.Errorf("cpu: SKINIT hash start: %w", err)
		}
		// The Table 1 cost: the SLB's bytes through the TPM's wait
		// states, charged once for the whole SLB.
		bus.TransferHash(region.Size)
		for _, v := range views {
			if err := t.HashData(v); err != nil {
				return nil, err
			}
		}
		if res.PALMeasurement, res.PCR17, err = t.HashEnd(); err != nil {
			return nil, err
		}
	} else {
		// No TPM: the transfer still crosses the LPC bus at full speed.
		bus.TransferHash(region.Size)
		res.PALMeasurement = tpm.MeasureImage(views...)
	}

	c.EnterRegion(region, entry)
	return res, nil
}

// SENTER performs Intel late launch: module is the Authenticated Code
// Module and fused is the chipset's burned-in verification key. The launch
// aborts — undoing memory protections — if the module's signature does not
// verify.
func (c *CPU) SENTER(slbBase uint32, module *acmod.Module, fused *rsa.PublicKey) (*LaunchResult, error) {
	if c.Params.Vendor != Intel {
		return nil, fmt.Errorf("%w: SENTER on %v", ErrWrongModel, c.Params.Vendor)
	}
	chip := c.chip
	if !chip.HasTPM() {
		return nil, fmt.Errorf("cpu: SENTER requires a TPM")
	}

	region, entry, err := SLBHeader(chip.Memory(), slbBase)
	if err != nil {
		return nil, fmt.Errorf("cpu: SENTER: %w", err)
	}

	// The MPT protects the ACMod+PAL region from outside access; the DEV
	// bit vector models it.
	if err := chip.SetDEVRegion(region, true); err != nil {
		return nil, fmt.Errorf("cpu: SENTER MPT: %w", err)
	}

	c.Reset()
	c.Clock().Advance(c.Params.InitCost)

	bus := chip.Bus()
	if err := bus.SetLocality(4); err != nil {
		return nil, err
	}
	defer bus.SetLocality(0)

	t := chip.TPM()

	// Phase 1: the ACMod crosses the LPC bus and is measured into PCR 17.
	// The signature check below reuses the TPM's own digest of the bytes.
	if err := t.HashStart(); err != nil {
		return nil, fmt.Errorf("cpu: SENTER hash start: %w", err)
	}
	bus.TransferHash(len(module.Code))
	if err := t.HashData(module.Code); err != nil {
		return nil, err
	}
	acmDigest, pcr17, err := t.HashEnd()
	if err != nil {
		return nil, err
	}

	// The chipset verifies the ACMod signature against the fused key.
	c.Clock().Advance(c.Params.SigVerifyCost)
	if err := acmod.VerifyWithDigest(fused, module, acmDigest); err != nil {
		chip.SetDEVRegion(region, false) // abort: undo protections
		return nil, fmt.Errorf("cpu: SENTER aborted: %w", err)
	}

	// Phase 2: the ACMod hashes the PAL on the main CPU and extends the
	// 20-byte digest into PCR 18 — only a constant amount crosses the bus.
	var viewBuf [2][]byte
	views, err := chip.Memory().Views(viewBuf[:0], region.Base, region.Size)
	if err != nil {
		return nil, fmt.Errorf("cpu: SENTER image: %w", err)
	}
	meas := c.HashOnCPU(views...)
	pcr18, err := t.ExtendMicrocode(18, meas)
	if err != nil {
		return nil, err
	}

	c.EnterRegion(region, entry)
	return &LaunchResult{
		Region:         region,
		Entry:          entry,
		PALMeasurement: meas,
		PCR17:          pcr17,
		PCR18:          pcr18,
	}, nil
}
