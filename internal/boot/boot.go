// Package boot models the static measured-boot chain of §2.1.1 — the
// "originally envisioned" TCG usage the paper contrasts SEA against: every
// layer loaded since power-on (BIOS, option ROMs, bootloader, kernel,
// modules) is measured into the static PCRs, and a verifier must assess
// the entire resulting list to trust the platform.
//
// The package exists for that contrast: experiments and examples use it to
// show how large the attested TCB is under trusted boot versus the single
// PAL measurement a late launch yields, which is the paper's motivation in
// one number.
package boot

import (
	"fmt"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/tpm"
)

// Standard static PCR assignments (TCG PC client conventions, simplified).
const (
	PCRFirmware   = 0 // BIOS/firmware code
	PCRConfig     = 1 // firmware configuration
	PCROptionROMs = 2 // peripheral firmware
	PCRBootloader = 4 // MBR/bootloader code
	PCRKernel     = 8 // OS kernel and modules (bootloader-measured)
)

// Component is one measured layer of the boot chain.
type Component struct {
	// PCR is the static register the component extends.
	PCR int
	// Name describes the layer ("BIOS v2.3", "GRUB stage2", ...).
	Name string
	// Code is the component image; its hash is the measurement.
	Code []byte
}

// Chain is an ordered boot sequence.
type Chain []Component

// TypicalChain returns a representative 2007 software stack: firmware,
// two option ROMs, bootloader, kernel, and a pile of modules — the layers
// §1 lists as each application's inherited TCB.
func TypicalChain() Chain {
	mk := func(pcr int, name string, size int, fill byte) Component {
		code := make([]byte, size)
		for i := range code {
			code[i] = fill ^ byte(i)
		}
		return Component{PCR: pcr, Name: name, Code: code}
	}
	chain := Chain{
		mk(PCRFirmware, "BIOS", 512<<10, 0x11),
		mk(PCRConfig, "BIOS configuration", 4<<10, 0x22),
		mk(PCROptionROMs, "NIC option ROM", 64<<10, 0x33),
		mk(PCROptionROMs, "storage option ROM", 48<<10, 0x44),
		mk(PCRBootloader, "bootloader", 32<<10, 0x55),
		mk(PCRKernel, "kernel", 4<<20, 0x66),
	}
	for i := 0; i < 12; i++ {
		chain = append(chain, mk(PCRKernel, fmt.Sprintf("module-%02d", i), 128<<10, byte(0x70+i)))
	}
	return chain
}

// Measure executes the chain against a TPM: each component is hashed and
// extended into its static PCR, and the returned log is what the platform
// presents to verifiers.
func (c Chain) Measure(chip *tpm.TPM) (attest.Log, error) {
	log := make(attest.Log, 0, len(c))
	for _, comp := range c {
		m := evidence.Measure(comp.Code)
		if _, err := chip.Extend(comp.PCR, m); err != nil {
			return nil, fmt.Errorf("boot: measuring %s: %w", comp.Name, err)
		}
		log = append(log, attest.Event{PCR: comp.PCR, Description: comp.Name, Measurement: m})
	}
	return log, nil
}

// PCRs returns the distinct static registers the chain touches, in first-
// appearance order — the selection a trusted-boot quote covers.
func (c Chain) PCRs() tpm.Selection {
	var sel tpm.Selection
	seen := map[int]bool{}
	for _, comp := range c {
		if !seen[comp.PCR] {
			seen[comp.PCR] = true
			sel = append(sel, comp.PCR)
		}
	}
	return sel
}

// TCBBytes sums the measured code — the amount of software a trusted-boot
// verifier must vouch for.
func (c Chain) TCBBytes() int {
	total := 0
	for _, comp := range c {
		total += len(comp.Code)
	}
	return total
}

// VerifyChainQuote is the verifier side of §2.1.1: validate the quote
// signature and nonce, check the log replays to the quoted composite, then
// insist every single component is on the known-good list. One
// unrecognized module anywhere in the stack — the situation that makes
// trusted boot unmanageable at scale — fails the whole platform. It
// returns the recognized component names in boot order.
func VerifyChainQuote(cert *attest.AIKCert, q *tpm.Quote, log attest.Log, nonce []byte, knownGood map[tpm.Digest]string) ([]string, error) {
	if err := evidence.VerifyQuote(cert.AIK, q); err != nil {
		return nil, fmt.Errorf("boot: quote signature: %w", err)
	}
	if string(q.Nonce) != string(nonce) {
		return nil, fmt.Errorf("boot: nonce mismatch")
	}
	finals := log.Replay()
	vals := make([]tpm.Digest, len(q.Selection))
	for i, idx := range q.Selection {
		vals[i] = finals[idx]
	}
	if evidence.CompositeDigest(q.Selection, vals) != q.Composite {
		return nil, fmt.Errorf("boot: log does not replay to quoted composite")
	}
	names := make([]string, 0, len(log))
	for _, e := range log {
		name, ok := knownGood[e.Measurement]
		if !ok {
			return nil, fmt.Errorf("boot: unrecognized component %q in the chain — platform untrusted", e.Description)
		}
		names = append(names, name)
	}
	return names, nil
}
