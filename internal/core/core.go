// Package core is the library's public face: it assembles a simulated
// platform, compiles PALs from assembler source, executes them under
// either execution model the paper analyzes — SEA on today's (2007)
// hardware, or the recommended SLAUNCH architecture — and runs the full
// external-verification loop (Privacy CA, quote, log replay).
//
// A minimal round trip:
//
//	sys, _ := core.NewSystem(platform.HPdc5750())
//	p, _ := core.CompilePAL("hello", `
//	        ldi r0, msg
//	        ldi r1, 5
//	        svc 6
//	        ldi r0, 0
//	        svc 0
//	msg:    .ascii "hello"
//	`)
//	res, _ := sys.RunLegacy(p, nil)
//	fmt.Printf("%s in %v\n", res.Output, res.Total)
package core

import (
	"errors"
	"fmt"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sea"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

// System is an assembled platform with both execution runtimes and the
// attestation infrastructure around it.
type System struct {
	// Machine is the simulated hardware.
	Machine *platform.Machine
	// Kernel is the untrusted OS.
	Kernel *osker.Kernel
	// SEA is the today's-hardware runtime (always available).
	SEA *sea.Runtime
	// SKSM is the recommended-hardware runtime; nil unless the profile
	// provisions sePCRs (use platform.Recommended).
	SKSM *sksm.Manager

	// CA, Cert and Verifier model the attestation ecosystem: a Privacy
	// CA that certified this platform's AIK, and an external verifier
	// trusting that CA. All nil on TPM-less platforms.
	CA       *attest.PrivacyCA
	Cert     *attest.AIKCert
	Verifier *attest.Verifier
}

// NewSystem assembles a platform and its attestation ecosystem.
func NewSystem(profile platform.Profile) (*System, error) {
	m, err := platform.New(profile)
	if err != nil {
		return nil, err
	}
	k := osker.NewKernel(m)
	sys := &System{
		Machine: m,
		Kernel:  k,
		SEA:     sea.NewRuntime(k),
	}
	if profile.NumSePCRs > 0 {
		mg, err := sksm.NewManager(k)
		if err != nil {
			return nil, err
		}
		sys.SKSM = mg
	}
	if m.Chipset.HasTPM() {
		bits := profile.KeyBits
		ca, err := attest.NewPrivacyCA(profile.Seed^0xca, bits)
		if err != nil {
			return nil, err
		}
		cert, err := ca.Certify(profile.Name, m.TPM().AIKPublic())
		if err != nil {
			return nil, err
		}
		sys.CA = ca
		sys.Cert = cert
		sys.Verifier = attest.NewVerifier(ca.Public())
	}
	return sys, nil
}

// PAL is a named, compiled Piece of Application Logic.
type PAL struct {
	// Name identifies the PAL to verifiers.
	Name string
	// Image is the built SLB image.
	Image pal.Image
}

// Measurement returns the PAL's attested identity: SHA-1 of its image.
func (p *PAL) Measurement() tpm.Digest { return evidence.Measure(p.Image.Bytes) }

// CompilePAL assembles PAL source (see internal/isa for the syntax and
// internal/cpu for the SVC ABI) into a launchable image.
func CompilePAL(name, source string) (*PAL, error) {
	im, err := pal.Build(source)
	if err != nil {
		return nil, fmt.Errorf("core: compiling %q: %w", name, err)
	}
	return &PAL{Name: name, Image: im}, nil
}

// Result reports one PAL execution.
type Result struct {
	// Output is what the PAL wrote to its output channel.
	Output []byte
	// ExitStatus is the PAL's exit code.
	ExitStatus uint32
	// Total is the end-to-end virtual time of the session.
	Total time.Duration
	// Breakdown decomposes the overhead by phase (SEA sessions only;
	// the phases match Figure 2's legend).
	Breakdown map[string]time.Duration
	// Slices and Resumes count scheduling slices and hardware resumes
	// (recommended-hardware sessions only).
	Slices, Resumes int
	// Quote is the dynamic PCR attestation of a SEA session, when
	// requested.
	Quote *tpm.Quote
	// Batch is the sePCR attestation of a recommended-hardware run, when
	// requested: a batch quote of one.
	Batch *tpm.BatchQuote
	// Log is the measurement log matching the quote.
	Log attest.Log
}

// ErrNoRecommendedHardware is returned when a recommended-hardware
// operation is attempted on a stock platform.
var ErrNoRecommendedHardware = errors.New("core: platform lacks the recommended hardware (build it with platform.Recommended)")

// RunLegacy executes the PAL under SEA on today's hardware: the whole
// platform suspends, the PAL is late launched, state crosses sessions only
// via TPM seal/unseal.
func (s *System) RunLegacy(p *PAL, input []byte) (*Result, error) {
	sess, err := s.SEA.Execute(p.Image, input)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Output:     sess.Output,
		ExitStatus: sess.ExitStatus,
		Total:      sess.Total,
		Breakdown:  sess.Breakdown,
	}
	if s.Machine.Chipset.HasTPM() {
		res.Log = s.legacyLog(p, sess)
	}
	return res, nil
}

// legacyLog reconstructs the event log for a SEA session.
func (s *System) legacyLog(p *PAL, sess *sea.Session) attest.Log {
	if s.Machine.ACMod != nil {
		// Intel: ACMod in 17, PAL in 18.
		return attest.Log{
			{PCR: 17, Description: "ACMod", Measurement: evidence.Measure(s.Machine.ACMod.Code)},
			{PCR: 18, Description: p.Name, Measurement: p.Measurement()},
		}
	}
	return attest.Log{{PCR: 17, Description: p.Name, Measurement: p.Measurement()}}
}

// AttestLegacy generates and verifies the attestation for the most recent
// SEA session of p. It returns the verified PAL name.
func (s *System) AttestLegacy(p *PAL, nonce []byte) (string, *Result, error) {
	if s.Verifier == nil {
		return "", nil, errors.New("core: no TPM, no attestation")
	}
	q, qd, err := s.SEA.Quote(nonce)
	if err != nil {
		return "", nil, err
	}
	res := &Result{Quote: q, Total: qd, Log: s.legacyLog(p, nil)}
	s.Verifier.Approve(p.Name, p.Measurement())
	name, err := s.Verifier.VerifyPALQuote(s.Cert, q, res.Log, nonce)
	return name, res, err
}

// RunRecommended executes the PAL under the proposed architecture:
// SLAUNCH with a SECB, hardware context switches at the given preemption
// quantum (0 = run to completion), concurrent with the legacy OS. With a
// nonce the result carries the sePCR attestation as a batch quote of one
// (VerifyRecommended checks it); without one the register is freed
// unquoted. A failed run returns its sePCR and pages before reporting.
func (s *System) RunRecommended(p *PAL, input []byte, quantum time.Duration, nonce []byte) (*Result, error) {
	if s.SKSM == nil {
		return nil, ErrNoRecommendedHardware
	}
	secb, err := s.SKSM.NewSECB(p.Image, 1, quantum)
	if err != nil {
		return nil, err
	}
	secb.Input = input
	sw := sim.StartStopwatch(s.Machine.Clock)
	if err := s.SKSM.RunToCompletion(s.PALCore(), secb); err != nil {
		s.reclaim(secb)
		return nil, err
	}
	res := &Result{
		Output:     secb.Output,
		ExitStatus: secb.ExitStatus,
		Total:      sw.Elapsed(),
		Slices:     secb.Slices,
		Resumes:    secb.Resumes,
		Log:        attest.Log{{PCR: -1, Description: p.Name, Measurement: p.Measurement()}},
	}
	if nonce != nil {
		res.Batch, err = s.SKSM.QuoteBatchAfterExit([]*sksm.SECB{secb}, [][]byte{nonce}, nonce, 0)
	} else {
		err = s.Machine.TPM().FreeSePCR(secb.SePCRHandle)
	}
	if err != nil {
		s.reclaim(secb)
		return nil, err
	}
	if err := s.SKSM.Release(secb); err != nil {
		return nil, err
	}
	return res, nil
}

// reclaim returns what a failed recommended run holds, the way the PAL
// service does: a suspended (faulted or preempted) PAL is SKILLed, which
// frees its sePCR with the kill marker; a finished PAL's register still
// parked in Quote is freed unquoted; and the SECB's pages go back to the
// OS.
func (s *System) reclaim(secb *sksm.SECB) {
	switch secb.State {
	case sksm.StateSuspend:
		if s.SKSM.SKILL(secb) != nil {
			return
		}
	case sksm.StateDone:
		_ = s.Machine.TPM().FreeSePCR(secb.SePCRHandle)
	}
	_ = s.SKSM.Release(secb)
}

// PALCore picks the core PALs run on: core 1 when available (core 0 stays
// with the legacy OS, Figure 4), else core 0. Long-running services
// (internal/palsvc) dispatch their SECBs to this core.
func (s *System) PALCore() *cpu.CPU {
	if len(s.Machine.CPUs) > 1 {
		return s.Machine.CPUs[1]
	}
	return s.Machine.CPUs[0]
}

// VerifyRecommended validates a result's sePCR attestation (its batch of
// one) against the system's verifier, returning the approved PAL name.
func (s *System) VerifyRecommended(p *PAL, res *Result, nonce []byte) (string, error) {
	if s.Verifier == nil {
		return "", errors.New("core: no TPM, no attestation")
	}
	if res.Batch == nil {
		return "", errors.New("core: result carries no quote")
	}
	s.Verifier.Approve(p.Name, p.Measurement())
	return s.Verifier.VerifyBatchedQuote(s.Cert, res.Batch, 0, res.Log, nonce)
}
