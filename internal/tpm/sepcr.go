package tpm

import (
	"fmt"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/obs"
)

// This file implements the paper's proposed TPM extension (§5.4): a bank of
// secure-execution PCRs (sePCRs). Each concurrently executing PAL is bound
// to one sePCR at SLAUNCH time. A sePCR moves through three states:
//
//	Free      -> (SLAUNCH allocates, resets, extends)  -> Exclusive
//	Exclusive -> (SFREE: PAL terminated)               -> Quote
//	Quote     -> (TPM_SEPCR_QuoteBatch / TPM_SEPCR_Free) -> Free
//	Exclusive -> (SKILL: extend kill marker)           -> Free
//
// While Exclusive, only the bound PAL — identified to the TPM by the CPU
// hardware, modeled here as an owner token — may Extend, Seal to, or Unseal
// under the register. Untrusted code may quote a register in the Quote
// state, which is how attestations get generated after PAL exit (§5.4.3).
// The quote is always a batch quote (batch.go); one register is a batch of
// one.

// SePCRState is the life-cycle state of one sePCR.
type SePCRState uint8

// sePCR states, in the paper's terminology.
const (
	SePCRFree SePCRState = iota
	SePCRExclusive
	SePCRQuote
)

// String renders the state name.
func (s SePCRState) String() string {
	switch s {
	case SePCRFree:
		return "Free"
	case SePCRExclusive:
		return "Exclusive"
	case SePCRQuote:
		return "Quote"
	}
	return fmt.Sprintf("SePCRState(%d)", uint8(s))
}

type sePCR struct {
	state SePCRState
	value Digest
	owner int // CPU-enforced binding token while Exclusive
}

// lifeOpen starts the life-cycle span for sePCR h entering the named
// state. The span stays open across TPM commands — a register can sit in
// Exclusive for many scheduling slices — and is recorded on the next
// transition.
func (t *TPM) lifeOpen(h int, state string) {
	if t.trace == nil || t.sepcrLife == nil {
		return
	}
	t.sepcrLife[h] = t.trace.Start("sePCR."+state, obs.CatSePCR).AttrInt("handle", h)
}

// lifeClose ends the open life-cycle span of sePCR h, if any.
func (t *TPM) lifeClose(h int, attrs ...obs.Attr) {
	if t.trace == nil || t.sepcrLife == nil || t.sepcrLife[h] == nil {
		return
	}
	sp := t.sepcrLife[h]
	t.sepcrLife[h] = nil
	for _, a := range attrs {
		sp.Attr(a.Key, a.Val)
	}
	t.trace.End(sp)
}

// lifeFree marks the instant a register returns to the Free pool.
func (t *TPM) lifeFree(h int) {
	if t.trace == nil {
		return
	}
	t.trace.Event("sePCR.Free", obs.CatSePCR, obs.Int("handle", h))
}

// NumSePCRs returns how many sePCRs this TPM provisions.
func (t *TPM) NumSePCRs() int { return len(t.sePCRs) }

// SePCRStateOf reports the state of a sePCR handle.
func (t *TPM) SePCRStateOf(handle int) (SePCRState, error) {
	if handle < 0 || handle >= len(t.sePCRs) {
		return 0, fmt.Errorf("%w: %d", ErrSePCRHandle, handle)
	}
	return t.sePCRs[handle].state, nil
}

// SePCRValue returns the current register value (verifier/debug view).
func (t *TPM) SePCRValue(handle int) (Digest, error) {
	if handle < 0 || handle >= len(t.sePCRs) {
		return Digest{}, fmt.Errorf("%w: %d", ErrSePCRHandle, handle)
	}
	return t.sePCRs[handle].value, nil
}

// AllocateSePCR finds a Free sePCR, resets it to zero, extends the PAL
// measurement into it, binds it to owner (the launching CPU), and returns
// its handle. It fails with ErrNoSePCR when all registers are busy — the
// condition that makes SLAUNCH return a failure code (§5.4.1).
func (t *TPM) AllocateSePCR(owner int, palMeasurement Digest) (int, error) {
	if err := t.inject("TPM_SEPCR_Alloc"); err != nil {
		return -1, err
	}
	for i := range t.sePCRs {
		if t.sePCRs[i].state != SePCRFree {
			continue
		}
		sp := t.cmdSpan("TPM_SEPCR_Alloc").AttrInt("handle", i)
		t.sePCRs[i] = sePCR{
			state: SePCRExclusive,
			value: evidence.ExtendDigest(Digest{}, palMeasurement),
			owner: owner,
		}
		t.charge(t.profile.ExtendLatency, 0)
		t.endCmd(sp, nil)
		t.lifeOpen(i, "Exclusive")
		t.auditEvent("sepcr_alloc", i, t.sePCRs[i].value)
		return i, nil
	}
	return -1, ErrNoSePCR
}

// checkExclusive validates handle, state and owner for PAL-only commands.
func (t *TPM) checkExclusive(handle, owner int) error {
	if handle < 0 || handle >= len(t.sePCRs) {
		return fmt.Errorf("%w: %d", ErrSePCRHandle, handle)
	}
	p := &t.sePCRs[handle]
	if p.state != SePCRExclusive {
		return fmt.Errorf("%w: sePCR %d is %v, need Exclusive", ErrSePCRState, handle, p.state)
	}
	if p.owner != owner {
		return fmt.Errorf("%w: sePCR %d bound to CPU%d, request from CPU%d",
			ErrSePCRState, handle, p.owner, owner)
	}
	return nil
}

// RebindSePCR moves the hardware binding to a new CPU when the untrusted OS
// resumes a PAL on a different core (§5.3: "the PAL may execute on a
// different CPU each time it is resumed"). Only the context-switch
// microcode calls this; the sePCR must be Exclusive.
func (t *TPM) RebindSePCR(handle, oldOwner, newOwner int) error {
	if err := t.checkExclusive(handle, oldOwner); err != nil {
		return err
	}
	t.sePCRs[handle].owner = newOwner
	return nil
}

// SePCRExtend extends a measurement into the PAL's own sePCR (e.g. of its
// inputs). Only the bound PAL may do this (§5.4.2).
func (t *TPM) SePCRExtend(handle, owner int, measurement Digest) (Digest, error) {
	if err := t.checkExclusive(handle, owner); err != nil {
		return Digest{}, err
	}
	if err := t.inject("TPM_SEPCR_Extend"); err != nil {
		return Digest{}, err
	}
	sp := t.cmdSpan("TPM_SEPCR_Extend").AttrInt("handle", handle)
	p := &t.sePCRs[handle]
	p.value = evidence.ExtendDigest(p.value, measurement)
	t.busCommand(34, 30)
	t.charge(t.profile.ExtendLatency, t.profile.Jitter)
	t.endCmd(sp, nil)
	t.auditEvent("sepcr_extend", handle, p.value)
	return p.value, nil
}

// SealSePCR seals data such that it can only be unsealed by a PAL whose
// sePCR holds the same value — identity-bound rather than handle-bound, so
// the same PAL unseals successfully even if a later launch assigns it a
// different register (§5.4.4, Challenge 4).
func (t *TPM) SealSePCR(handle, owner int, data []byte) ([]byte, error) {
	if err := t.checkExclusive(handle, owner); err != nil {
		return nil, err
	}
	if err := t.inject("TPM_Seal"); err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_Seal").Attr("mode", "sepcr").AttrInt("bytes", len(data))
	release := t.sePCRs[handle].value
	blob, err := t.sealBlob(sealModeSePCR, nil, release, data)
	if err != nil {
		t.endCmd(sp, err)
		return nil, err
	}
	t.busCommand(64+len(data), len(blob))
	t.charge(t.sealCost(len(data)), t.profile.Jitter)
	t.endCmd(sp, nil)
	t.auditEvent("seal", handle, release)
	return blob, nil
}

// UnsealSePCR unseals a blob sealed with SealSePCR, provided the calling
// PAL's sePCR currently holds the value recorded at seal time.
func (t *TPM) UnsealSePCR(handle, owner int, blob []byte) ([]byte, error) {
	if err := t.checkExclusive(handle, owner); err != nil {
		return nil, err
	}
	mode, selBytes, release, ekey, nonce, ct, err := parseBlob(blob)
	if err != nil {
		return nil, err
	}
	if mode != sealModeSePCR {
		return nil, fmt.Errorf("%w: blob sealed to static PCRs; use Unseal", ErrBadBlob)
	}
	if err := t.inject("TPM_Unseal"); err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_Unseal").Attr("mode", "sepcr")
	t.busCommand(len(blob), 64)
	t.charge(t.profile.UnsealLatency, t.profile.Jitter)
	if !equalDigest(t.sePCRs[handle].value, release) {
		err := fmt.Errorf("%w: sePCR %x, sealed to %x",
			ErrPCRMismatch, t.sePCRs[handle].value, release)
		t.endCmd(sp, err)
		t.auditEvent("unseal_denied", handle, t.sePCRs[handle].value)
		return nil, err
	}
	pt, err := t.openBlob(mode, selBytes, release, ekey, nonce, ct)
	if err != nil {
		t.endCmd(sp, err)
		return nil, err
	}
	t.unsealOK++
	t.endCmd(sp, nil)
	t.auditEvent("unseal", handle, release)
	return pt, nil
}

// ReleaseSePCR transitions Exclusive -> Quote on clean PAL exit (SFREE,
// §5.5). Only the bound CPU's microcode may release.
func (t *TPM) ReleaseSePCR(handle, owner int) error {
	if err := t.checkExclusive(handle, owner); err != nil {
		return err
	}
	t.sePCRs[handle].state = SePCRQuote
	t.sePCRs[handle].owner = -1
	t.lifeClose(handle)
	t.lifeOpen(handle, "Quote")
	t.auditEvent("sepcr_release", handle, t.sePCRs[handle].value)
	return nil
}

// KillSePCR implements SKILL's TPM side (§5.5): extend the well-known kill
// marker and transition straight to Free. It accepts registers in
// Exclusive state regardless of owner — SKILL is issued by the OS against
// a suspended or wedged PAL, whose CPU binding may be stale.
func (t *TPM) KillSePCR(handle int) error {
	if handle < 0 || handle >= len(t.sePCRs) {
		return fmt.Errorf("%w: %d", ErrSePCRHandle, handle)
	}
	p := &t.sePCRs[handle]
	if p.state != SePCRExclusive {
		return fmt.Errorf("%w: sePCR %d is %v, SKILL needs Exclusive", ErrSePCRState, handle, p.state)
	}
	sp := t.cmdSpan("TPM_SEPCR_Kill").AttrInt("handle", handle)
	p.value = evidence.ExtendDigest(p.value, evidence.SKillMarker)
	p.state = SePCRFree
	p.owner = -1
	t.charge(t.profile.ExtendLatency, 0)
	t.endCmd(sp, nil)
	t.lifeClose(handle, obs.Attr{Key: "killed", Val: "true"})
	t.lifeFree(handle)
	t.auditEvent("sepcr_kill", handle, p.value)
	return nil
}

// FreeSePCR implements TPM_SEPCR_Free (§5.4.3): untrusted code releases a
// register in the Quote state without generating an attestation.
func (t *TPM) FreeSePCR(handle int) error {
	if handle < 0 || handle >= len(t.sePCRs) {
		return fmt.Errorf("%w: %d", ErrSePCRHandle, handle)
	}
	p := &t.sePCRs[handle]
	if p.state != SePCRQuote {
		return fmt.Errorf("%w: sePCR %d is %v, TPM_SEPCR_Free needs Quote state",
			ErrSePCRState, handle, p.state)
	}
	released := p.value
	p.state = SePCRFree
	p.value = Digest{}
	t.lifeClose(handle)
	t.lifeFree(handle)
	t.auditEvent("sepcr_free", handle, released)
	return nil
}
