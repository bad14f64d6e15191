package tpm

import (
	"bytes"
	"errors"

	"minimaltcb/internal/evidence"
)

// This file is the chip's side of the tamper-evident audit layer
// (internal/audit). Two pieces live here, deliberately small:
//
//   - AuditHook, an observer the embedding stack installs to turn sePCR
//     state transitions and sealing-storage decisions into audit events.
//     The hook carries no tenant or trace identity — the chip does not
//     know it; sksm.Manager implements the hook and stamps the identity of
//     the PAL it is currently running.
//
//   - SignAuditHead, which signs audit tree heads with the AIK. The audit
//     log's only trusted ingredient is this signature; everything else
//     (Merkle tree, segments, verifier) stays outside the modeled TCB.
//
// The package intentionally does not import internal/audit: the hook is a
// local interface, and the head message comes from the caller, checked
// only for the domain prefix it shares with internal/audit through
// internal/evidence, keeping tpm at the bottom of the dependency graph.

// AuditHook observes trust-relevant TPM state transitions. op is one of the
// event-type strings shared with internal/audit ("sepcr_alloc", "seal",
// "late_launch", ...); handle is the sePCR involved (-1 for whole-chip
// events); value is the register or composite digest after the transition.
// The hook is called with the chip's embedding lock held, same as the trace
// scope, so implementations must not call back into the TPM.
type AuditHook interface {
	TPMAuditEvent(op string, handle int, value Digest)
}

// SetAuditHook installs (or with nil removes) the chip's audit observer.
// The nil default costs one pointer check per audited command, mirroring
// the FaultHook discipline.
func (t *TPM) SetAuditHook(h AuditHook) { t.audit = h }

// auditEvent reports one transition to the installed hook, if any.
func (t *TPM) auditEvent(op string, handle int, value Digest) {
	if t.audit == nil {
		return
	}
	t.audit.TPMAuditEvent(op, handle, value)
}

// ErrNotAuditHead rejects a message to SignAuditHead that does not begin
// with evidence.AuditHeadDomain.
var ErrNotAuditHead = errors.New("tpm: message is not an audit tree head")

// SignAuditHead signs a serialized audit tree head with the platform AIK.
// The digest is the chip's native hash (SHA-1, like quote signatures). The
// AIK also signs quotes, so the message must begin with
// evidence.AuditHeadDomain: quote, batch and session grant messages begin
// with their own tags, and a head signature cannot attest anything.
// Without the check, whoever holds the TPM could pass a batch quote's
// message and get a quote for a root of its choosing. Signing is memoized
// alongside quote signatures, so re-signing an unchanged head is free.
func (t *TPM) SignAuditHead(msg []byte) ([]byte, error) {
	if !bytes.HasPrefix(msg, []byte(evidence.AuditHeadDomain)) {
		return nil, ErrNotAuditHead
	}
	return memoSignPKCS1v15(t.aik, t.aikFP, evidence.Measure(msg))
}
