package tpm

import (
	"crypto/sha1"
	"errors"
	"fmt"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/merkle"
	"minimaltcb/internal/obs"
)

// This file implements batched sePCR quotes and quote sessions — the
// attestation-amortization extension the roadmap calls "killing the RSA
// tax". The paper's §4 measures the per-operation cost that motivates it:
// every TPM_Quote pays one private-key RSA operation, and a service
// attesting thousands of PAL executions per second pays it per job.
// TPM_SEPCR_QuoteBatch signs N registers with one AIK signature over a
// Merkle root, and a quote session MACs later batches under a key the AIK
// bound to it with one signed grant. internal/evidence defines both
// formats and their verification.

// ErrUnknownSession rejects a batch bound to a session the TPM does not
// hold (never opened, or wiped by reboot).
var ErrUnknownSession = errors.New("tpm: unknown quote session")

// BatchRequest names one register to include in a batch quote, with the
// per-job nonce its verifier chose.
type BatchRequest struct {
	Handle int
	Nonce  []byte
}

// OpenQuoteSession mints a fresh session key, binds it to the AIK with one
// signed grant over the verifier's nonce, and registers the session so
// subsequent batch quotes can be MACed under it. Sessions do not survive
// reboot (Boot wipes them), exactly like real TPM authorization sessions.
func (t *TPM) OpenQuoteSession(nonce []byte) (*QuoteSession, error) {
	if err := t.inject("TPM_Quote_SessionOpen"); err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_Quote_SessionOpen")
	t.sessionSeq++
	id := t.sessionSeq
	var key Digest
	t.rng.Fill(key[:])
	sig, err := memoSignPKCS1v15(t.aik, t.aikFP, evidence.SessionGrantDigest(id, key, nonce))
	if err != nil {
		t.endCmd(sp, err)
		return nil, fmt.Errorf("tpm: session grant signature: %w", err)
	}
	if t.sessions == nil {
		t.sessions = make(map[uint64]Digest)
	}
	t.sessions[id] = key
	t.busCommand(20+len(nonce), len(sig)+28)
	t.charge(t.profile.QuoteLatency, t.profile.Jitter)
	t.endCmd(sp, nil)
	return &QuoteSession{
		ID:    id,
		Key:   key,
		Nonce: append([]byte(nil), nonce...),
		Sig:   sig,
	}, nil
}

// QuoteSePCRBatch generates one attestation covering every requested
// register: all composites become Merkle leaves, the AIK signs the root
// once, and each entry carries its inclusion proof. sessionID, when
// non-zero, must name an open session; the batch is then additionally
// MACed under the session key. It is QuoteSePCRBatchUnsigned followed by
// its signing step.
func (t *TPM) QuoteSePCRBatch(reqs []BatchRequest, batchNonce []byte, sessionID uint64) (*BatchQuote, error) {
	q, sign, err := t.QuoteSePCRBatchUnsigned(reqs, batchNonce, sessionID)
	if err != nil {
		return nil, err
	}
	if err := sign(); err != nil {
		return nil, err
	}
	return q, nil
}

// QuoteSePCRBatchUnsigned is TPM_SEPCR_QuoteBatch split in two steps. The
// command does all of the TPM's work: it validates the registers, builds
// the leaves, root, proofs and session MAC, consumes the registers, and
// charges the bus and virtual time, including the signature's. It returns
// the quote without its Signature, and sign, which computes the AIK
// signature over the digest the command computed and stores it in the
// quote. sign touches no TPM state (only the AIK, fixed at New, and the
// process-global crypto memo), so the host may run it after releasing the
// lock that serializes the TPM's commands. It signs nothing a caller
// chooses: rewriting the quote before sign yields a signature over the
// TPM's own root, which the verifier rejects.
//
// Failure atomicity is batch-wide: every register is validated to be in
// the Quote state before anything is consumed, and the fault-injection
// point sits before that — a failed command leaves all N registers still
// in Quote, attestable on retry, and no verifier nonce is burned. An error
// from sign comes after the registers are Free, so the batch cannot be
// retried; a validated AIK never produces one.
func (t *TPM) QuoteSePCRBatchUnsigned(reqs []BatchRequest, batchNonce []byte, sessionID uint64) (q *BatchQuote, sign func() error, err error) {
	if len(reqs) == 0 {
		return nil, nil, evidence.ErrEmptyBatch
	}
	// Validate everything before mutating anything. A duplicated handle is
	// rejected here too: a register can be consumed only once per batch.
	seen := make(map[int]bool, len(reqs))
	for _, r := range reqs {
		if r.Handle < 0 || r.Handle >= len(t.sePCRs) {
			return nil, nil, fmt.Errorf("%w: %d", ErrSePCRHandle, r.Handle)
		}
		if seen[r.Handle] {
			return nil, nil, fmt.Errorf("%w: sePCR %d listed twice in batch", ErrSePCRState, r.Handle)
		}
		seen[r.Handle] = true
		if st := t.sePCRs[r.Handle].state; st != SePCRQuote {
			return nil, nil, fmt.Errorf("%w: sePCR %d is %v, batch quote needs Quote state",
				ErrSePCRState, r.Handle, st)
		}
	}
	var key Digest
	if sessionID != 0 {
		var ok bool
		if key, ok = t.sessions[sessionID]; !ok {
			return nil, nil, fmt.Errorf("%w: %d", ErrUnknownSession, sessionID)
		}
	}
	// An injected failure leaves every register in Quote, the whole batch
	// retryable.
	if err := t.inject("TPM_Quote"); err != nil {
		return nil, nil, err
	}
	sp := t.cmdSpan("TPM_Quote").Attr("mode", "sepcr-batch").AttrInt("batch", len(reqs))

	leaves := make([]merkle.Hash, len(reqs))
	entries := make([]BatchEntry, len(reqs))
	for i, r := range reqs {
		composite := t.sePCRs[r.Handle].value
		leaves[i] = evidence.BatchLeaf(r.Handle, composite, r.Nonce)
		entries[i] = BatchEntry{
			Handle:    r.Handle,
			Composite: composite,
			Nonce:     append([]byte(nil), r.Nonce...),
			Index:     i,
		}
	}
	root := merkle.Root(leaves)
	signed := evidence.BatchSignedDigest(root, len(reqs), batchNonce)
	for i := range entries {
		entries[i].Proof = merkle.InclusionProof(leaves, i)
	}
	q = &BatchQuote{
		Root:    root,
		Count:   len(reqs),
		Nonce:   append([]byte(nil), batchNonce...),
		Entries: entries,
	}
	if sessionID != 0 {
		q.SessionID = sessionID
		q.SessionMAC = evidence.SessionMAC(key, signed)
	}
	for i, r := range reqs {
		p := &t.sePCRs[r.Handle]
		p.state = SePCRFree
		p.value = Digest{}
		t.lifeClose(r.Handle, obs.Attr{Key: "quoted", Val: "batch"})
		t.lifeFree(r.Handle)
		t.auditEvent("sepcr_quote", r.Handle, entries[i].Composite)
	}
	// The "handle" slot carries the leaf count: the event covers the whole
	// batch, not one register, and the width is what auditors grep for.
	t.auditEvent("quote_batch", len(reqs), Digest(sha1.Sum(root[:])))
	// The RSA signature is paid once; each extra leaf costs one extend-
	// class hash operation. This is the amortization the batch buys. A
	// PKCS#1 v1.5 signature is as long as the AIK's modulus.
	t.busCommand(40+len(batchNonce)+20*len(reqs), t.aik.Size()+40+28*len(reqs))
	t.charge(t.profile.QuoteLatency, t.profile.Jitter)
	for i := 1; i < len(reqs); i++ {
		t.charge(t.profile.ExtendLatency, 0)
	}
	t.endCmd(sp, nil)
	aik, aikFP := t.aik, t.aikFP
	return q, func() error {
		sig, err := memoSignPKCS1v15(aik, aikFP, signed)
		if err != nil {
			return fmt.Errorf("tpm: batch quote signature: %w", err)
		}
		q.Signature = sig
		return nil
	}, nil
}
