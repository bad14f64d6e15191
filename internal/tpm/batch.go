package tpm

import (
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"minimaltcb/internal/merkle"
	"minimaltcb/internal/obs"
)

// This file implements batched sePCR quotes and quote sessions — the
// attestation-amortization extension the roadmap calls "killing the RSA
// tax". The paper's §4 measures the per-operation cost that motivates it:
// every TPM_Quote pays one private-key RSA operation, and a service
// attesting thousands of PAL executions per second pays it per job.
//
// TPM_SEPCR_QuoteBatch signs N registers with ONE RSA signature: the
// composites become leaves of an RFC 6962 Merkle tree (internal/merkle,
// shared with the audit log) and the AIK signs the root once. Each job gets
// its leaf's inclusion proof, so a verifier holding just its own entry can
// check membership in O(log N) hashes plus the one shared signature.
//
// Quote sessions amortize the *verifier's* RSA in the same stroke: the TPM
// mints a per-session HMAC key, binds it to the AIK with one signed grant,
// and MACs every subsequent batch. A verifier that checked the grant (full
// AIK cert chain + one RSA verify) authenticates later batches by HMAC
// alone. In real hardware the key would be established with an
// authenticated key exchange; the simulation models the resulting
// symmetric channel (see docs/ATTESTATION.md for the threat model).

// ErrEmptyBatch rejects a batch quote over zero registers: an empty tree
// head is signable but attests nothing, and a verifier must never accept
// an inclusion proof against it.
var ErrEmptyBatch = errors.New("tpm: empty quote batch")

// ErrUnknownSession rejects a batch bound to a session the TPM does not
// hold (never opened, or wiped by reboot).
var ErrUnknownSession = errors.New("tpm: unknown quote session")

// batchLeafDomain domain-separates batch leaves from every other use of
// the shared Merkle code (the audit log hashes canonical event records).
const batchLeafDomain = "minimaltcb/tpm/batch-leaf/v1"

// BatchRequest names one register to include in a batch quote, with the
// per-job nonce its verifier chose.
type BatchRequest struct {
	Handle int
	Nonce  []byte
}

// BatchEntry is one job's slice of a batch quote: its leaf material plus
// the inclusion proof tying it to the signed root.
type BatchEntry struct {
	// Handle is the sePCR the composite was read from.
	Handle int `json:"handle"`
	// Composite is the register value at quote time.
	Composite Digest `json:"composite"`
	// Nonce is the per-job verifier nonce bound into the leaf.
	Nonce []byte `json:"nonce"`
	// Index is the leaf's position in the tree.
	Index int `json:"index"`
	// Proof is the RFC 6962 inclusion proof from the leaf to the root.
	Proof []merkle.Hash `json:"proof,omitempty"`
}

// BatchQuote is the TPM's signed statement over a batch: one AIK signature
// (and, within a session, one HMAC) over the Merkle root covering every
// entry.
type BatchQuote struct {
	// Root is the RFC 6962 tree head over the entries' leaves.
	Root merkle.Hash `json:"root"`
	// Count is the number of leaves the root covers.
	Count int `json:"count"`
	// Nonce is the batch-level anti-replay nonce (the batcher's, distinct
	// from the per-job nonces bound into the leaves).
	Nonce []byte `json:"nonce"`
	// Signature is the RSA-PKCS#1v1.5-SHA1 AIK signature over
	// BatchSignedDigest(Root, Count, Nonce) — the one RSA operation the
	// whole batch pays.
	Signature []byte `json:"signature"`
	// SessionID and SessionMAC bind the batch to an open quote session;
	// zero/nil outside sessions.
	SessionID  uint64 `json:"session_id,omitempty"`
	SessionMAC []byte `json:"session_mac,omitempty"`
	// Entries carries every job's leaf and proof, in leaf order.
	Entries []BatchEntry `json:"entries"`
}

// BatchLeaf computes the Merkle leaf for one register's contribution:
// domain tag, handle, composite and the per-job nonce, all length-framed
// so no two distinct inputs collide.
func BatchLeaf(handle int, composite Digest, jobNonce []byte) merkle.Hash {
	bp := getScratch()
	defer putScratch(bp)
	b := append(*bp, batchLeafDomain...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(handle))
	b = append(b, u32[:]...)
	b = append(b, composite[:]...)
	binary.BigEndian.PutUint32(u32[:], uint32(len(jobNonce)))
	b = append(b, u32[:]...)
	b = append(b, jobNonce...)
	return merkle.LeafHash(b)
}

// BatchSignedDigest computes the message the AIK signs for a batch:
// SHA1("QBAT" || root || count || nonce). The "QBAT" tag keeps batch
// signatures from ever colliding with plain quote signatures ("QUOT"),
// session grants ("SESS") or audit heads.
func BatchSignedDigest(root merkle.Hash, count int, nonce []byte) Digest {
	bp := getScratch()
	defer putScratch(bp)
	b := append(*bp, "QBAT"...)
	b = append(b, root[:]...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(count))
	b = append(b, u32[:]...)
	b = append(b, nonce...)
	return Measure(b)
}

// SessionGrantDigest computes the message the AIK signs when opening a
// quote session: SHA1("SESS" || id || key || nonce). The signature over it
// is the one RSA operation that authenticates every batch the session will
// ever MAC.
func SessionGrantDigest(id uint64, key Digest, nonce []byte) Digest {
	bp := getScratch()
	defer putScratch(bp)
	b := append(*bp, "SESS"...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], id)
	b = append(b, u64[:]...)
	b = append(b, key[:]...)
	b = append(b, nonce...)
	return Measure(b)
}

// SessionMAC computes the HMAC-SHA1 channel binding of a batch's signed
// digest under a session key. Both sides of the channel call this.
func SessionMAC(key Digest, signed Digest) []byte {
	m := hmac.New(sha1.New, key[:])
	m.Write(signed[:])
	return m.Sum(nil)
}

// QuoteSession is the grant the TPM returns from OpenQuoteSession. The
// verifier checks Sig against the (CA-certified) AIK once, then holds Key
// to authenticate batches by HMAC.
type QuoteSession struct {
	ID    uint64
	Key   Digest
	Nonce []byte
	Sig   []byte
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
	sig, err := memoSignPKCS1v15(t.aik, SessionGrantDigest(id, key, nonce))
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
// MACed under the session key.
//
// Failure atomicity is batch-wide: every register is validated to be in the Quote state BEFORE anything is
// consumed, and the fault-injection point sits before the signature — a
// failed batch leaves all N registers still in Quote, attestable on retry,
// and no verifier nonce is burned.
func (t *TPM) QuoteSePCRBatch(reqs []BatchRequest, batchNonce []byte, sessionID uint64) (*BatchQuote, error) {
	if len(reqs) == 0 {
		return nil, ErrEmptyBatch
	}
	// Validate everything before mutating anything. A duplicated handle is
	// rejected here too: a register can be consumed only once per batch.
	seen := make(map[int]bool, len(reqs))
	for _, r := range reqs {
		if r.Handle < 0 || r.Handle >= len(t.sePCRs) {
			return nil, fmt.Errorf("%w: %d", ErrSePCRHandle, r.Handle)
		}
		if seen[r.Handle] {
			return nil, fmt.Errorf("%w: sePCR %d listed twice in batch", ErrSePCRState, r.Handle)
		}
		seen[r.Handle] = true
		if st := t.sePCRs[r.Handle].state; st != SePCRQuote {
			return nil, fmt.Errorf("%w: sePCR %d is %v, batch quote needs Quote state",
				ErrSePCRState, r.Handle, st)
		}
	}
	var key Digest
	if sessionID != 0 {
		var ok bool
		if key, ok = t.sessions[sessionID]; !ok {
			return nil, fmt.Errorf("%w: %d", ErrUnknownSession, sessionID)
		}
	}
	// The injection point sits before the signature: an injected failure
	// leaves every register in Quote, the whole batch retryable.
	if err := t.inject("TPM_Quote"); err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_Quote").Attr("mode", "sepcr-batch").AttrInt("batch", len(reqs))

	leaves := make([]merkle.Hash, len(reqs))
	entries := make([]BatchEntry, len(reqs))
	for i, r := range reqs {
		composite := t.sePCRs[r.Handle].value
		leaves[i] = BatchLeaf(r.Handle, composite, r.Nonce)
		entries[i] = BatchEntry{
			Handle:    r.Handle,
			Composite: composite,
			Nonce:     append([]byte(nil), r.Nonce...),
			Index:     i,
		}
	}
	root := merkle.Root(leaves)
	signed := BatchSignedDigest(root, len(reqs), batchNonce)
	sig, err := memoSignPKCS1v15(t.aik, signed)
	if err != nil {
		err = fmt.Errorf("tpm: batch quote signature: %w", err)
		t.endCmd(sp, err)
		return nil, err
	}
	for i := range entries {
		entries[i].Proof = merkle.InclusionProof(leaves, i)
	}
	q := &BatchQuote{
		Root:      root,
		Count:     len(reqs),
		Nonce:     append([]byte(nil), batchNonce...),
		Signature: sig,
		Entries:   entries,
	}
	if sessionID != 0 {
		q.SessionID = sessionID
		q.SessionMAC = SessionMAC(key, signed)
	}
	// Only now, with the attestation in hand, consume the registers.
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
	// class hash operation. This is the amortization the batch buys.
	t.busCommand(40+len(batchNonce)+20*len(reqs), len(sig)+40+28*len(reqs))
	t.charge(t.profile.QuoteLatency, t.profile.Jitter)
	for i := 1; i < len(reqs); i++ {
		t.charge(t.profile.ExtendLatency, 0)
	}
	t.endCmd(sp, nil)
	return q, nil
}

// VerifyBatchSignature checks only a batch quote's RSA signature over the
// Merkle root — the one public-key operation shared by all entries.
// Verification-side callers that authenticate batches another way (the
// session HMAC channel) or memoize per-batch results build on this.
func VerifyBatchSignature(aik *rsa.PublicKey, q *BatchQuote) error {
	if q == nil {
		return errors.New("tpm: nil batch quote")
	}
	signed := BatchSignedDigest(q.Root, q.Count, q.Nonce)
	if err := memoVerifyPKCS1v15(aik, signed, q.Signature); err != nil {
		return fmt.Errorf("tpm: batch quote signature: %w", err)
	}
	return nil
}

// VerifySessionGrant checks the AIK signature binding a session grant's
// {ID, key} to the nonce the verifier chose.
func VerifySessionGrant(aik *rsa.PublicKey, s *QuoteSession) error {
	if s == nil {
		return errors.New("tpm: nil session grant")
	}
	return memoVerifyPKCS1v15(aik, SessionGrantDigest(s.ID, s.Key, s.Nonce), s.Sig)
}

// VerifyBatchInclusion checks one leaf's inclusion proof against a batch
// root — a thin re-export of the shared Merkle verifier so callers pair it
// with BatchLeaf without importing internal/merkle themselves.
func VerifyBatchInclusion(leaf merkle.Hash, index, size int, proof []merkle.Hash, root merkle.Hash) bool {
	return merkle.VerifyInclusion(leaf, index, size, proof, root)
}

// VerifyBatchQuote checks a batch quote's one RSA signature and every
// entry's inclusion proof against the signed root. It charges no virtual
// time (verification runs on the verifier's machine) and ignores session
// fields — HMAC channel verification lives with the session holder
// (internal/attest), which knows the key.
func VerifyBatchQuote(aik *rsa.PublicKey, q *BatchQuote) error {
	if q == nil {
		return errors.New("tpm: nil batch quote")
	}
	if q.Count == 0 || len(q.Entries) == 0 {
		return ErrEmptyBatch
	}
	if len(q.Entries) != q.Count {
		return fmt.Errorf("tpm: batch count %d but %d entries", q.Count, len(q.Entries))
	}
	if err := VerifyBatchSignature(aik, q); err != nil {
		return err
	}
	for i := range q.Entries {
		e := &q.Entries[i]
		leaf := BatchLeaf(e.Handle, e.Composite, e.Nonce)
		if !merkle.VerifyInclusion(leaf, e.Index, q.Count, e.Proof, q.Root) {
			return fmt.Errorf("tpm: batch entry %d (sePCR %d): inclusion proof invalid", i, e.Handle)
		}
	}
	return nil
}
