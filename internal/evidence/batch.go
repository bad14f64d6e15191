package evidence

import (
	"crypto"
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"minimaltcb/internal/merkle"
)

// A batch quote signs N sePCR composites with ONE AIK signature: the
// composites become leaves of an RFC 6962 Merkle tree (internal/merkle,
// shared with the audit log) and the AIK signs the root once. Each job gets
// its leaf's inclusion proof, so a verifier holding just its own entry
// checks membership in O(log N) hashes plus the one shared signature.
//
// A quote session amortizes the verifier's RSA too: the TPM mints a
// per-session HMAC key, binds it to the AIK with one signed grant, and MACs
// every later batch. A verifier that checked the grant authenticates later
// batches by HMAC alone.

// ErrEmptyBatch rejects a batch quote over zero registers: an empty tree
// head is signable but attests nothing, and a verifier must never accept
// an inclusion proof against it.
var ErrEmptyBatch = errors.New("evidence: empty quote batch")

// batchLeafDomain domain-separates batch leaves from every other use of
// the shared Merkle code (the audit log hashes canonical event records).
const batchLeafDomain = "minimaltcb/tpm/batch-leaf/v1"

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
	b = binary.BigEndian.AppendUint32(b, uint32(handle))
	b = append(b, composite[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(jobNonce)))
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
	b = binary.BigEndian.AppendUint32(b, uint32(count))
	b = append(b, nonce...)
	return Measure(b)
}

// CheckBatch checks a batch quote's shape: at least one entry, and exactly
// as many entries as the signed count. Both authentication paths (the
// signature and the session MAC) start here.
func CheckBatch(q *BatchQuote) error {
	if q == nil {
		return errors.New("evidence: nil batch quote")
	}
	if q.Count == 0 || len(q.Entries) == 0 {
		return ErrEmptyBatch
	}
	if len(q.Entries) != q.Count {
		return fmt.Errorf("evidence: batch count %d but %d entries", q.Count, len(q.Entries))
	}
	return nil
}

// VerifyBatchSignature checks a batch quote's shape and its one AIK
// signature over the Merkle root, which every entry shares. It does not
// look at the entries' proofs; VerifyBatchInclusion checks one entry.
func VerifyBatchSignature(aik *rsa.PublicKey, q *BatchQuote) error {
	if err := CheckBatch(q); err != nil {
		return err
	}
	d := BatchSignedDigest(q.Root, q.Count, q.Nonce)
	if err := rsa.VerifyPKCS1v15(aik, crypto.SHA1, d[:], q.Signature); err != nil {
		return fmt.Errorf("evidence: batch quote signature: %w", err)
	}
	return nil
}

// VerifyBatchInclusion checks one entry's inclusion proof against the root
// and count of an authenticated batch.
func VerifyBatchInclusion(root merkle.Hash, count int, e *BatchEntry) bool {
	leaf := BatchLeaf(e.Handle, e.Composite, e.Nonce)
	return merkle.VerifyInclusion(leaf, e.Index, count, e.Proof, root)
}

// QuoteSession is the grant the TPM returns when it opens a quote session.
// The verifier checks Sig against the (CA-certified) AIK once, then holds
// Key to authenticate batches by HMAC. In real hardware the key would be
// established with an authenticated key exchange; the simulation models
// the resulting symmetric channel (docs/ATTESTATION.md).
type QuoteSession struct {
	ID    uint64
	Key   Digest
	Nonce []byte
	Sig   []byte
}

// SessionGrantDigest computes the message the AIK signs when opening a
// quote session: SHA1("SESS" || id || key || nonce). The signature over it
// is the one RSA operation that authenticates every batch the session will
// ever MAC.
func SessionGrantDigest(id uint64, key Digest, nonce []byte) Digest {
	bp := getScratch()
	defer putScratch(bp)
	b := append(*bp, "SESS"...)
	b = binary.BigEndian.AppendUint64(b, id)
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

// VerifySessionGrant checks the AIK signature binding a session grant's
// {ID, key} to the nonce the verifier chose.
func VerifySessionGrant(aik *rsa.PublicKey, s *QuoteSession) error {
	if s == nil {
		return errors.New("evidence: nil session grant")
	}
	d := SessionGrantDigest(s.ID, s.Key, s.Nonce)
	return rsa.VerifyPKCS1v15(aik, crypto.SHA1, d[:], s.Sig)
}
