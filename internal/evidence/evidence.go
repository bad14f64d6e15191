// Package evidence defines the attestation evidence a TPM produces and a
// relying party checks — measurements, PCR quotes, batch quotes and quote
// sessions — together with the pure functions that verify it.
//
// The paper's verifier decides from the signed quote alone (§3.1), so the
// code it must trust should be no larger than the code that checks that
// quote. This package is that code: it imports only the standard library
// and internal/merkle, and calls crypto/rsa directly for every signature
// check. The TPM simulator (internal/tpm) produces evidence through it; the
// verifier (internal/attest) checks evidence through it without linking the
// simulator.
package evidence

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"
)

// NumPCRs is the number of platform configuration registers. PCRs 0–16 are
// static (reset only by reboot); FirstDynamicPCR–23 are dynamic.
const NumPCRs = 24

// FirstDynamicPCR is the index of the first dynamic (resettable) PCR.
const FirstDynamicPCR = 17

// Digest is a SHA-1 digest, the TPM v1.2 measurement unit.
type Digest [sha1.Size]byte

// Measure hashes arbitrary bytes into a measurement.
func Measure(b []byte) Digest { return sha1.Sum(b) }

// ExtendDigest computes the PCR extend function H(old || measurement): the
// append-only accumulation of §2.1.1, and the replay primitive for
// verifiers. The concatenation fits a stack buffer, so extends stay
// allocation-free.
func ExtendDigest(old, measurement Digest) Digest {
	var buf [2 * sha1.Size]byte
	copy(buf[:sha1.Size], old[:])
	copy(buf[sha1.Size:], measurement[:])
	return sha1.Sum(buf[:])
}

// SKillMarker is the well-known constant extended into a sePCR when SKILL
// terminates a misbehaving PAL (§5.5), so a verifier can distinguish a
// killed PAL's register from a cleanly exited one.
var SKillMarker = Measure([]byte("TPM_SEPCR_SKILL"))

// Selection names a set of PCRs (by index) a seal or quote covers.
type Selection []int

// ErrBadSelection rejects a PCR quote whose selection names a register
// that does not exist.
var ErrBadSelection = errors.New("evidence: selection names a PCR that does not exist")

// Check rejects any index outside [0, NumPCRs). The selection is not
// signed, and CompositeDigest encodes each index in one byte, so without
// this check Selection{273} hashes exactly like Selection{17} and a log
// could claim an approved PAL in a register that was never quoted.
func (s Selection) Check() error {
	for _, idx := range s {
		if idx < 0 || idx >= NumPCRs {
			return fmt.Errorf("%w: %d", ErrBadSelection, idx)
		}
	}
	return nil
}

// CompositeDigest computes the TPM_COMPOSITE_HASH for a selection and the
// corresponding register values: a SHA-1 over each index (one byte) and
// its value. Verifiers use it to reconstruct the composite they expect
// from a replayed event log.
func CompositeDigest(sel Selection, vals []Digest) Digest {
	var buf [512]byte
	b := buf[:0]
	for i, idx := range sel {
		b = append(b, byte(idx))
		b = append(b, vals[i][:]...)
	}
	return sha1.Sum(b)
}

// Quote is the TPM's signed statement about platform state: an RSA
// signature by the AIK over the composite digest of the selected PCRs and a
// verifier-chosen nonce (§2.1.1). The same structure carries sePCR set
// quotes; single sePCRs are attested by batch quotes (BatchQuote).
type Quote struct {
	// Selection lists the static/dynamic PCR indices covered, or the
	// sePCR handles for a set quote.
	Selection Selection
	// SePCRHandle is the first sePCR of a set quote, or -1 for a PCR
	// quote.
	SePCRHandle int
	// Composite is the digest the signature covers.
	Composite Digest
	// Nonce is the anti-replay challenge supplied by the verifier.
	Nonce []byte
	// Signature is the RSA-PKCS#1v1.5-SHA1 signature by the AIK.
	Signature []byte
}

// QuoteSignedDigest computes the message the AIK signs for a quote:
// SHA1("QUOT" || composite || nonce).
func QuoteSignedDigest(composite Digest, nonce []byte) Digest {
	bp := getScratch()
	defer putScratch(bp)
	b := append(*bp, "QUOT"...)
	b = append(b, composite[:]...)
	b = append(b, nonce...)
	return Measure(b)
}

// AuditHeadDomain begins every audit tree head message the AIK signs
// (internal/audit). The TPM signs no head message without it, and quote,
// batch and session grant messages begin with "QUOT", "QBAT" and "SESS".
const AuditHeadDomain = "minimaltcb/audit/tree-head/v1\n"

// VerifyQuote checks a quote's AIK signature. It says nothing about what
// the composite means; the caller replays its event log against it.
func VerifyQuote(aik *rsa.PublicKey, q *Quote) error {
	if q == nil {
		return errors.New("evidence: nil quote")
	}
	d := QuoteSignedDigest(q.Composite, q.Nonce)
	return rsa.VerifyPKCS1v15(aik, crypto.SHA1, d[:], q.Signature)
}

// scratchPool recycles the small append buffers the signed-message and
// leaf encoders build; no buffer outlives the call that took it.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func getScratch() *[]byte  { return scratchPool.Get().(*[]byte) }
func putScratch(b *[]byte) { *b = (*b)[:0]; scratchPool.Put(b) }
