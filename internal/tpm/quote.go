package tpm

import (
	"crypto/rsa"
	"fmt"
)

// Quote is the TPM's signed statement about platform state: an RSA
// signature by the AIK over the composite digest of the selected PCRs and a
// verifier-chosen nonce (§2.1.1). The same structure carries sePCR set
// quotes (sepcrset.go); single sePCRs are attested by batch quotes
// (batch.go).
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

// quoteDigest computes the signed message: SHA1("QUOT" || composite || nonce),
// assembled in a pooled scratch buffer.
func quoteDigest(composite Digest, nonce []byte) Digest {
	bp := getScratch()
	defer putScratch(bp)
	b := append(*bp, "QUOT"...)
	b = append(b, composite[:]...)
	b = append(b, nonce...)
	return Measure(b)
}

// QuoteCommand executes TPM_Quote over a PCR selection. The private-key RSA
// signature dominates the latency (§4.2).
func (t *TPM) QuoteCommand(sel Selection, nonce []byte) (*Quote, error) {
	composite, err := t.Composite(sel)
	if err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_Quote").Attr("mode", "pcr")
	sig, err := memoSignPKCS1v15(t.aik, quoteDigest(composite, nonce))
	if err != nil {
		err = fmt.Errorf("tpm: quote signature: %w", err)
		t.endCmd(sp, err)
		return nil, err
	}
	t.busCommand(40+len(nonce), len(sig)+40)
	t.charge(t.profile.QuoteLatency, t.profile.Jitter)
	t.endCmd(sp, nil)
	return &Quote{
		Selection:   append(Selection(nil), sel...),
		SePCRHandle: -1,
		Composite:   composite,
		Nonce:       append([]byte(nil), nonce...),
		Signature:   sig,
	}, nil
}

// VerifyQuote checks a quote's signature against an AIK public key. It does
// not charge virtual time: verification happens on the verifier's machine,
// outside the measured platform. Successful verifications are memoized
// (verification is a pure function of key, message and signature).
func VerifyQuote(aik *rsa.PublicKey, q *Quote) error {
	if q == nil {
		return fmt.Errorf("tpm: nil quote")
	}
	return memoVerifyPKCS1v15(aik, quoteDigest(q.Composite, q.Nonce), q.Signature)
}
