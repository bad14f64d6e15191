package tpm

import (
	"fmt"

	"minimaltcb/internal/evidence"
)

// QuoteCommand executes TPM_Quote over a PCR selection. The private-key RSA
// signature dominates the latency (§4.2).
func (t *TPM) QuoteCommand(sel Selection, nonce []byte) (*Quote, error) {
	composite, err := t.Composite(sel)
	if err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_Quote").Attr("mode", "pcr")
	sig, err := memoSignPKCS1v15(t.aik, t.aikFP, evidence.QuoteSignedDigest(composite, nonce))
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
