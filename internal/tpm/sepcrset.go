package tpm

import (
	"fmt"

	"minimaltcb/internal/evidence"
)

// This file implements the sePCR *sets* extension (§6): instead of a
// one-to-one binding, a PAL may be bound to a group of registers allocated
// and released together. Per the paper, operations index the extension at
// three granularities: the whole set (allocation/reset at SLAUNCH), a
// subset (TPM_Quote), and individual registers (TPM_Extend, which the
// existing SePCRExtend already provides).

// AllocateSePCRSet allocates k Free registers as one set: all reset, the
// first extended with the PAL measurement, all bound to owner. On
// shortfall nothing is allocated and ErrNoSePCR is returned.
func (t *TPM) AllocateSePCRSet(owner int, palMeasurement Digest, k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tpm: sePCR set size %d", k)
	}
	var handles []int
	for i := range t.sePCRs {
		if t.sePCRs[i].state == SePCRFree {
			handles = append(handles, i)
			if len(handles) == k {
				break
			}
		}
	}
	if len(handles) < k {
		return nil, fmt.Errorf("%w: set of %d requested, %d free", ErrNoSePCR, k, len(handles))
	}
	for j, h := range handles {
		value := Digest{}
		if j == 0 {
			value = evidence.ExtendDigest(Digest{}, palMeasurement)
		}
		t.sePCRs[h] = sePCR{state: SePCRExclusive, value: value, owner: owner}
	}
	t.charge(t.profile.ExtendLatency, 0)
	return handles, nil
}

// ReleaseSePCRSet transitions every register of the set Exclusive -> Quote
// on clean PAL exit. The whole set must be owned by the caller; on any
// mismatch nothing transitions.
func (t *TPM) ReleaseSePCRSet(handles []int, owner int) error {
	for _, h := range handles {
		if err := t.checkExclusive(h, owner); err != nil {
			return err
		}
	}
	for _, h := range handles {
		t.sePCRs[h].state = SePCRQuote
		t.sePCRs[h].owner = -1
	}
	return nil
}

// QuoteSePCRSet attests a subset of a released set in one signature: the
// composite covers the selected registers' values in handle order. All
// quoted registers transition to Free; unquoted set members stay in the
// Quote state for a later quote or TPM_SEPCR_Free.
func (t *TPM) QuoteSePCRSet(handles []int, nonce []byte) (*Quote, error) {
	if len(handles) == 0 {
		return nil, fmt.Errorf("tpm: empty sePCR subset")
	}
	vals := make([]Digest, len(handles))
	for i, h := range handles {
		if h < 0 || h >= len(t.sePCRs) {
			return nil, fmt.Errorf("%w: %d", ErrSePCRHandle, h)
		}
		if t.sePCRs[h].state != SePCRQuote {
			return nil, fmt.Errorf("%w: sePCR %d is %v, set quote needs Quote state",
				ErrSePCRState, h, t.sePCRs[h].state)
		}
		vals[i] = t.sePCRs[h].value
	}
	sel := make(Selection, len(handles))
	copy(sel, handles)
	composite := evidence.CompositeDigest(sel, vals)
	sig, err := memoSignPKCS1v15(t.aik, t.aikFP, evidence.QuoteSignedDigest(composite, nonce))
	if err != nil {
		return nil, fmt.Errorf("tpm: sePCR set quote signature: %w", err)
	}
	for _, h := range handles {
		t.sePCRs[h].state = SePCRFree
		t.sePCRs[h].value = Digest{}
	}
	t.busCommand(40+len(nonce)+len(handles), len(sig)+40)
	t.charge(t.profile.QuoteLatency, t.profile.Jitter)
	return &Quote{
		Selection:   sel,
		SePCRHandle: handles[0],
		Composite:   composite,
		Nonce:       append([]byte(nil), nonce...),
		Signature:   sig,
	}, nil
}
