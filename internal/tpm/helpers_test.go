package tpm

import (
	"crypto/rsa"
	"fmt"
	"testing"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/sim"
)

// verifyBatch checks a batch quote the way a relying party does: its
// shape and one signature, then every entry's inclusion proof.
func verifyBatch(aik *rsa.PublicKey, q *BatchQuote) error {
	if err := evidence.VerifyBatchSignature(aik, q); err != nil {
		return err
	}
	for i := range q.Entries {
		if !evidence.VerifyBatchInclusion(q.Root, q.Count, &q.Entries[i]) {
			return fmt.Errorf("batch entry %d: inclusion proof invalid", i)
		}
	}
	return nil
}

// newClockProfile returns a fresh clock and a synthetic profile with
// distinct, jitter-free latencies for charge-accounting tests.
func newClockProfile() (*sim.Clock, Profile) {
	return sim.NewClock(), Profile{
		Name:          "synthetic",
		ExtendLatency: 10 * time.Millisecond,
		ReadLatency:   time.Millisecond,
		SealBase:      20 * time.Millisecond,
		SealPerKB:     5 * time.Millisecond,
		UnsealLatency: 400 * time.Millisecond,
		QuoteLatency:  300 * time.Millisecond,
		RandomBase:    2 * time.Millisecond,
		RandomPerByte: time.Microsecond,
	}
}

func newProfiledTPM(t *testing.T, clock *sim.Clock, p Profile) *TPM {
	t.Helper()
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := New(clock, bus, Config{KeyBits: 1024, Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}
