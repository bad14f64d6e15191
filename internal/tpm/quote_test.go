package tpm

import (
	"testing"

	"minimaltcb/internal/evidence"
)

func TestQuoteVerifies(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	chip.Extend(evidence.FirstDynamicPCR, evidence.Measure([]byte("pal code")))
	nonce := []byte("verifier challenge 123")
	q, err := chip.QuoteCommand(Selection{evidence.FirstDynamicPCR}, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := evidence.VerifyQuote(chip.AIKPublic(), q); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	if q.SePCRHandle != -1 {
		t.Fatalf("PCR quote has sePCR handle %d", q.SePCRHandle)
	}
	composite, _ := chip.Composite(Selection{evidence.FirstDynamicPCR})
	if q.Composite != composite {
		t.Fatal("quote composite differs from live composite")
	}
}

func TestQuoteRejectsTampering(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	q, err := chip.QuoteCommand(Selection{0, evidence.FirstDynamicPCR}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	// Tampered composite.
	bad := *q
	bad.Composite[0] ^= 1
	if err := evidence.VerifyQuote(chip.AIKPublic(), &bad); err == nil {
		t.Fatal("quote with modified composite verified")
	}
	// Tampered nonce (replay with a different challenge).
	bad = *q
	bad.Nonce = []byte("other nonce")
	if err := evidence.VerifyQuote(chip.AIKPublic(), &bad); err == nil {
		t.Fatal("quote with modified nonce verified")
	}
	// Tampered signature.
	bad = *q
	bad.Signature = append([]byte(nil), q.Signature...)
	bad.Signature[0] ^= 1
	if err := evidence.VerifyQuote(chip.AIKPublic(), &bad); err == nil {
		t.Fatal("quote with modified signature verified")
	}
}

func TestQuoteWrongAIKFails(t *testing.T) {
	a, _, _ := testTPM(t, Config{Seed: 1})
	b, _, _ := testTPM(t, Config{Seed: 2})
	q, err := a.QuoteCommand(Selection{0}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := evidence.VerifyQuote(b.AIKPublic(), q); err == nil {
		t.Fatal("quote verified under a different TPM's AIK")
	}
}

func TestQuoteBadSelection(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	if _, err := chip.QuoteCommand(Selection{evidence.NumPCRs + 1}, nil); err == nil {
		t.Fatal("quote over invalid PCR accepted")
	}
}

func TestVerifyNilQuote(t *testing.T) {
	chip, _, _ := testTPM(t, Config{})
	if err := evidence.VerifyQuote(chip.AIKPublic(), nil); err == nil {
		t.Fatal("nil quote verified")
	}
}

func TestQuoteDistinguishesRebootFromDynamicReset(t *testing.T) {
	chip, _, bus := testTPM(t, Config{})
	// After boot, PCR17 is -1: quote proves no late launch happened.
	qBoot, err := chip.QuoteCommand(Selection{evidence.FirstDynamicPCR}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	// After a late launch, PCR17 holds the PAL measurement chain.
	bus.SetLocality(4)
	chip.HashStart()
	chip.HashData([]byte("pal"))
	chip.HashEnd()
	qLaunch, err := chip.QuoteCommand(Selection{evidence.FirstDynamicPCR}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if qBoot.Composite == qLaunch.Composite {
		t.Fatal("verifier cannot distinguish reboot from late launch")
	}
}
