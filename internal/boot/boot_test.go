package boot

import (
	"strings"
	"testing"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

func newChip(t *testing.T) *tpm.TPM {
	t.Helper()
	clock := sim.NewClock()
	bus := lpc.NewBus(clock, lpc.FullSpeed())
	chip, err := tpm.New(clock, bus, tpm.Config{KeyBits: 1024, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func approveAll(c Chain) map[tpm.Digest]string {
	m := map[tpm.Digest]string{}
	for _, comp := range c {
		m[evidence.Measure(comp.Code)] = comp.Name
	}
	return m
}

func TestTrustedBootHappyPath(t *testing.T) {
	chip := newChip(t)
	chain := TypicalChain()
	log, err := chain.Measure(chip)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := attest.NewPrivacyCA(31, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cert, _ := ca.Certify("tb-platform", chip.AIKPublic())
	nonce := []byte("tb nonce")
	q, err := chip.QuoteCommand(chain.PCRs(), nonce)
	if err != nil {
		t.Fatal(err)
	}
	names, err := VerifyChainQuote(cert, q, log, nonce, approveAll(chain))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(chain) {
		t.Fatalf("%d names for %d components", len(names), len(chain))
	}
	if names[0] != "BIOS" {
		t.Fatalf("first component %q", names[0])
	}
}

func TestTrustedBootOneRogueModuleFailsEverything(t *testing.T) {
	chip := newChip(t)
	chain := TypicalChain()
	known := approveAll(chain)
	// One kernel module is replaced post-approval.
	chain[len(chain)-1].Code = []byte("rootkit.ko")
	log, err := chain.Measure(chip)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := attest.NewPrivacyCA(31, 1024)
	cert, _ := ca.Certify("tb-platform", chip.AIKPublic())
	nonce := []byte("tb nonce 2")
	q, _ := chip.QuoteCommand(chain.PCRs(), nonce)
	if _, err := VerifyChainQuote(cert, q, log, nonce, known); err == nil {
		t.Fatal("platform with rogue module verified")
	} else if !strings.Contains(err.Error(), "unrecognized component") {
		t.Fatalf("error %v", err)
	}
}

func TestTrustedBootLogOmissionDetected(t *testing.T) {
	chip := newChip(t)
	chain := TypicalChain()
	fullLog, err := chain.Measure(chip)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := attest.NewPrivacyCA(31, 1024)
	cert, _ := ca.Certify("tb-platform", chip.AIKPublic())
	nonce := []byte("tb nonce 3")
	q, _ := chip.QuoteCommand(chain.PCRs(), nonce)
	// The platform hides one module from the log it presents: replay no
	// longer matches the quoted PCRs.
	trimmed := fullLog[:len(fullLog)-1]
	if _, err := VerifyChainQuote(cert, q, trimmed, nonce, approveAll(chain)); err == nil {
		t.Fatal("trimmed log verified")
	}
}

// The paper's motivation in one comparison: the software a verifier must
// vouch for under trusted boot versus under a late-launched PAL.
func TestTCBSizeContrast(t *testing.T) {
	chain := TypicalChain()
	trustedBootTCB := chain.TCBBytes()
	palTCB := 64 << 10 // the largest possible PAL
	if trustedBootTCB < 80*palTCB {
		t.Fatalf("trusted-boot TCB %d bytes not dramatically above the %d-byte PAL cap",
			trustedBootTCB, palTCB)
	}
	// And the verifier's policy burden: one hash per component (and one
	// per update of each!) versus one hash per PAL.
	if len(chain) < 10 {
		t.Fatalf("typical chain only %d components", len(chain))
	}
}

func TestChainPCRSelection(t *testing.T) {
	sel := TypicalChain().PCRs()
	want := map[int]bool{PCRFirmware: true, PCRConfig: true, PCROptionROMs: true,
		PCRBootloader: true, PCRKernel: true}
	if len(sel) != len(want) {
		t.Fatalf("selection %v", sel)
	}
	for _, idx := range sel {
		if !want[idx] {
			t.Fatalf("unexpected PCR %d", idx)
		}
	}
}
