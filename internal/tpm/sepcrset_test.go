package tpm

import (
	"errors"
	"testing"

	"minimaltcb/internal/evidence"
)

func TestAllocateSePCRSet(t *testing.T) {
	chip := sePCRTPM(t, 4)
	meas := evidence.Measure([]byte("multicore pal"))
	handles, err := chip.AllocateSePCRSet(0, meas, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 3 {
		t.Fatalf("%d handles", len(handles))
	}
	// First register carries the PAL measurement; the rest start zeroed.
	v0, _ := chip.SePCRValue(handles[0])
	if v0 != evidence.ExtendDigest(Digest{}, meas) {
		t.Fatal("index register missing PAL measurement")
	}
	for _, h := range handles[1:] {
		v, _ := chip.SePCRValue(h)
		if v != (Digest{}) {
			t.Fatalf("member %d not reset", h)
		}
		st, _ := chip.SePCRStateOf(h)
		if st != SePCRExclusive {
			t.Fatalf("member %d state %v", h, st)
		}
	}
}

func TestAllocateSePCRSetShortfallRollsBack(t *testing.T) {
	chip := sePCRTPM(t, 2)
	if _, err := chip.AllocateSePCRSet(0, Digest{}, 3); !errors.Is(err, ErrNoSePCR) {
		t.Fatalf("oversized set: %v", err)
	}
	// Nothing must have been consumed.
	if _, err := chip.AllocateSePCRSet(0, Digest{}, 2); err != nil {
		t.Fatalf("registers leaked by failed set alloc: %v", err)
	}
	if _, err := chip.AllocateSePCRSet(0, Digest{}, 0); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestSePCRSetIndividualExtend(t *testing.T) {
	chip := sePCRTPM(t, 3)
	handles, _ := chip.AllocateSePCRSet(1, evidence.Measure([]byte("pal")), 2)
	// Individual members extend independently (§6: extend indexes
	// individual registers).
	m := evidence.Measure([]byte("worker output"))
	if _, err := chip.SePCRExtend(handles[1], 1, m); err != nil {
		t.Fatal(err)
	}
	v0, _ := chip.SePCRValue(handles[0])
	v1, _ := chip.SePCRValue(handles[1])
	if v0 == v1 {
		t.Fatal("extend of one member affected another")
	}
	// Owner enforcement still applies per member.
	if _, err := chip.SePCRExtend(handles[1], 0, m); !errors.Is(err, ErrSePCRState) {
		t.Fatalf("foreign extend on set member: %v", err)
	}
}

func TestReleaseSePCRSetAllOrNothing(t *testing.T) {
	chip := sePCRTPM(t, 4)
	setA, _ := chip.AllocateSePCRSet(0, Digest{}, 2)
	setB, _ := chip.AllocateSePCRSet(1, Digest{}, 1)
	// Mixed-ownership release refuses and changes nothing.
	mixed := append(append([]int(nil), setA...), setB...)
	if err := chip.ReleaseSePCRSet(mixed, 0); !errors.Is(err, ErrSePCRState) {
		t.Fatalf("mixed release: %v", err)
	}
	for _, h := range mixed {
		st, _ := chip.SePCRStateOf(h)
		if st != SePCRExclusive {
			t.Fatalf("register %d transitioned on failed release", h)
		}
	}
	// Proper release moves the whole set to Quote.
	if err := chip.ReleaseSePCRSet(setA, 0); err != nil {
		t.Fatal(err)
	}
	for _, h := range setA {
		st, _ := chip.SePCRStateOf(h)
		if st != SePCRQuote {
			t.Fatalf("register %d state %v", h, st)
		}
	}
}

func TestQuoteSePCRSetSubset(t *testing.T) {
	chip := sePCRTPM(t, 4)
	meas := evidence.Measure([]byte("pal"))
	handles, _ := chip.AllocateSePCRSet(0, meas, 3)
	chip.SePCRExtend(handles[1], 0, evidence.Measure([]byte("input")))
	if err := chip.ReleaseSePCRSet(handles, 0); err != nil {
		t.Fatal(err)
	}

	// Quote a two-register subset (§6: quote indexes a subset).
	subset := handles[:2]
	q, err := chip.QuoteSePCRSet(subset, []byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if err := evidence.VerifyQuote(chip.AIKPublic(), q); err != nil {
		t.Fatalf("set quote rejected: %v", err)
	}
	// The composite must be reconstructible by a verifier from the
	// handles and the replayed values.
	v0 := evidence.ExtendDigest(Digest{}, meas)
	v1 := evidence.ExtendDigest(Digest{}, evidence.Measure([]byte("input")))
	want := evidence.CompositeDigest(Selection{subset[0], subset[1]}, []Digest{v0, v1})
	if q.Composite != want {
		t.Fatal("set quote composite not reconstructible")
	}
	// Quoted registers freed; the unquoted member stays quotable.
	for _, h := range subset {
		st, _ := chip.SePCRStateOf(h)
		if st != SePCRFree {
			t.Fatalf("quoted register %d state %v", h, st)
		}
	}
	st, _ := chip.SePCRStateOf(handles[2])
	if st != SePCRQuote {
		t.Fatalf("unquoted member state %v", st)
	}
	if _, err := chip.QuoteSePCRSet(handles[2:], []byte("n2")); err != nil {
		t.Fatalf("late quote of remaining member: %v", err)
	}
}

func TestQuoteSePCRSetErrors(t *testing.T) {
	chip := sePCRTPM(t, 2)
	if _, err := chip.QuoteSePCRSet(nil, nil); err == nil {
		t.Fatal("empty subset quoted")
	}
	if _, err := chip.QuoteSePCRSet([]int{9}, nil); !errors.Is(err, ErrSePCRHandle) {
		t.Fatalf("bad handle: %v", err)
	}
	handles, _ := chip.AllocateSePCRSet(0, Digest{}, 1)
	if _, err := chip.QuoteSePCRSet(handles, nil); !errors.Is(err, ErrSePCRState) {
		t.Fatalf("quote of Exclusive set: %v", err)
	}
}
