package sksm

import (
	"testing"

	"minimaltcb/internal/pal"
)

// TestFreeSePCRsTracksBankState walks a PAL through its life cycle and
// checks that FreeSePCRs — the admission-control reading internal/palsvc
// uses — follows the bank: allocation and clean exit both leave the
// register occupied (Exclusive, then Quote) until untrusted code quotes it.
func TestFreeSePCRsTracksBankState(t *testing.T) {
	mg := newManager(t, 3)
	if got := mg.FreeSePCRs(); got != 3 {
		t.Fatalf("fresh bank: FreeSePCRs = %d, want 3", got)
	}

	im := pal.MustBuild("ldi r0, 0\nsvc 0")
	s, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mg.Kernel.Machine.CPUs[1]
	if err := mg.RunToCompletion(c, s); err != nil {
		t.Fatal(err)
	}
	// Clean exit moved the register Exclusive -> Quote: still occupied.
	if got := mg.FreeSePCRs(); got != 2 {
		t.Fatalf("after SFREE: FreeSePCRs = %d, want 2 (register parked in Quote state)", got)
	}

	if _, err := quoteOne(mg, s, []byte("capacity nonce")); err != nil {
		t.Fatal(err)
	}
	if got := mg.FreeSePCRs(); got != 3 {
		t.Fatalf("after quote: FreeSePCRs = %d, want 3", got)
	}
	if err := mg.Release(s); err != nil {
		t.Fatal(err)
	}
}
