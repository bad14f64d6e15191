package cpu

import (
	"errors"
	"testing"
	"time"

	"minimaltcb/internal/acmod"
	"minimaltcb/internal/chipset"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
)

// place writes an image padded to size at a fixed base and returns the base.
func place(t *testing.T, cs *chipset.Chipset, size int) uint32 {
	t.Helper()
	im := pal.MustBuild(`
		ldi r0, 7
		halt
	`)
	if size > 0 {
		var err error
		im, err = im.Pad(size)
		if err != nil {
			t.Fatal(err)
		}
	}
	base := uint32(8 * mem.PageSize)
	if err := cs.Memory().WriteRaw(base, im.Bytes); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestSKINITMeasuresAndRuns(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := place(t, r.chip, 0)
	res, err := r.cpu.SKINIT(base)
	if err != nil {
		t.Fatal(err)
	}
	// PCR17 = extend(0, SHA1(image)).
	img, _ := r.chip.Memory().ReadRaw(res.Region.Base, res.Region.Size)
	wantMeas := evidence.Measure(img)
	if res.PALMeasurement != wantMeas {
		t.Fatal("reported measurement is not the image hash")
	}
	pcr17, _ := r.chip.TPM().PCRValue(17)
	if pcr17 != res.PCR17 {
		t.Fatal("result PCR17 differs from TPM state")
	}
	// Interrupts off, ring 0, PC at entry.
	if r.cpu.IntrEnabled || r.cpu.Ring != 0 {
		t.Fatal("CPU not in trusted state after SKINIT")
	}
	// The PAL actually runs.
	reason, err := r.cpu.Run(0)
	if err != nil || reason != StopHalt {
		t.Fatalf("PAL run: %v %v", reason, err)
	}
	if r.cpu.Regs[0] != 7 {
		t.Fatalf("PAL result %d", r.cpu.Regs[0])
	}
}

func TestSKINITSetsDEV(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := place(t, r.chip, 4096)
	res, err := r.cpu.SKINIT(base)
	if err != nil {
		t.Fatal(err)
	}
	nic := chipset.NewDevice("nic", r.chip)
	if _, err := nic.Read(res.Region.Base, 16); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("DMA into SLB after SKINIT: %v", err)
	}
}

// Table 1, row 1: SKINIT on the HP dc5750 (TPM with long wait cycles).
func TestSKINITTimingMatchesTable1WithTPM(t *testing.T) {
	cases := map[int]float64{ // size -> expected ms
		4096:  11.94,
		8192:  22.98,
		16384: 45.05,
		32768: 89.21,
		65536: 177.52,
	}
	for size, wantMS := range cases {
		r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
		base := place(t, r.chip, size)
		start := r.clock.Now()
		if _, err := r.cpu.SKINIT(base); err != nil {
			t.Fatal(err)
		}
		gotMS := float64(r.clock.Now()-start) / float64(time.Millisecond)
		if gotMS < wantMS*0.995 || gotMS > wantMS*1.005 {
			t.Errorf("SKINIT %d KB: %.2f ms, want ≈%.2f", size/1024, gotMS, wantMS)
		}
	}
}

// Table 1, row 2: SKINIT on the Tyan n3600R (no TPM).
func TestSKINITTimingMatchesTable1NoTPM(t *testing.T) {
	cases := map[int]float64{
		4096:  0.56,
		8192:  1.11,
		16384: 2.21,
		32768: 4.41,
		65536: 8.82,
	}
	for size, wantMS := range cases {
		r := newRig(t, ParamsAMDTyan(), lpc.FullSpeed(), false)
		base := place(t, r.chip, size)
		start := r.clock.Now()
		if _, err := r.cpu.SKINIT(base); err != nil {
			t.Fatal(err)
		}
		gotMS := float64(r.clock.Now()-start) / float64(time.Millisecond)
		if gotMS < wantMS*0.98 || gotMS > wantMS*1.02 {
			t.Errorf("Tyan SKINIT %d KB: %.3f ms, want ≈%.2f", size/1024, gotMS, wantMS)
		}
	}
}

func TestSKINITWrongVendor(t *testing.T) {
	r := newRig(t, ParamsIntelTEP(), lpc.FullSpeed(), true)
	base := place(t, r.chip, 0)
	if _, err := r.cpu.SKINIT(base); !errors.Is(err, ErrWrongModel) {
		t.Fatalf("SKINIT on Intel: %v", err)
	}
}

func TestSKINITBadHeader(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := uint32(8 * mem.PageSize)
	r.chip.Memory().WriteRaw(base, []byte{2, 0, 99, 0}) // length 2 < header
	if _, err := r.cpu.SKINIT(base); err == nil {
		t.Fatal("bad SLB header launched")
	}
}

func senterRig(t *testing.T) (*rig, *acmod.Module, *acmod.Vendor) {
	t.Helper()
	r := newRig(t, ParamsIntelTEP(), intelTEPBusTiming(), true)
	vendor, err := acmod.NewVendor(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	module, err := vendor.Sign(nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, module, vendor
}

// intelTEPBusTiming is the TEP's LPC profile: the ACMod transfer accounts
// for most of SENTER's 26.39 ms base.
func intelTEPBusTiming() lpc.Timing {
	return lpc.Timing{
		HashStartEnd:    900 * time.Microsecond,
		HashDataPerKB:   2400 * time.Microsecond,
		CommandOverhead: 150 * time.Microsecond,
		BytesPerCommand: 4,
	}
}

func TestSENTERMeasuresBothPCRs(t *testing.T) {
	r, module, vendor := senterRig(t)
	base := place(t, r.chip, 4096)
	res, err := r.cpu.SENTER(base, module, vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	// PCR17 holds the ACMod measurement; PCR18 the PAL's.
	pcr17, _ := r.chip.TPM().PCRValue(17)
	pcr18, _ := r.chip.TPM().PCRValue(18)
	if pcr17 != res.PCR17 || pcr18 != res.PCR18 {
		t.Fatal("result PCRs differ from TPM state")
	}
	img, _ := r.chip.Memory().ReadRaw(res.Region.Base, res.Region.Size)
	if res.PALMeasurement != evidence.Measure(img) {
		t.Fatal("PAL measurement is not the image hash")
	}
	if pcr17 == pcr18 {
		t.Fatal("ACMod and PAL measurements collide")
	}
	reason, err := r.cpu.Run(0)
	if err != nil || reason != StopHalt {
		t.Fatalf("PAL run after SENTER: %v %v", reason, err)
	}
}

func TestSENTERRejectsForgedACMod(t *testing.T) {
	r, module, vendor := senterRig(t)
	base := place(t, r.chip, 4096)
	forged := &acmod.Module{Code: append([]byte(nil), module.Code...), Signature: module.Signature}
	forged.Code[100] ^= 0xff
	_, err := r.cpu.SENTER(base, forged, vendor.Public())
	if err == nil {
		t.Fatal("forged ACMod launched")
	}
	// Abort must undo the memory protection.
	on, _ := r.chip.Memory().DEV(8)
	if on {
		t.Fatal("DEV protection leaked after aborted SENTER")
	}
}

// Table 1, row 3: SENTER on the Intel TEP.
func TestSENTERTimingMatchesTable1(t *testing.T) {
	cases := map[int]float64{
		4096:  26.88,
		8192:  27.38,
		16384: 28.37,
		65536: 34.35,
	}
	for size, wantMS := range cases {
		r, module, vendor := senterRig(t)
		base := place(t, r.chip, size)
		start := r.clock.Now()
		if _, err := r.cpu.SENTER(base, module, vendor.Public()); err != nil {
			t.Fatal(err)
		}
		gotMS := float64(r.clock.Now()-start) / float64(time.Millisecond)
		if gotMS < wantMS*0.99 || gotMS > wantMS*1.01 {
			t.Errorf("SENTER %d KB: %.2f ms, want ≈%.2f", size/1024, gotMS, wantMS)
		}
	}
}

func TestSENTERWrongVendorCPU(t *testing.T) {
	r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
	base := place(t, r.chip, 0)
	if _, err := r.cpu.SENTER(base, nil, nil); !errors.Is(err, ErrWrongModel) {
		t.Fatalf("SENTER on AMD: %v", err)
	}
}

func TestSENTERNeedsTPM(t *testing.T) {
	r := newRig(t, ParamsIntelTEP(), lpc.FullSpeed(), false)
	base := place(t, r.chip, 0)
	if _, err := r.cpu.SENTER(base, nil, nil); err == nil {
		t.Fatal("SENTER without TPM succeeded")
	}
}

// The crossover the paper highlights: AMD is cheaper for small PALs (only
// the PAL crosses the bus), Intel for large ones (PAL hashed on-CPU).
func TestHashLocationCrossover(t *testing.T) {
	launchAMD := func(size int) time.Duration {
		r := newRig(t, ParamsAMDdc5750(), lpc.LongWait(), true)
		base := place(t, r.chip, size)
		start := r.clock.Now()
		if _, err := r.cpu.SKINIT(base); err != nil {
			t.Fatal(err)
		}
		return r.clock.Now() - start
	}
	launchIntel := func(size int) time.Duration {
		r, module, vendor := senterRig(t)
		base := place(t, r.chip, size)
		start := r.clock.Now()
		if _, err := r.cpu.SENTER(base, module, vendor.Public()); err != nil {
			t.Fatal(err)
		}
		return r.clock.Now() - start
	}
	if launchAMD(4096) >= launchIntel(4096) {
		t.Error("AMD should win at 4 KB")
	}
	if launchAMD(65536) <= launchIntel(65536) {
		t.Error("Intel should win at 64 KB")
	}
}
