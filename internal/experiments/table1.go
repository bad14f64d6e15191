package experiments

import (
	"fmt"
	"io"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
)

// Table1Sizes are the PAL sizes the paper sweeps (bytes).
var Table1Sizes = []int{0, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}

// Table1Row is one machine's late-launch latency ladder.
type Table1Row struct {
	// Config is the machine name; HasTPM mirrors the paper's first column.
	Config string
	HasTPM bool
	// Avg maps PAL size (bytes) to mean launch latency.
	Avg map[int]time.Duration
}

// Table1 reproduces "Table 1. SKINIT and SENTER benchmarks": late-launch
// latency versus PAL size on the HP dc5750 (SKINIT through a wait-stating
// TPM), the Tyan n3600R (SKINIT, no TPM) and the Intel TEP (SENTER).
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	profiles := []platform.Profile{platform.HPdc5750(), platform.TyanN3600R(), platform.IntelTEP()}
	rows := make([]Table1Row, 0, len(profiles))
	for _, p := range profiles {
		p.KeyBits = cfg.KeyBits
		p.Seed = cfg.Seed
		row := Table1Row{Config: p.Name, HasTPM: p.HasTPM, Avg: map[int]time.Duration{}}
		err := withLab(p, func(l *lab) error {
			for _, size := range Table1Sizes {
				var sample sim.Sample
				for trial := 0; trial < cfg.Trials; trial++ {
					d, err := lateLaunchLatency(l.k, p, size)
					if err != nil {
						return fmt.Errorf("%s @%d: %w", p.Name, size, err)
					}
					sample.Add(d)
				}
				row.Avg[size] = sample.Mean()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// labLaunchLatency measures one late launch on the profile's lab machine —
// the convenience path for one-off ablation points.
func labLaunchLatency(p platform.Profile, size int) (d time.Duration, err error) {
	err = withLab(p, func(l *lab) error {
		d, err = lateLaunchLatency(l.k, p, size)
		return err
	})
	return d, err
}

// lateLaunchLatency measures one late launch of a PAL padded to size bytes.
// Size 0 reproduces the paper's "empty PAL" row: the hash-transfer sequence
// is skipped entirely, leaving only CPU reinitialization (the <10 µs the
// paper reports as 0.00/0.01 ms) — plus, on Intel, the ACMod transfer and
// signature check, which happen regardless of PAL size. The launch's
// machine state is undone afterwards so the kernel and core can be reused
// for the next trial.
func lateLaunchLatency(k *osker.Kernel, p platform.Profile, size int) (time.Duration, error) {
	image := pal.MustBuild("ldi r0, 0\nsvc 0")
	if size > 0 {
		var err error
		image, err = image.Pad(size)
		if err != nil {
			return 0, err
		}
	}

	if size == 0 && p.CPUParams.Vendor == cpu.AMD {
		// AMD empty PAL: no TPM_HASH sequence, just core init.
		return p.CPUParams.InitCost, nil
	}

	m := k.Machine
	core := m.BootCPU()
	region, err := k.PlaceImage(image.Bytes, 0)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Undo the launch: DMA protection off, core back to its boot
		// state, pages returned to the OS pool.
		m.Chipset.SetDEVRegion(region, false)
		core.Reset()
		k.ReleaseRegion(region)
	}()
	sw := sim.StartStopwatch(m.Clock)
	if _, err := m.LateLaunch(core, region.Base); err != nil {
		return 0, err
	}
	d := sw.Elapsed()
	if size == 0 {
		// Intel empty PAL: subtract the (tiny) on-CPU hash of the
		// minimal image so the row reflects the ACMod-only cost.
		d -= time.Duration(image.Len()) * p.CPUParams.HashPerKB / 1024
	}
	return d, nil
}

// Render writes the rows in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1. SKINIT and SENTER benchmarks (avg ms by PAL size)")
	fmt.Fprintf(w, "%-4s %-36s", "TPM", "System Configuration")
	for _, s := range Table1Sizes {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("%dKB", s/1024))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		tpmCol := "Yes"
		if !r.HasTPM {
			tpmCol = "No"
		}
		fmt.Fprintf(w, "%-4s %-36s", tpmCol, r.Config)
		for _, s := range Table1Sizes {
			fmt.Fprintf(w, " %8s", fmtMS(r.Avg[s]))
		}
		fmt.Fprintln(w)
	}
}
