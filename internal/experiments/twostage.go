package experiments

import (
	"fmt"
	"io"
	"time"

	"minimaltcb/internal/boot"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
)

// --- Ablation 7: footnote 4's two-stage AMD PAL ---

// TwoStagePoint compares single-stage and two-stage launch at one size.
type TwoStagePoint struct {
	TotalSize int
	// SingleStage is the stock SKINIT: the whole PAL crosses the slow
	// TPM bus.
	SingleStage time.Duration
	// TwoStage is footnote 4's construction: a small stage-1 loader is
	// measured by SKINIT; stage 1 then hashes stage 2 on the CPU and
	// extends the digest before transferring control.
	TwoStage time.Duration
}

// twoStageLoaderSize is the measured stage-1 loader: 4 KB, enough for a
// hashing loop plus the extend call.
const twoStageLoaderSize = 4 << 10

// AblationTwoStageAMD quantifies the paper's footnote 4: "a PAL for an AMD
// system [can] be written in two parts ... this will enable a PAL on AMD
// systems to achieve improved performance" — i.e. AMD can emulate Intel's
// hash-on-CPU trick in software. Measured on the HP dc5750.
func AblationTwoStageAMD(cfg Config, sizes []int) ([]TwoStagePoint, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{8 << 10, 16 << 10, 32 << 10, 64 << 10}
	}
	prof := platform.HPdc5750()
	prof.KeyBits = cfg.KeyBits
	prof.Seed = cfg.Seed
	var out []TwoStagePoint
	for _, size := range sizes {
		if size <= twoStageLoaderSize {
			return nil, fmt.Errorf("twostage: size %d not above the %d-byte loader", size, twoStageLoaderSize)
		}
		single, err := labLaunchLatency(prof, size)
		if err != nil {
			return nil, err
		}
		two, err := twoStageLatency(prof, size)
		if err != nil {
			return nil, err
		}
		out = append(out, TwoStagePoint{TotalSize: size, SingleStage: single, TwoStage: two})
	}
	return out, nil
}

// twoStageLatency measures one two-stage launch: SKINIT of the loader,
// then the loader's on-CPU hash of stage 2 and a TPM extend of the digest
// (the microcode-level costs of footnote 4's construction).
func twoStageLatency(prof platform.Profile, totalSize int) (time.Duration, error) {
	m, err := platform.New(prof)
	if err != nil {
		return 0, err
	}
	k := osker.NewKernel(m)
	core := m.BootCPU()

	loader, err := pal.MustBuild("ldi r0, 0\nsvc 0").Pad(twoStageLoaderSize)
	if err != nil {
		return 0, err
	}
	stage2 := make([]byte, totalSize-twoStageLoaderSize)
	sim.NewRNG(7).Fill(stage2)

	region, err := k.PlaceImage(loader.Bytes, (len(stage2)+4095)/4096)
	if err != nil {
		return 0, err
	}
	if err := m.Chipset.Memory().WriteRaw(region.Base+uint32(loader.Len()), stage2); err != nil {
		return 0, err
	}

	sw := sim.StartStopwatch(m.Clock)
	if _, err := m.LateLaunch(core, region.Base); err != nil {
		return 0, err
	}
	// Stage 1 hashes stage 2 on the CPU and extends the digest: only 20
	// bytes cross the LPC bus, exactly Intel's ACMod trick in software.
	digest := core.HashOnCPU(stage2)
	if _, err := m.TPM().Extend(17, digest); err != nil {
		return 0, err
	}
	return sw.Elapsed(), nil
}

// RenderTwoStage writes the comparison.
func RenderTwoStage(w io.Writer, pts []TwoStagePoint) {
	fmt.Fprintln(w, "Ablation: footnote 4's two-stage AMD PAL (4 KB measured loader + on-CPU hash)")
	fmt.Fprintf(w, "%8s %14s %14s %8s\n", "PAL", "single-stage", "two-stage", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%7dK %11s ms %11s ms %7.1fx\n",
			p.TotalSize/1024, fmtMS(p.SingleStage), fmtMS(p.TwoStage),
			float64(p.SingleStage)/float64(p.TwoStage))
	}
}

// --- Motivation artefact: TCB size under trusted boot vs a PAL ---

// TCBComparison is the paper's §1 motivation in numbers.
type TCBComparison struct {
	// Components is the number of measured layers under trusted boot.
	Components int
	// TrustedBootBytes is the code a trusted-boot verifier vouches for.
	TrustedBootBytes int
	// PALBytes is the late-launch alternative: one PAL, at most 64 KB.
	PALBytes int
	// Ratio is TrustedBootBytes / PALBytes.
	Ratio float64
}

// TCBSizes builds the trusted-boot baseline with internal/boot and
// compares it against the PAL bound.
func TCBSizes() TCBComparison {
	chain := boot.TypicalChain()
	tb := chain.TCBBytes()
	return TCBComparison{
		Components:       len(chain),
		TrustedBootBytes: tb,
		PALBytes:         pal.MaxImageSize,
		Ratio:            float64(tb) / float64(pal.MaxImageSize),
	}
}

// RenderTCBSizes writes the motivation table.
func RenderTCBSizes(w io.Writer, c TCBComparison) {
	fmt.Fprintln(w, "Motivation (§1): code a verifier must vouch for")
	fmt.Fprintf(w, "  trusted boot: %d components, %.1f MB of measured code\n",
		c.Components, float64(c.TrustedBootBytes)/(1<<20))
	fmt.Fprintf(w, "  late-launched PAL: at most %d KB — %.0fx less\n",
		c.PALBytes/1024, c.Ratio)
}
