package experiments

import (
	"fmt"
	"io"
	"time"

	"minimaltcb/internal/platform"
	"minimaltcb/internal/sea"
	"minimaltcb/internal/sim"
)

// Figure2Bar is one stacked bar of Figure 2: a flow and its phase
// decomposition.
type Figure2Bar struct {
	// Name is "PAL Gen", "Quote" or "PAL Use".
	Name string
	// Phases maps phase name (SKINIT, Seal, Unseal, Quote) to mean time.
	Phases map[string]time.Duration
	// Total is the mean end-to-end overhead.
	Total time.Duration
}

// Figure2 reproduces "Figure 2. Breakdown of overheads that will be
// incurred by generic applications implemented in the SEA model" on the
// HP dc5750 (Broadcom TPM): PAL Gen (SKINIT + Seal), TPM Quote, and PAL
// Use (SKINIT + Unseal + Seal). The paper averages 100 runs; Trials
// controls that here.
func Figure2(cfg Config) ([]Figure2Bar, error) {
	cfg = cfg.withDefaults()
	p := platform.HPdc5750()
	p.KeyBits = cfg.KeyBits
	p.Seed = cfg.Seed

	gen := Figure2Bar{Name: "PAL Gen", Phases: map[string]time.Duration{}}
	quote := Figure2Bar{Name: "Quote", Phases: map[string]time.Duration{}}
	use := Figure2Bar{Name: "PAL Use", Phases: map[string]time.Duration{}}
	var genTotal, quoteTotal, useTotal sim.Sample

	err := withLab(p, func(l *lab) error {
		rt := sea.NewRuntime(l.k)
		for trial := 0; trial < cfg.Trials; trial++ {
			// Each trial runs on a freshly powered platform: the reboot
			// rewinds the TPM's RNG, so every trial replays the first.
			l.m.TPM().Boot()

			// PAL Gen.
			s, err := rt.RunPALGen()
			if err != nil {
				return fmt.Errorf("figure2 PAL Gen: %w", err)
			}
			accumulate(gen.Phases, s.Breakdown, cfg.Trials)
			genTotal.Add(s.Total)

			// Quote.
			_, qd, err := rt.Quote([]byte("figure2 nonce"))
			if err != nil {
				return err
			}
			quote.Phases[sea.PhaseQuote] += qd / time.Duration(cfg.Trials)
			quoteTotal.Add(qd)

			// PAL Use needs state sealed to its own identity; provision
			// it exactly as a prior PAL Use session would have left it.
			useImage := sea.BuildPALUse(true)
			prior, err := rt.SealForImage(useImage, make([]byte, sea.GenPayload))
			if err != nil {
				return err
			}
			u, err := rt.RunPALUse(prior, true)
			if err != nil {
				return fmt.Errorf("figure2 PAL Use: %w", err)
			}
			accumulate(use.Phases, u.Breakdown, cfg.Trials)
			useTotal.Add(u.Total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	gen.Total = genTotal.Mean()
	quote.Total = quoteTotal.Mean()
	use.Total = useTotal.Mean()
	return []Figure2Bar{gen, quote, use}, nil
}

// accumulate adds breakdown/trials into dst (streaming mean).
func accumulate(dst, src map[string]time.Duration, trials int) {
	for k, v := range src {
		dst[k] += v / time.Duration(trials)
	}
}

// figure2PhaseOrder is the stacking order of the paper's legend.
var figure2PhaseOrder = []string{sea.PhaseLaunch, sea.PhaseSeal, sea.PhaseUnseal, sea.PhaseQuote}

// RenderFigure2 writes the bars as a text table (phases as columns).
func RenderFigure2(w io.Writer, bars []Figure2Bar) {
	fmt.Fprintln(w, "Figure 2. SEA application overhead breakdown, HP dc5750 + Broadcom TPM (ms)")
	fmt.Fprintf(w, "%-10s", "")
	for _, ph := range figure2PhaseOrder {
		fmt.Fprintf(w, " %10s", ph)
	}
	fmt.Fprintf(w, " %10s\n", "Total")
	for _, b := range bars {
		fmt.Fprintf(w, "%-10s", b.Name)
		for _, ph := range figure2PhaseOrder {
			if d, ok := b.Phases[ph]; ok && d > 0 {
				fmt.Fprintf(w, " %10s", fmtMS(d))
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintf(w, " %10s\n", fmtMS(b.Total))
	}
}
