package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sea"
	"minimaltcb/internal/sim"
)

// ImpactResult is §5.7's headline comparison: the cost of protecting PAL
// state across a context switch on today's hardware (TPM seal/unseal plus
// a fresh late launch) versus on recommended hardware (SECB save/restore
// at world-switch cost).
type ImpactResult struct {
	// LegacySwitchOut is the seal-based suspend (Seal of PAL state).
	LegacySwitchOut time.Duration
	// LegacySwitchIn is the resume: SKINIT of the 64 KB PAL + Unseal.
	LegacySwitchIn time.Duration
	// LegacyRoundTrip is out + in.
	LegacyRoundTrip time.Duration
	// RecommendedSwitchOut is the SYIELD/suspend path (VM-exit cost).
	RecommendedSwitchOut time.Duration
	// RecommendedSwitchIn is the SLAUNCH resume (VM-enter cost).
	RecommendedSwitchIn time.Duration
	// RecommendedRoundTrip is out + in.
	RecommendedRoundTrip time.Duration
	// Speedup is LegacyRoundTrip / RecommendedRoundTrip.
	Speedup float64
	// OrdersOfMagnitude is log10(Speedup); the paper claims six.
	OrdersOfMagnitude float64
}

// Impact measures §5.7 end to end on the HP dc5750: both switch paths are
// actually executed, not computed from constants. The legacy path runs on
// the HP lab Table 1 and Figure 2 use, the recommended path on its
// two-sePCR twin; Impact holds one lab at a time.
func Impact(cfg Config) (*ImpactResult, error) {
	cfg = cfg.withDefaults()
	res := &ImpactResult{}

	// --- Legacy path: measure a real PAL Use resume and its seal-out.
	legacy := platform.HPdc5750()
	legacy.KeyBits = cfg.KeyBits
	legacy.Seed = cfg.Seed
	err := withLab(legacy, func(l *lab) error {
		rt := sea.NewRuntime(l.k)
		useImage := sea.BuildPALUse(true)
		prior, err := rt.SealForImage(useImage, make([]byte, sea.GenPayload))
		if err != nil {
			return err
		}
		s, err := rt.RunPALUse(prior, true)
		if err != nil {
			return err
		}
		res.LegacySwitchIn = s.Breakdown[sea.PhaseLaunch] + s.Breakdown[sea.PhaseUnseal]
		res.LegacySwitchOut = s.Breakdown[sea.PhaseSeal]
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.LegacyRoundTrip = res.LegacySwitchIn + res.LegacySwitchOut

	// --- Recommended path: measure a real suspend/resume round trip.
	rec := platform.Recommended(platform.HPdc5750(), 2)
	rec.KeyBits = cfg.KeyBits
	rec.Seed = cfg.Seed
	err = withLab(rec, func(l *lab) error {
		mg := l.mg
		im := pal.MustBuild(`
			svc 1
			svc 1
			ldi r0, 0
			svc 0
		`)
		secb, err := mg.NewSECB(im, 0, 0)
		if err != nil {
			return err
		}
		core := l.m.CPUs[1]
		// First slice: launch (measured separately, not a context switch).
		if _, err := mg.RunSlice(core, secb); err != nil {
			return err
		}
		// Second slice: resume + yield = one full round trip.
		sw := sim.StartStopwatch(l.m.Clock)
		if _, err := mg.RunSlice(core, secb); err != nil {
			return err
		}
		res.RecommendedRoundTrip = sw.Elapsed()
		res.RecommendedSwitchIn = core.Params.VMEnter
		res.RecommendedSwitchOut = core.Params.VMExit
		// Drive the PAL to its exit and return its pages and sePCR
		// (freed unquoted — nothing attests here), so the lab is clean
		// for its next user.
		if err := mg.RunToCompletion(core, secb); err != nil {
			return err
		}
		if err := l.m.TPM().FreeSePCR(secb.SePCRHandle); err != nil {
			return err
		}
		return mg.Release(secb)
	})
	if err != nil {
		return nil, err
	}

	res.Speedup = float64(res.LegacyRoundTrip) / float64(res.RecommendedRoundTrip)
	res.OrdersOfMagnitude = math.Log10(res.Speedup)
	return res, nil
}

// RenderImpact writes the §5.7 comparison.
func RenderImpact(w io.Writer, r *ImpactResult) {
	fmt.Fprintln(w, "Section 5.7: PAL context-switch cost, today vs recommended hardware")
	fmt.Fprintf(w, "%-34s %14s\n", "Path", "Cost")
	fmt.Fprintf(w, "%-34s %11s ms\n", "Today: switch in (SKINIT+Unseal)", fmtMS(r.LegacySwitchIn))
	fmt.Fprintf(w, "%-34s %11s ms\n", "Today: switch out (Seal)", fmtMS(r.LegacySwitchOut))
	fmt.Fprintf(w, "%-34s %11s ms\n", "Today: round trip", fmtMS(r.LegacyRoundTrip))
	fmt.Fprintf(w, "%-34s %11.4f µs\n", "Recommended: switch in (SLAUNCH)", us(r.RecommendedSwitchIn))
	fmt.Fprintf(w, "%-34s %11.4f µs\n", "Recommended: switch out (SYIELD)", us(r.RecommendedSwitchOut))
	fmt.Fprintf(w, "%-34s %11.4f µs\n", "Recommended: round trip", us(r.RecommendedRoundTrip))
	fmt.Fprintf(w, "Speedup: %.0fx (%.1f orders of magnitude; the paper projects six)\n",
		r.Speedup, r.OrdersOfMagnitude)
}
