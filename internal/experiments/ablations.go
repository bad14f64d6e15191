package experiments

import (
	"fmt"
	"io"
	"time"

	"minimaltcb/internal/lpc"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sea"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

// This file holds the ablation studies DESIGN.md §5 calls out: design
// choices the paper discusses qualitatively, quantified on the simulator.

// --- Ablation 1: hash-on-TPM (AMD) vs hash-on-CPU (Intel) ---

// HashLocationPoint compares the two late-launch designs at one PAL size.
type HashLocationPoint struct {
	Size       int
	AMD, Intel time.Duration
}

// AblationHashLocation sweeps PAL sizes to locate the crossover between
// AMD's ship-the-PAL-to-the-TPM design and Intel's hash-on-CPU design
// (§4.3.2: "for large PALs, Intel's implementation decision pays off").
func AblationHashLocation(cfg Config, sizes []int) ([]HashLocationPoint, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{4 << 10, 8 << 10, 9 << 10, 10 << 10, 12 << 10, 16 << 10, 32 << 10, 64 << 10}
	}
	amd := platform.HPdc5750()
	intel := platform.IntelTEP()
	amd.KeyBits, intel.KeyBits = cfg.KeyBits, cfg.KeyBits
	var out []HashLocationPoint
	for _, size := range sizes {
		a, err := labLaunchLatency(amd, size)
		if err != nil {
			return nil, err
		}
		i, err := labLaunchLatency(intel, size)
		if err != nil {
			return nil, err
		}
		out = append(out, HashLocationPoint{Size: size, AMD: a, Intel: i})
	}
	return out, nil
}

// RenderHashLocation writes the sweep and marks the crossover.
func RenderHashLocation(w io.Writer, pts []HashLocationPoint) {
	fmt.Fprintln(w, "Ablation: late-launch hash location (AMD hash-on-TPM vs Intel hash-on-CPU)")
	fmt.Fprintf(w, "%8s %12s %12s %s\n", "PAL", "AMD ms", "Intel ms", "winner")
	for _, p := range pts {
		winner := "AMD"
		if p.Intel < p.AMD {
			winner = "Intel"
		}
		fmt.Fprintf(w, "%7dK %12s %12s %s\n", p.Size/1024, fmtMS(p.AMD), fmtMS(p.Intel), winner)
	}
}

// --- Ablation 2: TPM wait-state behaviour ---

// TPMWaitResult contrasts a long-wait TPM with a full-bus-speed TPM.
type TPMWaitResult struct {
	LongWait, FullSpeed time.Duration
	Factor              float64
}

// AblationTPMWait quantifies how much of SKINIT's cost is the TPM's
// long-wait cycles: a 64 KB launch through the dc5750's wait-stating TPM
// versus a hypothetical full-bus-speed TPM (the paper reads the Tyan's
// 8.82 ms as "representative of the performance of future TPMs").
func AblationTPMWait(cfg Config) (*TPMWaitResult, error) {
	cfg = cfg.withDefaults()
	slow := platform.HPdc5750()
	slow.KeyBits = cfg.KeyBits
	fast := platform.HPdc5750()
	fast.KeyBits = cfg.KeyBits
	fast.BusTiming = lpc.FullSpeed()
	a, err := labLaunchLatency(slow, 64<<10)
	if err != nil {
		return nil, err
	}
	b, err := labLaunchLatency(fast, 64<<10)
	if err != nil {
		return nil, err
	}
	return &TPMWaitResult{LongWait: a, FullSpeed: b, Factor: float64(a) / float64(b)}, nil
}

// RenderTPMWait writes the contrast.
func RenderTPMWait(w io.Writer, r *TPMWaitResult) {
	fmt.Fprintln(w, "Ablation: TPM long-wait cycles (64 KB SKINIT)")
	fmt.Fprintf(w, "  wait-stating TPM:   %s ms\n", fmtMS(r.LongWait))
	fmt.Fprintf(w, "  full-bus-speed TPM: %s ms\n", fmtMS(r.FullSpeed))
	fmt.Fprintf(w, "  factor: %.1fx\n", r.Factor)
}

// --- Ablation 3: sePCR provisioning ---

// SePCRPoint reports admission behaviour at one register count.
type SePCRPoint struct {
	SePCRs   int
	Offered  int
	Admitted int
	Rejected int
}

// AblationSePCRCount offers a fixed load of concurrent (suspended) PALs to
// TPMs provisioned with different sePCR counts: the register count is the
// hard concurrency limit §5.4 describes ("the number of sePCRs present in
// a TPM establishes the limit for the number of concurrently executing
// PALs").
func AblationSePCRCount(cfg Config, offered int, counts []int) ([]SePCRPoint, error) {
	cfg = cfg.withDefaults()
	if offered <= 0 {
		offered = 8
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	im := pal.MustBuild(`
		svc 1
		ldi r0, 0
		svc 0
	`)
	var out []SePCRPoint
	for _, n := range counts {
		p := platform.Recommended(platform.HPdc5750(), n)
		p.KeyBits = cfg.KeyBits
		p.NumCPUs = 2
		m, err := platform.New(p)
		if err != nil {
			return nil, err
		}
		mg, err := sksm.NewManager(osker.NewKernel(m))
		if err != nil {
			return nil, err
		}
		pt := SePCRPoint{SePCRs: n, Offered: offered}
		core := m.CPUs[1]
		for i := 0; i < offered; i++ {
			s, err := mg.NewSECB(im, 0, 0)
			if err != nil {
				return nil, err
			}
			// Launch and immediately yield: the PAL stays live
			// (suspended), holding its register.
			if _, err := mg.RunSlice(core, s); err != nil {
				pt.Rejected++
				continue
			}
			pt.Admitted++
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderSePCRCount writes the admission table.
func RenderSePCRCount(w io.Writer, pts []SePCRPoint) {
	fmt.Fprintln(w, "Ablation: sePCR provisioning vs concurrent-PAL admission")
	fmt.Fprintf(w, "%8s %8s %10s %10s\n", "sePCRs", "offered", "admitted", "rejected")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %8d %10d %10d\n", p.SePCRs, p.Offered, p.Admitted, p.Rejected)
	}
}

// --- Ablation 4: preemption quantum ---

// QuantumPoint reports scheduling behaviour at one quantum.
type QuantumPoint struct {
	Quantum  time.Duration
	Slices   int
	Wall     time.Duration
	Overhead float64 // context-switch time as a share of wall time
}

// AblationQuantum sweeps the SECB preemption timer for a fixed-work PAL:
// small quanta bound PAL monopolization of a core (availability for the
// legacy OS) at the price of more world switches (§5.3, §6).
func AblationQuantum(cfg Config, quanta []time.Duration) ([]QuantumPoint, error) {
	cfg = cfg.withDefaults()
	if len(quanta) == 0 {
		quanta = []time.Duration{
			time.Microsecond, 5 * time.Microsecond, 20 * time.Microsecond,
			100 * time.Microsecond, 0, // 0 = run to completion
		}
	}
	im := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 50000
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		ldi	r0, 0
		svc	0
	`)
	var out []QuantumPoint
	for _, q := range quanta {
		p := platform.Recommended(platform.HPdc5750(), 1)
		p.KeyBits = cfg.KeyBits
		m, err := platform.New(p)
		if err != nil {
			return nil, err
		}
		mg, err := sksm.NewManager(osker.NewKernel(m))
		if err != nil {
			return nil, err
		}
		s, err := mg.NewSECB(im, 0, q)
		if err != nil {
			return nil, err
		}
		core := m.CPUs[1]
		start := m.Clock.Now()
		if err := mg.RunToCompletion(core, s); err != nil {
			return nil, err
		}
		wall := m.Clock.Now() - start
		switchTime := time.Duration(s.Resumes) * (core.Params.VMEnter + core.Params.VMExit)
		out = append(out, QuantumPoint{
			Quantum:  q,
			Slices:   s.Slices,
			Wall:     wall,
			Overhead: float64(switchTime) / float64(wall),
		})
	}
	return out, nil
}

// RenderQuantum writes the sweep.
func RenderQuantum(w io.Writer, pts []QuantumPoint) {
	fmt.Fprintln(w, "Ablation: preemption quantum vs context-switch overhead (150k-instruction PAL)")
	fmt.Fprintf(w, "%14s %8s %12s %10s\n", "quantum", "slices", "wall", "switch ovh")
	for _, p := range pts {
		q := "run-to-end"
		if p.Quantum > 0 {
			q = p.Quantum.String()
		}
		fmt.Fprintf(w, "%14s %8d %12v %9.2f%%\n", q, p.Slices, p.Wall, 100*p.Overhead)
	}
}

// --- Ablation 5: Figure 2 across TPM vendors ---

// CrossPlatformRow is Figure 2's flows on one machine.
type CrossPlatformRow struct {
	Machine string
	PALGen  time.Duration
	Quote   time.Duration
	PALUse  time.Duration
}

// AblationFigure2CrossPlatform repeats Figure 2's generic-application
// measurement on every TPM-equipped machine, not just the dc5750 the
// paper charts: the vendor spread of Figure 3 propagates directly into
// application-level overheads, supporting the paper's point that the TPM
// is the bottleneck.
func AblationFigure2CrossPlatform(cfg Config) ([]CrossPlatformRow, error) {
	cfg = cfg.withDefaults()
	machines := []platform.Profile{
		platform.HPdc5750(),
		platform.AMDInfineonWS(),
		platform.LenovoT60(),
		platform.IntelTEP(),
	}
	var out []CrossPlatformRow
	for _, p := range machines {
		p.KeyBits = cfg.KeyBits
		p.Seed = cfg.Seed
		err := withLab(p, func(l *lab) error {
			rt := sea.NewRuntime(l.k)
			gen, err := rt.RunPALGen()
			if err != nil {
				return fmt.Errorf("%s: PAL Gen: %w", p.Name, err)
			}
			_, qd, err := rt.Quote([]byte("xplat nonce"))
			if err != nil {
				return err
			}
			useImage := sea.BuildPALUse(true)
			prior, err := rt.SealForImage(useImage, make([]byte, sea.GenPayload))
			if err != nil {
				return err
			}
			use, err := rt.RunPALUse(prior, true)
			if err != nil {
				return fmt.Errorf("%s: PAL Use: %w", p.Name, err)
			}
			out = append(out, CrossPlatformRow{
				Machine: p.Name,
				PALGen:  gen.Total,
				Quote:   qd,
				PALUse:  use.Total,
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RenderCrossPlatform writes the vendor sweep.
func RenderCrossPlatform(w io.Writer, rows []CrossPlatformRow) {
	fmt.Fprintln(w, "Ablation: Figure 2's flows across TPM vendors (ms)")
	fmt.Fprintf(w, "%-36s %10s %10s %10s\n", "Machine", "PAL Gen", "Quote", "PAL Use")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %10s %10s %10s\n",
			r.Machine, fmtMS(r.PALGen), fmtMS(r.Quote), fmtMS(r.PALUse))
	}
}

// --- Ablation 6: seal payload size ---

// SealPayloadPoint is one payload size's Seal latency.
type SealPayloadPoint struct {
	Payload int
	Latency time.Duration
}

// AblationSealPayload sweeps TPM_Seal payload sizes on the Broadcom,
// exposing the base + per-KB structure the paper's two published Seal
// numbers (11.39 ms and 20.01 ms) imply.
func AblationSealPayload(cfg Config, payloads []int) ([]SealPayloadPoint, error) {
	cfg = cfg.withDefaults()
	if len(payloads) == 0 {
		payloads = []int{0, 256, 1024, 4096, 16384, 65536}
	}
	p := platform.HPdc5750()
	p.KeyBits = cfg.KeyBits
	var out []SealPayloadPoint
	err := withLab(p, func(l *lab) error {
		clock, chip := l.m.Clock, l.m.TPM()
		for _, n := range payloads {
			// Average a few trials to smooth profile jitter.
			var total time.Duration
			for trial := 0; trial < cfg.Trials; trial++ {
				start := clock.Now()
				if _, err := chip.Seal(tpm.Selection{0}, make([]byte, n)); err != nil {
					return err
				}
				total += clock.Now() - start
			}
			out = append(out, SealPayloadPoint{Payload: n, Latency: total / time.Duration(cfg.Trials)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderSealPayload writes the sweep.
func RenderSealPayload(w io.Writer, pts []SealPayloadPoint) {
	fmt.Fprintln(w, "Ablation: TPM_Seal latency vs payload size (Broadcom)")
	fmt.Fprintf(w, "%10s %12s\n", "payload", "latency ms")
	for _, p := range pts {
		fmt.Fprintf(w, "%9dB %12s\n", p.Payload, fmtMS(p.Latency))
	}
}
