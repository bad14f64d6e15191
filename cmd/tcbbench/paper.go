package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"minimaltcb/internal/core"
	"minimaltcb/internal/experiments"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
)

// pinsJSON holds every value VerifyAll(experiments.Quick()) measures at
// seed 42. Virtual time is deterministic, so the regeneration must match it
// bit for bit; TestPaperPinsExact rewrites it only under -update.
//
//go:embed testdata/paper_seed42.json
var pinsJSON []byte

// pin is one pinned measured value.
type pin struct {
	Artefact string  `json:"artefact"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Measured float64 `json:"measured"`
}

func loadPins(b []byte) ([]pin, error) {
	var pins []pin
	if err := json.Unmarshal(b, &pins); err != nil {
		return nil, fmt.Errorf("paper pins: %w", err)
	}
	return pins, nil
}

func pinsOf(checks []experiments.Check) []pin {
	out := make([]pin, len(checks))
	for i, c := range checks {
		out[i] = pin{Artefact: c.Artefact, Metric: c.Metric, Unit: c.Unit, Measured: c.Measured}
	}
	return out
}

// comparePins reports every check whose measured value differs from its pin
// in any bit, and any check added, dropped or renamed.
func comparePins(pins []pin, checks []experiments.Check) error {
	if len(pins) != len(checks) {
		return fmt.Errorf("paper pins: %d checks, %d pinned", len(checks), len(pins))
	}
	var errs []error
	for i, c := range checks {
		p := pins[i]
		if p.Artefact != c.Artefact || p.Metric != c.Metric || p.Unit != c.Unit {
			errs = append(errs, fmt.Errorf("check %d is %s %q, pinned %s %q", i, c.Artefact, c.Metric, p.Artefact, p.Metric))
			continue
		}
		if math.Float64bits(c.Measured) != math.Float64bits(p.Measured) {
			errs = append(errs, fmt.Errorf("%s %s: measured %v %s, pinned %v", c.Artefact, c.Metric, c.Measured, c.Unit, p.Measured))
		}
	}
	return errors.Join(errs...)
}

// measured returns the value of the check whose artefact is artefact and
// whose metric starts with prefix.
func measured(checks []experiments.Check, artefact, prefix string) float64 {
	for _, c := range checks {
		if c.Artefact == artefact && strings.HasPrefix(c.Metric, prefix) {
			return c.Measured
		}
	}
	return 0
}

// paperOp runs one regeneration at cfg, times it, and records it in p: it
// fails if VerifyAll errors, if any check misses its paper band, or — when
// pins is non-nil — if any value differs from its pin.
func paperOp(p *phase, cfg experiments.Config, pins []pin) []experiments.Check {
	start := time.Now()
	checks, err := experiments.VerifyAll(cfg)
	d := time.Since(start)
	p.Attempted++
	if err != nil {
		p.Failed++
		p.fail(err.Error())
		return nil
	}
	for _, c := range checks {
		if !c.OK {
			p.CheckFailed++
			p.fail(fmt.Sprintf("seed %d: %s %s measured %v, paper %v", cfg.Seed, c.Artefact, c.Metric, c.Measured, c.Paper))
			return checks
		}
	}
	if pins != nil {
		if err := comparePins(pins, checks); err != nil {
			p.CheckFailed++
			p.fail(err.Error())
			return checks
		}
	}
	p.OK++
	p.noteOK(time.Now(), d)
	p.paluse += measured(checks, "Figure 2", "PAL Use total")
	return checks
}

// poolSeeds are the experiment seeds a paper-regen run cycles through, drawn
// from the run's seed. Each is cold on its first op (keys, machines and
// memos are built per seed) and warm afterwards.
func poolSeeds(w *workload, seed uint64) []uint64 {
	out := make([]uint64, w.seedPool)
	for k := range out {
		out[k] = derive(seed, saltPaper, uint64(k))
	}
	return out
}

func quickAt(seed uint64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = seed
	return cfg
}

// runPaper regenerates the paper's evaluation in-process: the cold seed-42
// regeneration checked against the pins is the set-up, then a closed loop
// of VerifyAll over the pool seeds, then a warm seed-42 recheck.
func runPaper(w *workload, seed uint64, pl plan, traced, setupOnly bool, t0 time.Time, rec *recorder) *report {
	rep := newReport(w, seed, traced)
	pins, err := loadPins(pinsJSON)
	if err != nil {
		rep.errorf("%v", err)
		return rep
	}
	setup := rep.phase("setup")
	base := paperOp(setup, experiments.Quick(), pins)
	rep.SetupS = time.Since(t0).Seconds()
	if setupOnly || base == nil {
		return rep
	}
	seeds := poolSeeds(w, seed)
	warm := rep.phase("warmup")
	for _, s := range seeds {
		paperOp(warm, quickAt(s), nil)
	}
	paperLoop(warm, seeds, pl.warmupN, 1)

	if !traced {
		closed := rep.phase("closed")
		paperLoop(closed, seeds, pl.closedN, pl.windows)
		paperOp(rep.phase("recheck"), experiments.Quick(), pins)
		rep.Metrics.set("throughput_ops", closed.throughput())
		rep.setLatency(closed)
		// The paper's clock for one job: a SEA "PAL Use" session (SKINIT +
		// Unseal + Seal), averaged over the measured ops' seeds.
		rep.Metrics.set("vms_per_job", closed.paluse/float64(max(closed.OK, 1)))
		rep.setHeap()
		return rep
	}

	untraced := rep.phase("closed")
	paperLoop(untraced, seeds, pl.closedN/2, 1)
	tp := rep.phase("closed.traced")
	var models []*layerModel
	for i := 0; i < pl.closedN/2; i++ {
		if m := tracedPaperOp(tp, rec, quickAt(seeds[i%len(seeds)])); m != nil {
			models = append(models, m)
		}
	}
	var sys sim.Sample
	for k := uint64(0); k < 3; k++ {
		prof := platform.Recommended(platform.HPdc5750(), sePCRs)
		prof.KeyBits = keyBits
		prof.Seed = derive(seed, saltSystem, k)
		req := rec.id()
		d, err := rec.time(req, 0, "core.NewSystem", func() error {
			_, err := core.NewSystem(prof)
			return err
		})
		if err != nil {
			rep.errorf("core.NewSystem: %v", err)
		}
		sys.Add(d)
	}
	rep.Metrics.set("paper.system_ms", ms(sys.Percentile(50)))
	rep.Metrics.set("vms.skinit_64KB", measured(base, "Table 1", platform.HPdc5750().Name+" @64KB"))
	rep.Metrics.set("vms.senter_64KB", measured(base, "Table 1", platform.IntelTEP().Name+" @64KB"))
	rep.Metrics.set("vms.palgen", measured(base, "Figure 2", "PAL Gen total"))
	rep.Metrics.set("vms.paluse", measured(base, "Figure 2", "PAL Use total"))
	rep.Metrics.set("paper.orders_of_magnitude", measured(base, "§5.7", "orders of magnitude"))
	rep.traceMetrics(untraced, tp, buildLedger(models, untraced.Latency.Percentile(50)))
	for _, row := range rep.Ledger.Rows {
		switch row.Layer {
		case "table1", "figure2", "figure3", "table2", "impact":
			rep.Metrics.set("paper."+row.Layer+"_ms", ms(row.SelfP50))
		}
	}
	return rep
}

// paperLoop runs n back-to-back regenerations, cycling over seeds.
func paperLoop(p *phase, seeds []uint64, n, windows int) {
	start := time.Now()
	p.startWindows(start, n, windows)
	for i := 0; i < n; i++ {
		paperOp(p, quickAt(seeds[i%len(seeds)]), nil)
	}
	p.Elapsed = time.Since(start)
}

// tracedPaperOp runs the experiments VerifyAll runs, one span each under a
// request root, and returns the op's layer model. The root's self time is
// the op's own overhead.
func tracedPaperOp(p *phase, rec *recorder, cfg experiments.Config) *layerModel {
	req := rec.id()
	start := time.Now()
	steps := []struct {
		name string
		f    func() error
	}{
		{"table1", func() error { _, err := experiments.Table1(cfg); return err }},
		{"figure2", func() error { _, err := experiments.Figure2(cfg); return err }},
		{"figure3", func() error { _, err := experiments.Figure3(cfg); return err }},
		{"table2", func() error { _, err := experiments.Table2(cfg); return err }},
		{"impact", func() error { _, err := experiments.Impact(cfg); return err }},
	}
	m := &layerModel{name: "check"}
	p.Attempted++
	for _, s := range steps {
		d, err := rec.time(req, req, "experiments."+s.name, s.f)
		if err != nil {
			p.Failed++
			p.fail(err.Error())
			return nil
		}
		m.children = append(m.children, &layerModel{name: s.name, d: d})
	}
	end := time.Now()
	rec.record(req, req, 0, "request", start, end)
	m.d = end.Sub(start)
	p.OK++
	p.Latency.Add(m.d)
	return m
}
