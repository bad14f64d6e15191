package experiments

import (
	"fmt"
	"io"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

// Figure3Ops are the charted operations, in the paper's x-axis order.
var Figure3Ops = []string{"PCR Extend", "Seal", "Quote", "Unseal", "GetRand 128B"}

// Figure3Cell is one bar: mean and standard deviation over the trials.
type Figure3Cell struct {
	Mean, Stdev time.Duration
}

// Figure3Row is one TPM's set of bars.
type Figure3Row struct {
	TPM   string
	Cells map[string]Figure3Cell
}

// Figure3 reproduces "Figure 3. TPM benchmarks" across the four measured
// chips: PCR Extend, Seal, Quote, Unseal and GetRandom(128 B), with error
// bars over Trials runs (the paper uses 20).
func Figure3(cfg Config) ([]Figure3Row, error) {
	cfg = cfg.withDefaults()
	machines := []platform.Profile{
		platform.LenovoT60(),
		platform.HPdc5750(),
		platform.AMDInfineonWS(),
		platform.IntelTEP(),
	}
	rows := make([]Figure3Row, 0, len(machines))
	for _, p := range machines {
		p.KeyBits = cfg.KeyBits
		p.Seed = cfg.Seed
		var row Figure3Row
		err := withLab(p, func(l *lab) error {
			var err error
			row, err = figure3Row(l.m, cfg.Trials)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// figure3Row times the charted operations on one machine's TPM.
func figure3Row(m *platform.Machine, trials int) (Figure3Row, error) {
	chip := m.TPM()
	clock := m.Clock
	row := Figure3Row{TPM: chip.Profile().Name, Cells: map[string]Figure3Cell{}}

	samples := map[string]*sim.Sample{}
	for _, op := range Figure3Ops {
		samples[op] = &sim.Sample{}
	}
	payload := make([]byte, tpm.SealGenPayload)
	for trial := 0; trial < trials; trial++ {
		// PCR Extend.
		sw := sim.StartStopwatch(clock)
		if _, err := chip.Extend(10, evidence.Measure([]byte("event"))); err != nil {
			return row, err
		}
		samples["PCR Extend"].Add(sw.Elapsed())

		// Seal (1 KB payload, the PAL Gen convention).
		sw = sim.StartStopwatch(clock)
		blob, err := chip.Seal(tpm.Selection{10}, payload)
		if err != nil {
			return row, err
		}
		samples["Seal"].Add(sw.Elapsed())

		// Quote.
		sw = sim.StartStopwatch(clock)
		if _, err := chip.QuoteCommand(tpm.Selection{10}, []byte("nonce")); err != nil {
			return row, err
		}
		samples["Quote"].Add(sw.Elapsed())

		// Unseal.
		sw = sim.StartStopwatch(clock)
		if _, err := chip.Unseal(blob); err != nil {
			return row, err
		}
		samples["Unseal"].Add(sw.Elapsed())

		// GetRandom 128 B.
		sw = sim.StartStopwatch(clock)
		if _, err := chip.GetRandom(128); err != nil {
			return row, err
		}
		samples["GetRand 128B"].Add(sw.Elapsed())
	}
	for op, s := range samples {
		row.Cells[op] = Figure3Cell{Mean: s.Mean(), Stdev: s.Stdev()}
	}
	return row, nil
}

// RenderFigure3 writes the bars as a table (TPMs as rows).
func RenderFigure3(w io.Writer, rows []Figure3Row) {
	fmt.Fprintln(w, "Figure 3. TPM benchmarks: mean ms (stdev) over trials")
	fmt.Fprintf(w, "%-28s", "TPM")
	for _, op := range Figure3Ops {
		fmt.Fprintf(w, " %18s", op)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s", r.TPM)
		for _, op := range Figure3Ops {
			c := r.Cells[op]
			fmt.Fprintf(w, " %18s", fmt.Sprintf("%s (±%.1f)", fmtMS(c.Mean), ms(c.Stdev)))
		}
		fmt.Fprintln(w)
	}
}
