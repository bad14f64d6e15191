package experiments

import (
	"fmt"
	"io"
	"time"

	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
)

// Table2Row is one platform's VM world-switch costs.
type Table2Row struct {
	Platform           string
	EnterAvg, EnterStd time.Duration
	ExitAvg, ExitStd   time.Duration
}

// Table2 reproduces "Table 2. Benchmarks showing the average runtime of VM
// Entry and VM Exit" on the Tyan n3600R (AMD SVM) and the Intel TEP
// (Intel TXT/VT). These are the costs the paper projects for SLAUNCH
// context switches (§5.7).
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	profiles := []platform.Profile{platform.TyanN3600R(), platform.IntelTEP()}
	rows := make([]Table2Row, 0, len(profiles))
	for _, p := range profiles {
		p.KeyBits = cfg.KeyBits
		p.Seed = cfg.Seed
		var enter, exit sim.Sample
		err := withLab(p, func(l *lab) error {
			core := l.m.BootCPU()
			for trial := 0; trial < cfg.Trials; trial++ {
				sw := sim.StartStopwatch(l.m.Clock)
				core.VMEnter()
				enter.Add(sw.Elapsed())
				sw = sim.StartStopwatch(l.m.Clock)
				core.VMExit()
				exit.Add(sw.Elapsed())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Platform: p.Name,
			EnterAvg: enter.Mean(), EnterStd: enter.Stdev(),
			ExitAvg: exit.Mean(), ExitStd: exit.Stdev(),
		})
	}
	return rows, nil
}

// RenderTable2 writes the rows in the paper's layout (µs, four decimals).
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2. VM Entry / VM Exit runtime (µs)")
	fmt.Fprintf(w, "%-36s %12s %10s %12s %10s\n", "Platform", "Enter avg", "stdev", "Exit avg", "stdev")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %12.4f %10.4f %12.4f %10.4f\n",
			r.Platform, us(r.EnterAvg), us(r.EnterStd), us(r.ExitAvg), us(r.ExitStd))
	}
}
