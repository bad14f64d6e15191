package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Compare mode: `benchjson -compare old.json new.json` diffs two committed
// bench artifacts and fails (exit 1) when the new numbers regress past the
// thresholds. This is the gate `make check` runs over BENCH_PR*.json so a
// PR cannot silently give back the fast path's wins.
//
// Thresholds are percentages of the old value. ns/op gets a generous
// default — wall time on a shared builder is noisy — while allocs/op and
// B/op are near-deterministic for a fixed workload, so they get a tight
// one. Benchmarks whose baseline runs under the ns floor are exempt from
// the ns/op gate entirely: at nanosecond scale and a fixed iteration
// count, wall-time percentages are dominated by scheduler jitter, while
// their B/op and allocs/op stay exact and remain gated. Custom metrics in
// virtual time (units vms_* and vns_*) are deterministic, so one present on
// both sides fails the gate if it differs at all.

// Delta is one benchmark's old→new movement.
type Delta struct {
	Name             string
	OldNs, NewNs     float64
	OldB, NewB       *int64
	OldAlloc         *int64
	NewAlloc         *int64
	NsRegressPct     float64 // positive = slower
	BytesRegressPct  float64
	AllocsRegressPct float64
	// VirtualDrift lists the virtual-time metrics present on both sides
	// whose values differ, by unit.
	VirtualDrift []MetricDrift
}

// MetricDrift is one custom metric's old→new change.
type MetricDrift struct {
	Unit     string
	Old, New float64
}

// virtualUnit reports whether a custom metric is measured in virtual time.
func virtualUnit(unit string) bool {
	return strings.HasPrefix(unit, "vms_") || strings.HasPrefix(unit, "vns_")
}

// CompareReports matches results by name and computes regressions. Bench
// names present in only one report are returned in onlyOld/onlyNew; a
// removed benchmark is suspicious (it could hide a regression) but is the
// caller's call to flag.
func CompareReports(old, new *Report) (deltas []Delta, onlyOld, onlyNew []string) {
	oldByName := map[string]Result{}
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	newNames := map[string]bool{}
	for _, n := range new.Results {
		newNames[n.Name] = true
		o, ok := oldByName[n.Name]
		if !ok {
			onlyNew = append(onlyNew, n.Name)
			continue
		}
		d := Delta{
			Name:  n.Name,
			OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldB: o.BytesPerOp, NewB: n.BytesPerOp,
			OldAlloc: o.AllocsPerOp, NewAlloc: n.AllocsPerOp,
		}
		d.NsRegressPct = regressPct(o.NsPerOp, n.NsPerOp)
		if o.BytesPerOp != nil && n.BytesPerOp != nil {
			d.BytesRegressPct = regressPct(float64(*o.BytesPerOp), float64(*n.BytesPerOp))
		}
		if o.AllocsPerOp != nil && n.AllocsPerOp != nil {
			d.AllocsRegressPct = regressPct(float64(*o.AllocsPerOp), float64(*n.AllocsPerOp))
		}
		for unit, ov := range o.Metrics {
			if nv, ok := n.Metrics[unit]; ok && virtualUnit(unit) && nv != ov {
				d.VirtualDrift = append(d.VirtualDrift, MetricDrift{Unit: unit, Old: ov, New: nv})
			}
		}
		sort.Slice(d.VirtualDrift, func(i, j int) bool { return d.VirtualDrift[i].Unit < d.VirtualDrift[j].Unit })
		deltas = append(deltas, d)
	}
	for _, o := range old.Results {
		if !newNames[o.Name] {
			onlyOld = append(onlyOld, o.Name)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return deltas, onlyOld, onlyNew
}

// regressPct returns how much worse new is than old, in percent of old.
// Improvements are negative. A zero old value regresses only if new > 0.
func regressPct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100 // 0 → nonzero: treat as a full regression
	}
	return (new - old) / old * 100
}

// runCompare loads both reports, prints the delta table, and returns the
// number of threshold violations.
func runCompare(w io.Writer, oldPath, newPath string, maxNsPct, maxAllocPct, nsFloor float64) (int, error) {
	old, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	new, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}
	deltas, onlyOld, onlyNew := CompareReports(old, new)

	bad := 0
	fmt.Fprintf(w, "benchjson compare: %s -> %s (fail past +%.0f%% ns/op, +%.0f%% B/op or allocs/op, or on any vms_/vns_ change)\n",
		oldPath, newPath, maxNsPct, maxAllocPct)
	fmt.Fprintf(w, "%-40s %14s %14s %14s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, d := range deltas {
		verdict := ""
		if d.NsRegressPct > maxNsPct && d.OldNs >= nsFloor {
			verdict = " REGRESSION(ns)"
			bad++
		}
		if d.BytesRegressPct > maxAllocPct {
			verdict += " REGRESSION(B)"
			bad++
		}
		if d.AllocsRegressPct > maxAllocPct {
			verdict += " REGRESSION(allocs)"
			bad++
		}
		fmt.Fprintf(w, "%-40s %+13.1f%% %+13.1f%% %+13.1f%%%s\n",
			d.Name, d.NsRegressPct, d.BytesRegressPct, d.AllocsRegressPct, verdict)
		for _, v := range d.VirtualDrift {
			fmt.Fprintf(w, "  %-38s %g -> %g REGRESSION(virtual time)\n", v.Unit, v.Old, v.New)
			bad++
		}
	}
	for _, name := range onlyOld {
		fmt.Fprintf(w, "%-40s MISSING from %s (removed benchmarks can hide regressions)\n", name, newPath)
		bad++
	}
	for _, name := range onlyNew {
		fmt.Fprintf(w, "%-40s new benchmark (no baseline)\n", name)
	}
	if bad == 0 {
		fmt.Fprintln(w, "benchjson compare: OK")
	}
	return bad, nil
}

func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
