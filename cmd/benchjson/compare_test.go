package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func i64(v int64) *int64 { return &v }

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportsMatchesByName(t *testing.T) {
	old := &Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: i64(1000), AllocsPerOp: i64(10)},
		{Name: "BenchmarkGone", NsPerOp: 5},
	}}
	new := &Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 110, BytesPerOp: i64(500), AllocsPerOp: i64(10)},
		{Name: "BenchmarkFresh", NsPerOp: 7},
	}}
	deltas, onlyOld, onlyNew := CompareReports(old, new)
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkA" {
		t.Fatalf("deltas = %+v, want just BenchmarkA", deltas)
	}
	d := deltas[0]
	if d.NsRegressPct != 10 {
		t.Errorf("ns regression = %v%%, want 10%%", d.NsRegressPct)
	}
	if d.BytesRegressPct != -50 {
		t.Errorf("bytes regression = %v%%, want -50%% (improvement)", d.BytesRegressPct)
	}
	if d.AllocsRegressPct != 0 {
		t.Errorf("allocs regression = %v%%, want 0", d.AllocsRegressPct)
	}
	if len(onlyOld) != 1 || onlyOld[0] != "BenchmarkGone" {
		t.Errorf("onlyOld = %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "BenchmarkFresh" {
		t.Errorf("onlyNew = %v", onlyNew)
	}
}

func TestRegressPctZeroBaseline(t *testing.T) {
	if got := regressPct(0, 0); got != 0 {
		t.Errorf("0->0 = %v, want 0", got)
	}
	if got := regressPct(0, 5); got != 100 {
		t.Errorf("0->5 = %v, want 100", got)
	}
}

func TestRunComparePassesWithinThresholds(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: i64(1000), AllocsPerOp: i64(100)},
	}})
	newP := writeReport(t, dir, "new.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 120, BytesPerOp: i64(1100), AllocsPerOp: i64(110)},
	}})
	var out strings.Builder
	bad, err := runCompare(&out, oldP, newP, 50, 25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("bad = %d, want 0; output:\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output missing OK:\n%s", out.String())
	}
}

func TestRunCompareFailsOnNsRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100000}, // well above the ns floor
	}})
	newP := writeReport(t, dir, "new.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 200000},
	}})
	var out strings.Builder
	bad, err := runCompare(&out, oldP, newP, 50, 25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatalf("100%% ns/op regression passed a 50%% gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(ns)") {
		t.Errorf("output missing REGRESSION(ns):\n%s", out.String())
	}
}

func TestRunCompareFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: i64(1000), AllocsPerOp: i64(100)},
	}})
	newP := writeReport(t, dir, "new.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: i64(1000), AllocsPerOp: i64(200)},
	}})
	var out strings.Builder
	bad, err := runCompare(&out, oldP, newP, 50, 25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatalf("2x allocs/op regression passed a 25%% gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(allocs)") {
		t.Errorf("output missing REGRESSION(allocs):\n%s", out.String())
	}
}

func TestRunCompareFailsOnRemovedBenchmark(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 100},
	}})
	newP := writeReport(t, dir, "new.json", Report{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 100},
	}})
	var out strings.Builder
	bad, err := runCompare(&out, oldP, newP, 50, 25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatalf("removed benchmark passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("output missing MISSING marker:\n%s", out.String())
	}
}

func TestRunCompareNsFloorExemptsNoisyMicrobenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", Report{Results: []Result{
		{Name: "BenchmarkTiny", NsPerOp: 40}, // nanosecond-scale: jitter-dominated
	}})
	newP := writeReport(t, dir, "new.json", Report{Results: []Result{
		{Name: "BenchmarkTiny", NsPerOp: 90},
	}})
	var out strings.Builder
	bad, err := runCompare(&out, oldP, newP, 50, 25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("sub-floor ns jitter flagged as regression:\n%s", out.String())
	}
}

func TestRunCompareGatesVirtualTimeExactly(t *testing.T) {
	withMetrics := func(m map[string]float64) Report {
		return Report{Results: []Result{{Name: "BenchmarkFigure2", NsPerOp: 100, Metrics: m}}}
	}
	cases := []struct {
		name     string
		old, new map[string]float64
		bad      int
	}{
		{"identical", map[string]float64{"vms_palgen": 25.0894, "vns_amd_vmenter": 558}, map[string]float64{"vms_palgen": 25.0894, "vns_amd_vmenter": 558}, 0},
		{"vms drift", map[string]float64{"vms_palgen": 25.0894}, map[string]float64{"vms_palgen": 25.0895}, 1},
		{"vns drift down", map[string]float64{"vns_amd_vmenter": 558}, map[string]float64{"vns_amd_vmenter": 557}, 1},
		{"wall metric drift", map[string]float64{"ns/instr": 3.5, "signs_per_job": 0.125}, map[string]float64{"ns/instr": 9, "signs_per_job": 1}, 0},
		{"one side only", map[string]float64{"vms_palgen": 25.0894}, map[string]float64{"vms_paluse": 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oldP := writeReport(t, dir, "old.json", withMetrics(tc.old))
			newP := writeReport(t, dir, "new.json", withMetrics(tc.new))
			var out strings.Builder
			bad, err := runCompare(&out, oldP, newP, 50, 25, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if bad != tc.bad {
				t.Fatalf("bad = %d, want %d; output:\n%s", bad, tc.bad, out.String())
			}
			if tc.bad > 0 && !strings.Contains(out.String(), "REGRESSION(virtual time)") {
				t.Errorf("output missing REGRESSION(virtual time):\n%s", out.String())
			}
		})
	}
}
