package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: minimaltcb/internal/obs
cpu: Intel(R) Xeon(R)
BenchmarkStartSpanDisabled-8   	85632478	        14.02 ns/op	       0 B/op	       0 allocs/op
BenchmarkScopeEnabled-8        	 4821033	       249.1 ns/op	     144 B/op	       2 allocs/op
PASS
ok  	minimaltcb/internal/obs	2.713s
pkg: minimaltcb/internal/palsvc
BenchmarkJobTracerOff-8   	     512	   2304155 ns/op
BenchmarkThroughput-8     	    1024	   1000000 ns/op	  12.50 MB/s
some stray log line
BenchmarkBroken this line has no numbers
PASS
ok  	minimaltcb/internal/palsvc	4.201s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(rep.Results), rep.Results)
	}

	r := rep.Results[0]
	if r.Pkg != "minimaltcb/internal/obs" || r.Name != "BenchmarkStartSpanDisabled" ||
		r.Procs != 8 || r.Runs != 85632478 || r.NsPerOp != 14.02 {
		t.Fatalf("first result %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 0 || r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Fatalf("benchmem columns lost: %+v", r)
	}

	r = rep.Results[2]
	if r.Pkg != "minimaltcb/internal/palsvc" || r.Name != "BenchmarkJobTracerOff" {
		t.Fatalf("pkg context not tracked: %+v", r)
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatalf("absent benchmem columns must stay nil: %+v", r)
	}

	r = rep.Results[3]
	if r.MBPerSec != 12.50 {
		t.Fatalf("MB/s not parsed: %+v", r)
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := Parse(strings.NewReader("PASS\nok example 0.01s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("results from non-benchmark input: %+v", rep.Results)
	}
	if rep.Results == nil {
		t.Fatal("Results must be non-nil so the JSON is [] not null")
	}
}

func TestParseLineShapes(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		name string
	}{
		{"BenchmarkX-16 100 5 ns/op", true, "BenchmarkX"},
		{"BenchmarkNoProcs 100 5 ns/op", true, "BenchmarkNoProcs"},
		{"BenchmarkShort 100", false, ""},
		{"BenchmarkNoUnit 100 5 furlongs/op 3 ns", false, ""},
		{"BenchmarkBadRuns abc 5 ns/op", false, ""},
	}
	for _, tc := range cases {
		res, ok := parseLine(tc.line)
		if ok != tc.ok {
			t.Fatalf("parseLine(%q) ok=%v, want %v", tc.line, ok, tc.ok)
		}
		if ok && res.Name != tc.name {
			t.Fatalf("parseLine(%q) name=%q, want %q", tc.line, res.Name, tc.name)
		}
	}
	if res, _ := parseLine("BenchmarkX-16 100 5 ns/op"); res.Procs != 16 {
		t.Fatalf("procs suffix not stripped: %+v", res)
	}
}

func TestParseKeepsCustomMetrics(t *testing.T) {
	line := "BenchmarkFigure2-2   100   51234 ns/op   25.09 vms_palgen   3.5 ns/instr   0.125 signs_per_job   12 B/op   1 allocs/op"
	res, ok := parseLine(line)
	if !ok {
		t.Fatalf("parseLine(%q) rejected the line", line)
	}
	want := map[string]float64{"vms_palgen": 25.09, "ns/instr": 3.5, "signs_per_job": 0.125}
	if len(res.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", res.Metrics, want)
	}
	for unit, v := range want {
		if res.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, res.Metrics[unit], v)
		}
	}
	if res.NsPerOp != 51234 || *res.BytesPerOp != 12 || *res.AllocsPerOp != 1 {
		t.Errorf("standard columns lost next to custom metrics: %+v", res)
	}

	plain, _ := parseLine("BenchmarkX-16 100 5 ns/op 0 B/op 0 allocs/op")
	if plain.Metrics != nil {
		t.Errorf("a line with no custom metrics got %v", plain.Metrics)
	}
}
