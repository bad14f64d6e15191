// Command benchjson converts `go test -bench` output into a
// machine-readable JSON document, so `make bench` can commit a stable
// artifact (BENCH_PR2.json) that later sessions diff against.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -compare OLD.json NEW.json   # exit 1 on regression
//
// The parser accepts the standard benchmark result line,
//
//	BenchmarkName-8   1000   1234 ns/op   25.09 vms_palgen   56 B/op   2 allocs/op
//
// keeps every b.ReportMetric value/unit pair beyond the standard columns
// (vms_palgen, ns/instr, signs_per_job, …) in Result.Metrics, keeps the
// pkg: context lines that precede each block, and ignores everything else
// (PASS/ok lines, logs).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"` // the -N GOMAXPROCS suffix
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// Metrics holds the b.ReportMetric values, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	compare := flag.Bool("compare", false, "compare two bench JSON files: -compare old.json new.json")
	maxNs := flag.Float64("max-ns-regress", 50, "compare: fail when ns/op regresses past this percent")
	maxAlloc := flag.Float64("max-alloc-regress", 25, "compare: fail when B/op or allocs/op regresses past this percent")
	nsFloor := flag.Float64("ns-floor", 1000, "compare: skip the ns/op gate for benchmarks whose baseline is below this many ns/op (too noisy); B/op and allocs/op are still gated")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs exactly two files, got %d", flag.NArg()))
		}
		bad, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *maxNs, *maxAlloc, *nsFloor)
		if err != nil {
			fail(err)
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s)\n", bad)
			os.Exit(1)
		}
		return
	}

	rep, err := Parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark result(s)\n", len(rep.Results))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// Parse scans go test output for benchmark result lines.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Results: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseLine(line)
		if !ok {
			continue
		}
		res.Pkg = pkg
		rep.Results = append(rep.Results, res)
	}
	return rep, sc.Err()
}

// parseLine parses one "BenchmarkX-N  runs  v ns/op [v B/op] [v allocs/op]
// [v MB/s] [v unit]..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	var res Result
	res.Name = fields[0]
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Runs = runs

	// The rest is value/unit pairs.
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Result{}, false
			}
			res.NsPerOp = f
			seenNs = true
		case "B/op":
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				res.BytesPerOp = &n
			}
		case "allocs/op":
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				res.AllocsPerOp = &n
			}
		case "MB/s":
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				res.MBPerSec = f
			}
		default:
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = f
			}
		}
	}
	return res, seenNs
}
