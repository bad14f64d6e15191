package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"minimaltcb/internal/sim"
)

const (
	// defaultSpans is where -trace 1 writes its spans.
	defaultSpans = ".bench_build/tcbbench-spans.jsonl"
	// setupProbes is how many extra processes only set up, so setup_s is a
	// median of setupProbes+1 cold starts.
	setupProbes = 10
	// childTimeout bounds one child process; a run must end within 180 s.
	childTimeout = 150 * time.Second
)

// result is the line a run ends with.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all three, one after another)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same arrivals and experiment seeds")
		seconds = flag.Float64("seconds", 22, "measured seconds per workload, from 1 to 60")
		trace   = flag.String("trace", "0", "1, or a file path, runs the traced variant: per-layer metrics and the ledger, with spans appended as JSONL to the path (1 means "+defaultSpans+")")
		out     = flag.String("o", "", "also write every workload's full report as JSON to this file")
		child   = flag.String("child", "", "internal: run one workload in this process, \"run\" or \"setup\" only")
		t0      = flag.Int64("t0", 0, "internal: when the parent started this child, in Unix nanoseconds")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds %v: want 1 to 60", *seconds)
	}
	spans := ""
	if *trace != "0" && *trace != "" {
		spans = *trace
		if spans == "1" {
			spans = defaultSpans
		}
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []*workload{w}
	}
	if *child != "" {
		runChild(ws[0], *child, *seed, *seconds, spans, time.Unix(0, *t0))
		return
	}
	if spans != "" {
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(spans, nil, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	var reps []*report
	for _, w := range ws {
		rep, err := runParent(w, *seed, *seconds, spans)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		rep.write(os.Stderr)
		reps = append(reps, rep)
		line, err := json.Marshal(rep.result())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if *out != "" {
		b, err := json.MarshalIndent(reps, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tcbbench: "+format+"\n", args...)
	os.Exit(1)
}

// runParent measures one workload: setupProbes processes that only set up,
// then one that runs the workload. Each workload runs in fresh processes
// because the launch-measurement cache and the TPM memos are global to a
// process: a workload run after another would inherit its warm caches.
func runParent(w *workload, seed uint64, seconds float64, spans string) (*report, error) {
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		r, err := spawn(w, "setup", seed, seconds, "")
		if err != nil {
			return nil, err
		}
		if len(r.Errors) > 0 {
			return r, nil
		}
		setups = append(setups, r.SetupS)
	}
	rep, err := spawn(w, "run", seed, seconds, spans)
	if err != nil {
		return nil, err
	}
	rep.SetupSamples = append(setups, rep.SetupS)
	var s sim.Sample
	for _, v := range rep.SetupSamples {
		s.Add(time.Duration(v * float64(time.Second)))
	}
	rep.SetupS = s.Percentile(50).Seconds()
	if !rep.Traced {
		rep.Metrics.set("setup_s", rep.SetupS)
	}
	return rep, nil
}

// spawn runs this program as a child process for one workload and returns
// the report it prints as its last line of output.
func spawn(w *workload, role string, seed uint64, seconds float64, spans string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if spans != "" {
		trace = spans
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, exe, "-child", role, "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace, "-t0", strconv.FormatInt(start.UnixNano(), 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s process report: %w", role, err)
	}
	return &rep, nil
}

// runChild runs one workload in this process and prints its report.
func runChild(w *workload, role string, seed uint64, seconds float64, spans string, t0 time.Time) {
	var rec *recorder
	if spans != "" {
		rec = newRecorder(w.name)
	}
	run := runService
	if w.paper {
		run = runPaper
	}
	rep := run(w, seed, planFor(w, seconds), rec != nil, role == "setup", t0, rec)
	if rec != nil && role == "run" {
		if err := rec.writeJSONL(spans); err != nil {
			rep.errorf("writing spans: %v", err)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// result is the run's last line: every end-to-end metric from an untraced
// run, every per-layer metric from a traced one.
func (r *report) result() result {
	specs := e2eSpecs
	if r.Traced {
		specs = layerSpecs
	}
	return result{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: r.Metrics.pick(specs)}
}

// write prints a human-readable summary of the run.
func (r *report) write(w io.Writer) {
	mode := "untraced"
	specs := e2eSpecs
	if r.Traced {
		mode, specs = "traced", layerSpecs
	}
	fmt.Fprintf(w, "== %s (seed %d, %s) correct=%v setup samples %v\n", r.Workload, r.Seed, mode, r.correct(), r.SetupSamples)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-13s attempted=%d ok=%d rejected=%v deadline=%d failed=%d conn_errors=%d check_failed=%d",
			p.Name, p.Attempted, p.OK, p.Rejected, p.Deadline, p.Failed, p.ConnErrors, p.CheckFailed)
		if p.FirstError != "" {
			fmt.Fprintf(w, " first_error=%q", p.FirstError)
		}
		fmt.Fprintln(w)
	}
	for _, s := range specs {
		if m, ok := r.Metrics[s.name]; ok {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", s.name, m.Value, m.Unit)
		}
	}
	if r.P99 != nil {
		fmt.Fprintf(w, "  %-26s %14.6g ms (n=%d, %d beyond)\n", "p99 (not gated)", ms(r.P99.Value), r.P99.N, r.P99.Beyond)
	}
	if r.Ledger != nil {
		r.Ledger.write(w, r.Workload)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, e := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", e)
	}
}
