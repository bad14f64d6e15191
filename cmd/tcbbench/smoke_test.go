package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json, the benchmark's contract with whoever
// runs it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// smokePlan runs every phase briefly: short enough for every workload, both
// modes, to finish in a few seconds.
var smokePlan = plan{
	warmupN:   16,
	closedN:   60,
	windows:   3,
	openN:     24,
	replayN:   8,
	replayFor: 300 * time.Millisecond,
}

// TestBenchmarkSmoke runs every workload untraced and traced with a tiny
// plan. Every metric BENCHMARK.json names must come out with its unit, no
// operation may fail, a traced service run must carry spans for every
// layer, and a wrong output must be caught.
func TestBenchmarkSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, tcbbench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, tcbbench has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var rec *recorder
			if traced {
				rec = newRecorder(w.name)
			}
			run := runService
			if w.paper {
				run = runPaper
			}
			rep := run(w, 1, smokePlan, traced, false, time.Now(), rec)
			if len(rep.Errors) > 0 || rep.failed() != 0 || rep.attempted() == 0 {
				var b []byte
				b, _ = json.Marshal(rep)
				t.Fatalf("%s traced=%v: attempted %d, failed %d, errors %v\n%s", w.name, traced,
					rep.attempted(), rep.failed(), rep.Errors, b)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			line := rep.result().Metrics
			if len(line) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result line, BENCHMARK.json lists %d", w.name, traced, len(line), len(want))
			}
			for _, m := range want {
				if got, ok := line[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s emitted as %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced && !w.paper {
				if missing := missingLayers(rec.spans, spanNames(w)); len(missing) > 0 {
					t.Errorf("%s: trace lacks spans for %v", w.name, missing)
				}
			}
		}
	}

	// One deliberately wrong expected output must count as check_failed.
	w, err := workloadByName("attest-batched-routed")
	if err != nil {
		t.Fatal(err)
	}
	s, err := startSUT(w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	st := newStream(w, 1, saltOpen)
	arrivals := make([]*arrival, 20)
	for i := range arrivals {
		arrivals[i] = st.at(i)
	}
	arrivals[7].want = append([]byte("not the echo "), arrivals[7].want...)
	p, err := openLoop("open", s.front, conns, w.rate, arrivals, &checker{attested: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.CheckFailed != 1 || p.OK != 19 || p.failed() != 1 {
		t.Fatalf("ok=%d check_failed=%d failed=%d (%s), want 19, 1, 1", p.OK, p.CheckFailed, p.failed(), p.FirstError)
	}
}
