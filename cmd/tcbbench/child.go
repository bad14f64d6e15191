package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/sim"
)

// minOpenSamples is the smallest open loop: its p99 then has ten samples
// beyond it.
const minOpenSamples = 1000

// replayArrivals is how many arrivals of the open-loop stream a traced run
// replays layer by layer.
const replayArrivals = 2000

// plan fixes how much each phase of one run does.
type plan struct {
	// warmupN is the number of ops in the discarded closed loop that
	// follows one pass over the tenants (paper-regen: over the seeds).
	warmupN int
	// closedN is the number of ops in the measured closed loop, split into
	// windows whose median throughput is reported.
	closedN int
	windows int
	// openN is the number of open-loop arrivals.
	openN int
	// replayN and replayFor bound the traced replay.
	replayN   int
	replayFor time.Duration
}

// planFor sizes a run of about seconds: the open loop gets 55% of it, but
// never fewer than minOpenSamples arrivals, and the closed loop the rest at
// the workload's expected throughput, in one-second windows. The warm-up is
// a further second's worth. Service phases are whole rounds of the tenants.
// paper-regen has no open loop.
func planFor(w *workload, seconds float64) plan {
	rounds := func(f float64) int {
		n := int(math.Ceil(f))
		if w.tenants > 0 {
			n = (n + w.tenants - 1) / w.tenants * w.tenants
		}
		return n
	}
	closed := seconds
	pl := plan{warmupN: rounds(w.closedOps), replayN: replayArrivals,
		replayFor: time.Duration(0.5 * seconds * float64(time.Second))}
	if !w.paper {
		open := max(0.55*seconds, minOpenSamples/w.rate)
		pl.openN = rounds(open * w.rate)
		closed = max(seconds-open, 1)
	}
	pl.closedN = rounds(closed * w.closedOps)
	pl.windows = max(int(math.Round(closed)), 1)
	return pl
}

// report is one workload run, as a child process hands it to the parent.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	SetupS   float64 `json:"setup_s"`
	// SetupSamples are the set-up times the parent collected across
	// processes; SetupS is their median.
	SetupSamples []float64 `json:"setup_samples,omitempty"`
	Phases       []*phase  `json:"phases"`
	Metrics      metricSet `json:"metrics"`
	Ledger       *ledger   `json:"ledger,omitempty"`
	// Errors make the run incorrect; Warnings (a percentile the run had too
	// few samples for, which a full-length run never does) do not.
	Errors   []string `json:"errors,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	// P99 is the open-loop p99 latency (paper-regen: of op durations). It
	// is reported but not a gated metric: on a 2-CPU host its run-to-run
	// spread is far wider than any bound.
	P99 *quantile `json:"p99,omitempty"`
}

func newReport(w *workload, seed uint64, traced bool) *report {
	return &report{Workload: w.name, Seed: seed, Traced: traced, Metrics: metricSet{}}
}

func (r *report) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// phase starts a named phase of the report.
func (r *report) phase(name string) *phase {
	p := &phase{Name: name}
	r.Phases = append(r.Phases, p)
	return p
}

func (r *report) add(p *phase) { r.Phases = append(r.Phases, p) }

func (r *report) attempted() int {
	n := 0
	for _, p := range r.Phases {
		n += p.Attempted
	}
	return n
}

func (r *report) failed() int {
	n := 0
	for _, p := range r.Phases {
		n += p.failed()
	}
	return n
}

func (r *report) correct() bool { return len(r.Errors) == 0 && r.failed() == 0 && r.attempted() > 0 }

// setLatency records p's windowed median latency as p50_ms and its p99, or
// a warning for either the phase has too few samples for.
func (r *report) setLatency(p *phase) {
	if v, err := p.latencyP50(); err != nil {
		r.Warnings = append(r.Warnings, fmt.Sprintf("%s p50_ms: %v", p.Name, err))
	} else {
		r.Metrics.set("p50_ms", ms(v))
	}
	if q, err := percentile(&p.Latency, 99); err != nil {
		r.Warnings = append(r.Warnings, fmt.Sprintf("%s p99: %v", p.Name, err))
	} else {
		r.P99 = &q
	}
}

// setHeap records live_heap_mb: the heap still reachable at the end of the
// run once the phases' samples are dropped, so it is the system's own
// footprint (caches, memos, metrics) plus the benchmark's fixed state. It
// collects twice: the first collection only moves sync.Pool contents aside,
// and what the pools hold at that moment depends on timing.
func (r *report) setHeap() {
	for _, p := range r.Phases {
		p.Latency, p.Late, p.Queue, p.Arb, p.Verify = sim.Sample{}, sim.Sample{}, sim.Sample{}, sim.Sample{}, sim.Sample{}
		p.winLat = nil
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.Metrics.set("live_heap_mb", float64(m.HeapAlloc)/1e6)
}

// traceMetrics records what every traced run reports: generator lateness,
// tracing overhead and the ledger's residual.
func (r *report) traceMetrics(untraced, traced *phase, l *ledger) {
	r.Ledger = l
	if q, err := percentile(&untraced.Late, 99); err == nil {
		r.Metrics.set("gen.late_us.p99", us(q.Value))
	}
	if u := untraced.Latency.Percentile(50); u > 0 {
		t := traced.Latency.Percentile(50)
		r.Metrics.set("trace.overhead_pct", 100*float64(t-u)/float64(u))
	}
	r.Metrics.set("ledger.residual_pct", l.ResidualPct)
}

// runService runs a service workload: set-up, then either the open and the
// closed loop (end-to-end metrics) or, traced, the open loop untraced and
// traced plus the layer-by-layer replay (per-layer metrics).
func runService(w *workload, seed uint64, pl plan, traced, setupOnly bool, t0 time.Time, rec *recorder) *report {
	rep := newReport(w, seed, traced)
	s, err := startSUT(w)
	if err != nil {
		rep.errorf("set-up: %v", err)
		return rep
	}
	rep.SetupS = time.Since(t0).Seconds()
	switch {
	case setupOnly:
		s.close()
	case traced:
		traceService(rep, s, seed, pl, rec)
		s.close()
	default:
		measureService(rep, s, seed, pl)
	}
	return rep
}

// measureService runs the open loop on s, then the closed loop on a second
// system, set up and warmed the same way, and reads the heap with the second
// system still up. palsvc's stats op, which the router's prober calls every
// 100ms, sorts every stage sample a backend has kept under its metrics lock,
// so the more jobs a backend has served, the longer the stalls it inflicts;
// noattest-routed serves over 10,000 jobs a second, and on one system its
// closed loop lost a quarter of its throughput to the open loop's samples and
// spread 21% between quartiles from run to run.
func measureService(rep *report, s *sut, seed uint64, pl plan) {
	w := s.w
	_, c, arrivals, err := warmOpen(rep, s, seed, pl)
	var open *phase
	if err == nil {
		open, err = openLoop("open", s.front, conns, w.rate, arrivals, c, nil)
	}
	s.close()
	if err != nil {
		rep.errorf("%v", err)
		return
	}
	rep.add(open)
	rep.setLatency(open)
	// Over the open loop only: in the closed loop how jobs fall into quote
	// batches, and so each job's share of a batch quote, varies from run to
	// run.
	if open.OK > 0 {
		rep.Metrics.set("vms_per_job", float64(open.ExecNS+open.QuoteNS)/float64(open.OK)/1e6)
	}
	if q, err := percentile(&open.Late, 99); err == nil && q.Value >= time.Millisecond {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("open loop ran late: p99 %v", q.Value))
	}

	s, err = startSUT(w)
	if err != nil {
		rep.errorf("closed-loop set-up: %v", err)
		return
	}
	defer s.close()
	st := newStream(w, seed, saltClosed)
	c = &checker{attested: !w.noAttest, placement: s.placement(st)}
	if err := warmup(rep, s, seed, pl, c); err != nil {
		rep.errorf("warm-up: %v", err)
		return
	}
	closed, err := closedLoop("closed", s.front, conns, pl.closedN, pl.windows, st.at, c)
	if err != nil {
		rep.errorf("%v", err)
		return
	}
	rep.add(closed)
	rep.Metrics.set("throughput_ops", closed.throughput())
	// The router's health prober holds megabytes of sorted stats copies
	// while a probe is in flight.
	s.router.Close()
	rep.setHeap()
}

// warmOpen warms s up and returns the open loop's stream, the checker for
// its answers and its arrivals.
func warmOpen(rep *report, s *sut, seed uint64, pl plan) (*stream, *checker, []*arrival, error) {
	st := newStream(s.w, seed, saltOpen)
	c := &checker{attested: !s.w.noAttest, placement: s.placement(st)}
	if err := warmup(rep, s, seed, pl, c); err != nil {
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	arrivals := make([]*arrival, pl.openN)
	for i := range arrivals {
		arrivals[i] = st.at(i)
	}
	return st, c, arrivals, nil
}

// traceService runs the open loop on s untraced and traced, replays its
// first arrivals layer by layer, and derives the per-layer metrics.
func traceService(rep *report, s *sut, seed uint64, pl plan, rec *recorder) {
	w := s.w
	openStream, c, arrivals, err := warmOpen(rep, s, seed, pl)
	if err != nil {
		rep.errorf("%v", err)
		return
	}
	open, err := openLoop("open", s.front, conns, w.rate, arrivals, c, nil)
	if err != nil {
		rep.errorf("%v", err)
		return
	}
	rep.add(open)
	tracedOpen, err := openLoop("open.traced", s.front, conns, w.rate, arrivals, c,
		func(a *arrival, due, sent, done time.Time) {
			req := rec.id()
			rec.record(0, req, req, "client.run", sent, done)
			rec.record(req, req, 0, "request", due, done)
		})
	if err != nil {
		rep.errorf("%v", err)
		return
	}
	rep.add(tracedOpen)
	rs, err := replay(s, openStream, rec, c, pl.replayN, pl.replayFor)
	if err != nil {
		rep.errorf("%v", err)
		return
	}
	rep.add(rs.phase)
	if missing := missingLayers(rec.spans, spanNames(w)); len(missing) > 0 {
		rep.errorf("trace lacks spans for %v", missing)
	}
	stats, err := s.fleetStats()
	if err != nil {
		rep.errorf("stats: %v", err)
		return
	}
	rep.layerMetrics(s, open, rs, stats)
	rep.traceMetrics(open, tracedOpen, buildLedger(rs.models, open.Latency.Percentile(50)))
}

// warmup runs each tenant's image once, one at a time, then a short closed
// loop; both are checked like any phase but measure nothing.
func warmup(rep *report, s *sut, seed uint64, pl plan, c *checker) error {
	st := newStream(s.w, seed, saltWarmup)
	tenants := rep.phase("tenants")
	cl, err := dial(s.front)
	if err != nil {
		return err
	}
	for t := range st.names {
		a := st.once(t)
		resp, err := cl.Run(&a.req)
		tenants.record(c, a, resp, err, 0, time.Now())
	}
	_ = cl.Close()
	p, err := closedLoop("warmup", s.front, conns, pl.warmupN, 1,
		func(i int) *arrival { return st.at(len(st.names) + i) }, c)
	if err != nil {
		return err
	}
	rep.add(p)
	return nil
}

// layerMetrics derives the per-layer metrics of a traced service run from
// the untraced open loop's answers, the replay and the backends' stats.
func (r *report) layerMetrics(s *sut, open *phase, rs *replayStats, m *palsvc.Metrics) {
	set := r.Metrics.set
	p50 := func(s *sim.Sample) time.Duration { return s.Percentile(50) }
	n := float64(rs.front.N())
	set("wire.ping_us", us(p50(&rs.ping)))
	set("route.lookup_ns", float64(p50(&rs.lookup)))
	set("route.hop_us", us(p50(&rs.front)-p50(&rs.direct)))
	set("route.primary_share", float64(open.PrimaryHits)/float64(max(open.OK, 1)))
	set("route.stolen", float64(s.router.Snapshot().Stolen))
	set("wire.overhead_us", us(p50(&rs.direct)-p50(&rs.service)))
	set("wire.req_bytes", float64(rs.reqBytes)/n)
	set("wire.resp_bytes", float64(rs.respBytes)/n)
	for _, q := range []struct {
		name string
		s    *sim.Sample
	}{{"queue.wait_us", &open.Queue}, {"arb.wait_us", &open.Arb}} {
		for _, pct := range []float64{50, 99} {
			if v, err := percentile(q.s, pct); err == nil {
				set(fmt.Sprintf("%s.p%g", q.name, pct), us(v.Value))
			}
		}
	}
	set("admit.max_occupancy", float64(m.MaxSePCROccupancy))
	set("admit.rejected", float64(m.Rejected))
	set("svc.retried", float64(m.Retried))
	set("compile.us", us(p50(&rs.compile)))
	set("compile.cache_hit_ratio", ratio(m.CacheHits, m.CacheMisses))
	set("execute.wall_us", us(p50(&rs.execute)))
	if rs.retired > 0 {
		set("execute.ns_per_instr", float64(rs.execute.Mean())*float64(rs.execute.N())/float64(rs.retired))
	}
	if open.OK > 0 {
		set("execute.virt_ms", float64(open.ExecNS)/float64(open.OK)/1e6)
		set("quote.virt_ms", float64(open.QuoteNS)/float64(open.OK)/1e6)
	}
	set("release.wall_us", us(p50(&rs.release)))
	if !s.w.noAttest {
		set("quote.wall_us", us(p50(&rs.quote)))
		set("quote.signs_per_job", float64(m.QuoteSigns)/float64(max(m.Completed, 1)))
		set("quote.batch_size", float64(open.BatchSum)/float64(max(open.BatchJobs, 1)))
		set("verify.wall_us", us(p50(&rs.verify)))
		set("verify.server_us", us(p50(&open.Verify)))
		set("verify.memo_hit_ratio", ratio(m.VerifyMemoHits, m.VerifyMemoMisses))
	}
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
