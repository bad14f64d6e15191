package palsvc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/sim"
)

// TestStageStatsDegenerateCases pins the summary semantics for tiny
// windows: empty reports zeros everywhere, one observation reports itself
// at every rank, and no window size panics.
func TestStageStatsDegenerateCases(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name string
		obs  []time.Duration
		want StageStats
	}{
		{
			name: "empty",
			obs:  nil,
			want: StageStats{},
		},
		{
			name: "single",
			obs:  []time.Duration{ms(7)},
			want: StageStats{N: 1, Mean: ms(7), P50: ms(7), P95: ms(7), P99: ms(7), Max: ms(7)},
		},
		{
			name: "two",
			obs:  []time.Duration{ms(10), ms(20)},
			want: StageStats{N: 2, Mean: ms(15), P50: ms(10), P95: ms(20), P99: ms(20), Max: ms(20)},
		},
		{
			name: "unsorted input",
			obs:  []time.Duration{ms(30), ms(10), ms(20)},
			want: StageStats{N: 3, Mean: ms(20), P50: ms(20), P95: ms(30), P99: ms(30), Max: ms(30)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w sim.Window
			for _, d := range tc.obs {
				w.Add(d)
			}
			got := StageStatsOf(&w)
			if got != tc.want {
				t.Fatalf("StageStatsOf = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestStageStatsBeyondWindow feeds a stage more than sim.WindowSize
// observations: N, Mean and Max stay lifetime-exact, and the percentiles
// are those of an exact sample of the last sim.WindowSize.
func TestStageStatsBeyondWindow(t *testing.T) {
	for _, n := range []int{sim.WindowSize + 1, 3*sim.WindowSize + 17, 10 * sim.WindowSize} {
		var w sim.Window
		var all, last sim.Sample
		for i := 0; i < n; i++ {
			// Descending, so the lifetime max is the first observation
			// and the window's percentiles differ from the lifetime ones.
			d := time.Duration(n-i) * time.Microsecond
			w.Add(d)
			all.Add(d)
			if i >= n-sim.WindowSize {
				last.Add(d)
			}
		}
		ps := last.Percentiles(50, 95, 99)
		want := StageStats{N: n, Mean: all.Mean(), P50: ps[0], P95: ps[1], P99: ps[2], Max: all.Max()}
		if got := StageStatsOf(&w); got != want {
			t.Fatalf("n=%d: StageStatsOf = %+v, want %+v", n, got, want)
		}
	}
}

// TestObserveDoesNotAllocate pins the per-job cost of stage bookkeeping:
// recording an observation allocates nothing, with Prometheus hooks bound.
func TestObserveDoesNotAllocate(t *testing.T) {
	s := newTestService(t, Config{Registry: obs.NewRegistry()})
	m := s.metrics
	d := time.Duration(0)
	for _, o := range []struct {
		name    string
		observe func(time.Duration)
	}{
		{"queue", m.observeQueue},
		{"arb", m.observeArb},
		{"exec", m.observeExec},
		{"quote", m.observeQuote},
		{"verify", m.observeVerify},
	} {
		if allocs := testing.AllocsPerRun(3*sim.WindowSize, func() {
			d += time.Microsecond
			o.observe(d)
		}); allocs != 0 {
			t.Errorf("observe%s allocated %.1f times per call", o.name, allocs)
		}
	}
}

// TestMetricsCostIndependentOfJobsServed pins that the stats snapshot does
// not grow with the number of jobs a service has run: after sim.WindowSize
// and after ten times as many observations per stage, Metrics allocates
// the same number of times and about the same number of bytes.
func TestMetricsCostIndependentOfJobsServed(t *testing.T) {
	s := newTestService(t, Config{})
	m := s.metrics
	feed := func(n int) {
		for i := 0; i < n; i++ {
			d := time.Duration(i%977) * time.Microsecond
			m.observeQueue(d)
			m.observeArb(d)
			m.observeExec(d)
			m.observeQuote(d)
			m.observeVerify(d)
		}
	}
	bytesPerCall := func() uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			s.Metrics()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	feed(sim.WindowSize)
	atW := testing.AllocsPerRun(20, func() { s.Metrics() })
	bytesAtW := bytesPerCall()
	feed(9 * sim.WindowSize)
	at10W := testing.AllocsPerRun(20, func() { s.Metrics() })
	bytesAt10W := bytesPerCall()
	if atW != at10W {
		t.Fatalf("Metrics allocates %.1f times after %d observations but %.1f after %d",
			atW, sim.WindowSize, at10W, 10*sim.WindowSize)
	}
	if bytesAt10W > bytesAtW*5/4 {
		t.Fatalf("Metrics allocates %d B after %d observations but %d B after %d",
			bytesAtW, sim.WindowSize, bytesAt10W, 10*sim.WindowSize)
	}
	if got := s.Metrics().Execute.N; got != 10*sim.WindowSize {
		t.Fatalf("Execute.N = %d, want %d", got, 10*sim.WindowSize)
	}
}

func TestErrorCode(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrQueueFull, CodeQueueFull},
		{fmt.Errorf("wrap: %w", ErrQueueFull), CodeQueueFull},
		{ErrBankExhausted, CodeBankExhausted},
		{ErrDeadlineExceeded, CodeDeadline},
		{ErrClosed, CodeClosed},
		{errors.New("boom"), CodeError},
	}
	for _, tc := range cases {
		if got := ErrorCode(tc.err); got != tc.want {
			t.Fatalf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestRejectionCauseCounters(t *testing.T) {
	var m metrics
	m.incRejected(fmt.Errorf("w: %w", ErrQueueFull))
	m.incRejected(ErrBankExhausted)
	m.incRejected(ErrBankExhausted)
	m.incRejected(errors.New("other"))
	if m.rejected != 4 || m.rejQueueFull != 1 || m.rejBank != 2 {
		t.Fatalf("rejected=%d queue=%d bank=%d", m.rejected, m.rejQueueFull, m.rejBank)
	}
}

// TestTracedJobSpans runs one attested job under a tracer and checks the
// acceptance-criterion shape: pipeline spans exist, the execute span
// carries virtual time, and the sePCR life cycle appears as an Exclusive
// span followed by a Quote span on the same handle.
func TestTracedJobSpans(t *testing.T) {
	tracer := obs.NewTracer(1024)
	s := newTestService(t, Config{Tracer: tracer})
	res, err := s.Run(Job{Name: "traced", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	recs, dropped := tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d records", dropped)
	}
	byName := map[string][]obs.Record{}
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	for _, name := range []string{"job", "queue", "admit", "execute", "quote", "verify"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %q span in trace (have %v)", name, names(recs))
		}
	}
	exec := byName["execute"][0]
	if exec.VirtStart < 0 || exec.VirtDur < 0 {
		t.Fatalf("execute span has no virtual time: %+v", exec)
	}
	if exec.WallDur < 0 {
		t.Fatalf("execute span has no wall time: %+v", exec)
	}

	// The pipeline spans all belong to the job's trace, parented at the
	// root span.
	root := byName["job"][0]
	for _, name := range []string{"queue", "admit", "execute", "quote", "verify"} {
		sp := byName[name][0]
		if sp.Trace != root.Trace {
			t.Fatalf("%s span in trace %d, root in %d", name, sp.Trace, root.Trace)
		}
		if sp.Parent != root.ID {
			t.Fatalf("%s span parent %d, root id %d", name, sp.Parent, root.ID)
		}
	}

	// sksm and tpm layers nested through the ambient scope context.
	if len(byName["slice"]) == 0 {
		t.Fatalf("no sksm slice span (have %v)", names(recs))
	}
	if len(byName["TPM_Quote"]) == 0 {
		t.Fatalf("no TPM_Quote span (have %v)", names(recs))
	}
	// The machine's first flush opens its quote session on behalf of this
	// job, so the session-open command belongs to the job's trace, nested
	// under its quote span rather than rooting an orphan.
	if len(byName["TPM_Quote_SessionOpen"]) != 1 {
		t.Fatalf("session-open spans = %d, want 1 (have %v)", len(byName["TPM_Quote_SessionOpen"]), names(recs))
	}
	open, quote := byName["TPM_Quote_SessionOpen"][0], byName["quote"][0]
	if open.Trace != root.Trace || open.Parent != quote.ID {
		t.Fatalf("session open in trace %v under span %d, want trace %v under quote span %d",
			open.Trace, open.Parent, root.Trace, quote.ID)
	}

	// sePCR life cycle: Exclusive recorded before Quote, same handle,
	// both carrying wall and virtual durations.
	var lifecycle []obs.Record
	for _, r := range recs {
		if r.Cat == obs.CatSePCR && r.Kind == obs.KindSpan {
			lifecycle = append(lifecycle, r)
		}
	}
	if len(lifecycle) != 2 {
		t.Fatalf("sePCR lifecycle spans = %d, want 2 (Exclusive, Quote)", len(lifecycle))
	}
	if lifecycle[0].Name != "sePCR.Exclusive" || lifecycle[1].Name != "sePCR.Quote" {
		t.Fatalf("lifecycle order %s, %s", lifecycle[0].Name, lifecycle[1].Name)
	}
	if attr(lifecycle[0], "handle") != attr(lifecycle[1], "handle") {
		t.Fatalf("lifecycle handles differ: %+v vs %+v", lifecycle[0].Attrs, lifecycle[1].Attrs)
	}
	for _, r := range lifecycle {
		if r.VirtStart < 0 || r.VirtDur < 0 || r.WallDur < 0 {
			t.Fatalf("lifecycle span missing a clock: %+v", r)
		}
	}
	// And the final Free event marks the register's return to the bank.
	if len(byName["sePCR.Free"]) == 0 {
		t.Fatalf("no sePCR.Free event (have %v)", names(recs))
	}
}

func TestNoAttestTraceFreesWithoutQuote(t *testing.T) {
	tracer := obs.NewTracer(1024)
	s := newTestService(t, Config{Tracer: tracer})
	if _, err := s.Run(Job{Name: "noattest", Source: helloSource, NoAttest: true}); err != nil {
		t.Fatal(err)
	}
	recs, _ := tracer.Snapshot()
	// The register still parks in the Quote *state* after exit (§5.4.3 —
	// quote-or-free is untrusted code's choice), but no TPM_Quote command
	// may run and no verify stage may appear.
	for _, r := range recs {
		if r.Name == "TPM_Quote" || r.Name == "verify" {
			t.Fatalf("NoAttest job produced %s", r.Name)
		}
	}
	found := false
	for _, r := range recs {
		if r.Name == "sePCR.Free" {
			found = true
		}
	}
	if !found {
		t.Fatal("NoAttest job never freed its sePCR in the trace")
	}
}

// TestRegistryExposition runs jobs against a service bound to a registry
// and checks the counters and stage histograms scrape correctly.
func TestRegistryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, Config{Registry: reg, QueueDepth: 1, Workers: 1})
	if _, err := s.Run(Job{Name: "m", Source: helloSource}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"palsvc_jobs_submitted_total 1",
		"palsvc_jobs_admitted_total 1",
		"palsvc_jobs_completed_total 1",
		`palsvc_stage_duration_seconds_count{clock="virtual",stage="execute"} 1`,
		`palsvc_stage_duration_seconds_count{clock="wall",stage="verify"} 1`,
		"palsvc_sepcr_capacity 4",
		"palsvc_sepcr_occupancy 0",
		"palsvc_sepcr_occupancy_max 1",
		"palsvc_image_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRejectionCauseInMetricsSnapshot(t *testing.T) {
	s := newTestService(t, Config{Admission: AdmitReject, Workers: 2})
	// Saturate the bank with slow jobs, then watch one get bank-rejected.
	var tickets []*Ticket
	for i := 0; i < s.Bank(); i++ {
		tk, err := s.Submit(Job{Name: "slow", Source: slowSource})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	sawBank := false
	for i := 0; i < 200 && !sawBank; i++ {
		res, err := s.Run(Job{Name: "quick", Source: helloSource, NoAttest: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil && errors.Is(res.Err, ErrBankExhausted) {
			sawBank = true
		}
		time.Sleep(time.Millisecond)
	}
	for _, tk := range tickets {
		tk.Wait()
	}
	m := s.Metrics()
	if !sawBank {
		t.Skip("bank never saturated on this run")
	}
	if m.RejectedBank == 0 {
		t.Fatalf("RejectedBank = 0 with %d rejections", m.Rejected)
	}
	if m.Rejected < m.RejectedBank+m.RejectedQueueFull {
		t.Fatalf("cause split %d+%d exceeds total %d",
			m.RejectedBank, m.RejectedQueueFull, m.Rejected)
	}
}

func names(recs []obs.Record) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	}
	return out
}

func attr(r obs.Record, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// BenchmarkJobTracerOff / BenchmarkJobTracerPresent measure the end-to-end
// job path with no tracer versus a compiled-in-but-disabled tracer — the
// <5% overhead budget of ISSUE 2.
func benchService(b *testing.B, cfg Config) *Service {
	b.Helper()
	cfg.Profile = testProfile(4)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	// One warm job primes the one-time caches (decode cache, memory
	// chunks, buffer pools) so the timed loop measures steady state.
	if _, err := s.Run(Job{Name: "warm", Source: helloSource, NoAttest: true}); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkJobTracerOff(b *testing.B) {
	s := benchService(b, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(Job{Name: "b", Source: helloSource, NoAttest: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJobTracerDisabled(b *testing.B) {
	tracer := obs.NewTracer(1024)
	tracer.SetEnabled(false)
	s := benchService(b, Config{Tracer: tracer})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(Job{Name: "b", Source: helloSource, NoAttest: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJobTracerEnabled(b *testing.B) {
	tracer := obs.NewTracer(obs.DefaultCapacity)
	s := benchService(b, Config{Tracer: tracer})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(Job{Name: "b", Source: helloSource, NoAttest: true}); err != nil {
			b.Fatal(err)
		}
	}
}
