package palsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/audit"
	"minimaltcb/internal/core"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

// runBatchLoad submits n concurrent jobs and returns their results.
func runBatchLoad(t *testing.T, s *Service, n int) []*JobResult {
	t.Helper()
	results := make([]*JobResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Run(Job{Name: "hello", Source: helloSource})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	return results
}

// TestBatchedPipelineEndToEnd drives concurrent attested jobs through the
// batcher and checks what holds however the jobs happen to coalesce: every
// job verifies with the right output, each batch costs one signature, and
// nothing leaks. How many jobs a batch takes depends on how long the
// previous one took to sign, so the grouping rule itself is pinned on a
// pre-filled channel (TestBatchDrain*).
func TestBatchedPipelineEndToEnd(t *testing.T) {
	s := newTestService(t, Config{
		Batch: BatchPolicy{MaxSize: 4},
	})
	const jobs = 24
	results := runBatchLoad(t, s, jobs)
	for i, res := range results {
		if res == nil {
			continue // already reported
		}
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.VerifiedAs != "hello" {
			t.Fatalf("job %d verified as %q", i, res.VerifiedAs)
		}
		if string(res.Output) != "hello" {
			t.Fatalf("job %d output %q", i, res.Output)
		}
		if res.BatchSize < 1 || res.BatchSize > 4 {
			t.Fatalf("job %d batch size %d, want 1..4", i, res.BatchSize)
		}
	}
	m := s.Metrics()
	if m.Completed != jobs {
		t.Fatalf("completed %d, want %d", m.Completed, jobs)
	}
	if m.QuoteBatches == 0 || m.BatchedJobs != jobs {
		t.Fatalf("batches=%d batched_jobs=%d, want >0 and %d", m.QuoteBatches, m.BatchedJobs, jobs)
	}
	// One AIK signature per batch.
	if m.QuoteSigns != m.QuoteBatches {
		t.Fatalf("quote_signs=%d, want one per batch (%d)", m.QuoteSigns, m.QuoteBatches)
	}
	if m.MaxBatchSize < 1 || m.MaxBatchSize > 4 {
		t.Fatalf("max batch size %d, want 1..4", m.MaxBatchSize)
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedSessionAmortizesVerifierRSA pins the sessionful half: after
// the first flush opens the machine's quote session, every batch is
// authenticated by HMAC alone — the session admits all of them.
func TestBatchedSessionAmortizesVerifierRSA(t *testing.T) {
	s := newTestService(t, Config{
		Machines: 1,
		Batch:    BatchPolicy{MaxSize: 4},
	})
	runBatchLoad(t, s, 8)
	m := s.machines[0]
	if m.sessID == 0 || m.session == nil {
		t.Fatal("no quote session opened after batched load")
	}
	runBatchLoad(t, s, 8)
	if got, want := m.session.Batches(), s.Metrics().QuoteBatches; got != want {
		t.Fatalf("session admitted %d of %d batches, want all", got, want)
	}
	if m.session.Batches() < 2 {
		t.Fatalf("session authenticated %d batches, want >= 2", m.session.Batches())
	}
}

// cryptoLookups is the crypto memo's lookup count so far. Every host RSA
// private-key operation of the TPM simulator goes through the memo, and
// palsvc's tests run one at a time, so its change across a test step is
// the RSA that step asked for.
func cryptoLookups() uint64 {
	c := tpm.CacheStats()
	return c.CryptoHits + c.CryptoMisses
}

// TestBatchSessionSignsNothing pins that a batch bound to the machine's
// quote session costs the host no RSA: the session MAC authenticates it,
// so once the first flush has opened the session, attested jobs make no
// crypto-memo lookup at all, and the session still authenticates every
// batch.
func TestBatchSessionSignsNothing(t *testing.T) {
	s := newTestService(t, Config{
		Machines: 1,
		Batch:    BatchPolicy{MaxSize: 4},
	})
	runBatchLoad(t, s, 1)
	m := s.machines[0]
	if m.session == nil {
		t.Fatal("the first flush opened no quote session")
	}
	const jobs = 16
	before := cryptoLookups()
	results := runBatchLoad(t, s, jobs)
	if got := cryptoLookups() - before; got != 0 {
		t.Fatalf("%d session-bound jobs made %d crypto-memo lookups, want 0", jobs, got)
	}
	for i, res := range results {
		if res == nil {
			continue // already reported
		}
		if res.Err != nil || res.VerifiedAs != "hello" {
			t.Fatalf("job %d: verified as %q, err %v", i, res.VerifiedAs, res.Err)
		}
	}
	if got, want := m.session.Batches(), s.Metrics().QuoteBatches; got != want {
		t.Fatalf("session authenticated %d of %d batches, want all", got, want)
	}
}

// sessionOpenFault fails the first left TPM_Quote_SessionOpen commands, so
// the flushes that try them find no session. The batcher consults it under
// the machine lock.
type sessionOpenFault struct{ left int }

func (f *sessionOpenFault) TPMCommand(name string) (time.Duration, error) {
	if name != "TPM_Quote_SessionOpen" || f.left == 0 {
		return 0, nil
	}
	f.left--
	return 0, errors.New("injected session-open fault")
}

// traceSpans returns one trace's records from the tracer, by name.
func traceSpans(t *testing.T, tracer *obs.Tracer, trace obs.TraceID) map[string][]obs.Record {
	t.Helper()
	recs, dropped := tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d records", dropped)
	}
	byName := map[string][]obs.Record{}
	for _, r := range recs {
		if r.Trace == trace {
			byName[r.Name] = append(byName[r.Name], r)
		}
	}
	return byName
}

// TestBatchStatelessFallbackSigns covers the one batch the host still
// signs. While TPM_Quote_SessionOpen fails, each flush finds no session,
// so its batch is signed and authenticated against the cert chain by
// Verifier.AuthenticateBatch, and its job's trace carries a wall-only
// sign span inside its quote span. The flush after the faults opens the
// session, and from then on no batch is signed.
func TestBatchStatelessFallbackSigns(t *testing.T) {
	const failedOpens = 2
	tracer := obs.NewTracer(8192)
	s := newTestService(t, Config{Machines: 1, Tracer: tracer})
	m := s.machines[0]
	m.sys.Machine.InstallFaults(&sessionOpenFault{left: failedOpens})

	// Jobs run one at a time here, so each flush is one job's and the
	// batcher touches m.session only while it runs.
	run := func(i int) (map[string][]obs.Record, uint64) {
		t.Helper()
		before := cryptoLookups()
		res, err := s.Run(Job{Name: "hello", Source: helloSource})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Err != nil || res.VerifiedAs != "hello" {
			t.Fatalf("job %d: verified as %q, err %v", i, res.VerifiedAs, res.Err)
		}
		return traceSpans(t, tracer, res.Trace), cryptoLookups() - before
	}
	for i := 0; i < failedOpens; i++ {
		spans, lookups := run(i)
		if m.session != nil {
			t.Fatalf("job %d: a session opened despite the injected fault", i)
		}
		// The job verified with no session, so the cert chain and the
		// batch's AIK signature authenticated it: its one crypto-memo
		// lookup is that signature.
		if lookups != 1 {
			t.Fatalf("stateless job %d made %d crypto-memo lookups, want 1 (its batch signature)", i, lookups)
		}
		// The signature runs after the machine lock drops, but the quote
		// span stays open across it: the wall-only sign span nests under
		// the quote span and lies inside its wall interval, while the
		// quote span keeps the virtual time the TPM command charged.
		if len(spans["sign"]) != 1 || len(spans["quote"]) != 1 {
			t.Fatalf("job %d: %d sign and %d quote spans, want 1 each", i, len(spans["sign"]), len(spans["quote"]))
		}
		sign, quote := spans["sign"][0], spans["quote"][0]
		if sign.Parent != quote.ID {
			t.Fatalf("job %d: sign span under span %d, want the quote span %d", i, sign.Parent, quote.ID)
		}
		if sign.WallStart < quote.WallStart || sign.WallStart+sign.WallDur > quote.WallStart+quote.WallDur {
			t.Fatalf("job %d: sign span [%d, +%d ns] is not inside the quote span [%d, +%d ns]",
				i, sign.WallStart, sign.WallDur, quote.WallStart, quote.WallDur)
		}
		if sign.VirtStart >= 0 || quote.VirtStart < 0 || quote.VirtDur < 0 {
			t.Fatalf("job %d: virtual time on sign %d/%d and quote %d/%d, want none on sign only",
				i, sign.VirtStart, sign.VirtDur, quote.VirtStart, quote.VirtDur)
		}
	}

	// The faults are spent: this flush opens the session, whose grant is
	// its one signature, and binds its batch to it.
	spans, lookups := run(failedOpens)
	if m.session == nil {
		t.Fatal("no session opened once the faults were spent")
	}
	if lookups != 1 || len(spans["TPM_Quote_SessionOpen"]) != 1 || len(spans["sign"]) != 0 {
		t.Fatalf("session-opening job: %d crypto-memo lookups, %d session opens, %d sign spans; want 1, 1, 0",
			lookups, len(spans["TPM_Quote_SessionOpen"]), len(spans["sign"]))
	}
	for i := failedOpens + 1; i < failedOpens+4; i++ {
		if spans, lookups := run(i); lookups != 0 || len(spans["sign"]) != 0 {
			t.Fatalf("session-bound job %d: %d crypto-memo lookups and %d sign spans, want none",
				i, lookups, len(spans["sign"]))
		}
	}
	met := s.Metrics()
	if got, want := m.session.Batches(), met.QuoteBatches-failedOpens; got != want {
		t.Fatalf("session authenticated %d batches, want all %d after it opened", got, want)
	}
	// The modelled TPM signed, and was charged for, every batch.
	if met.QuoteSigns != met.QuoteBatches {
		t.Fatalf("quote_signs=%d, want one per batch (%d)", met.QuoteSigns, met.QuoteBatches)
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// retryableQuoteFault fails the first n TPM_Quote commands with a
// retryable error, mimicking a transient chip glitch at exactly the
// batch-signature moment.
type retryableQuoteFault struct {
	mu   sync.Mutex
	left int
}

type transientErr struct{}

func (transientErr) Error() string   { return "injected transient quote fault" }
func (transientErr) Retryable() bool { return true }

func (f *retryableQuoteFault) TPMCommand(name string) (time.Duration, error) {
	if name != "TPM_Quote" {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left > 0 {
		f.left--
		return 0, transientErr{}
	}
	return 0, nil
}

// TestBatchedQuoteFaultRetries: an injected TPM_Quote fault fails the
// whole batch retryably, frees every register (no leaks), and the
// supervisor retries carry every job to completion.
func TestBatchedQuoteFaultRetries(t *testing.T) {
	s := newTestService(t, Config{
		Retry: RetryPolicy{MaxAttempts: 6},
		Batch: BatchPolicy{MaxSize: 3},
	})
	s.machines[0].sys.Machine.InstallFaults(&retryableQuoteFault{left: 2})
	results := runBatchLoad(t, s, 12)
	for i, res := range results {
		if res != nil && res.Err != nil {
			t.Fatalf("job %d failed despite retries: %v", i, res.Err)
		}
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Completed != 12 {
		t.Fatalf("completed %d, want 12", m.Completed)
	}
	if m.Retried == 0 {
		t.Fatal("injected quote faults caused no retries")
	}
}

// TestBatchingDisabledKeepsOneShotPath pins the zero-value contract: every
// job is attested as a batch of one, so it reports BatchSize 1 and spends
// one signature of its own.
func TestBatchingDisabledKeepsOneShotPath(t *testing.T) {
	s := newTestService(t, Config{})
	results := runBatchLoad(t, s, 6)
	for i, res := range results {
		if res == nil || res.Err != nil {
			t.Fatalf("job %d: %v", i, res)
		}
		if res.BatchSize != 1 {
			t.Fatalf("job %d batch size %d, want 1", i, res.BatchSize)
		}
	}
	m := s.Metrics()
	if m.QuoteBatches != m.Completed || m.BatchedJobs != m.Completed || m.MaxBatchSize != 1 {
		t.Fatalf("batches=%d batched_jobs=%d max=%d for %d jobs, want one batch of one each",
			m.QuoteBatches, m.BatchedJobs, m.MaxBatchSize, m.Completed)
	}
	if m.QuoteSigns != m.Completed {
		t.Fatalf("quote_signs=%d completed=%d, want one signature per job", m.QuoteSigns, m.Completed)
	}
}

// TestBatchSizeOnWire checks the wire protocol carries the batch size and
// that an unattested (NoAttest) response stays byte-compatible (no
// batch_size key).
func TestBatchSizeOnWire(t *testing.T) {
	resp := WireResponse{OK: true, VerifiedAs: "hello"}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "batch_size") {
		t.Fatalf("unattested response leaks batch_size: %s", out)
	}
	// Legacy compat the other way: a response without the field decodes
	// to BatchSize 0, and one with it round-trips.
	var legacy WireResponse
	if err := json.Unmarshal([]byte(`{"ok":true,"verified_as":"x"}`), &legacy); err != nil || legacy.BatchSize != 0 {
		t.Fatalf("legacy decode: %v, batch=%d", err, legacy.BatchSize)
	}
	resp.BatchSize = 5
	out, _ = json.Marshal(&resp)
	var back WireResponse
	if err := json.Unmarshal(out, &back); err != nil || back.BatchSize != 5 {
		t.Fatalf("round trip: %v, batch=%d", err, back.BatchSize)
	}
}

// TestBatchedAuditLogChains: with batching on, the audit log records one
// quote_batch event per signed batch alongside the per-register quote
// events, and the whole log still verifies.
func TestBatchedAuditLogChains(t *testing.T) {
	dir := t.TempDir()
	alog, err := audit.Open(audit.Config{Dir: dir, Node: "test", HeadEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{
		Audit: alog,
		Batch: BatchPolicy{MaxSize: 4},
	})
	runBatchLoad(t, s, 12)
	var batchEvents, quoteEvents int
	events, _ := alog.Select(audit.Query{Limit: 4096})
	for _, e := range events {
		switch e.Type {
		case audit.EventQuoteBatch:
			batchEvents++
		case audit.EventSePCRQuote:
			quoteEvents++
		}
	}
	m := s.Metrics()
	if uint64(batchEvents) != m.QuoteBatches {
		t.Fatalf("%d quote_batch events for %d batches", batchEvents, m.QuoteBatches)
	}
	if uint64(quoteEvents) != m.BatchedJobs {
		t.Fatalf("%d sepcr_quote events for %d batched jobs", quoteEvents, m.BatchedJobs)
	}
	// The persisted log must still verify end to end: close the service
	// (final events), seal the log, replay every proof.
	s.Close()
	alog.Close()
	rep, err := audit.VerifyChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("audit log does not verify with batching on: %v", err)
	}
}

// TestBatchedCloseDrains: closing with jobs still queued flushes every
// in-flight batch and loses nothing.
func TestBatchedCloseDrains(t *testing.T) {
	s := newTestService(t, Config{
		Batch: BatchPolicy{MaxSize: 8},
	})
	var tickets []*Ticket
	for i := 0; i < 10; i++ {
		tk, err := s.Submit(Job{Name: fmt.Sprintf("j%d", i), Source: helloSource})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	s.Close()
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Err != nil {
			t.Fatalf("job %d lost at close: %v", i, res.Err)
		}
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// prefilled returns a channel holding n distinct hand-offs, as workers
// leave them while the batcher is busy with the previous batch.
func prefilled(n, capacity int) (chan *quoteItem, []*quoteItem) {
	ch := make(chan *quoteItem, capacity)
	items := make([]*quoteItem, n)
	for i := range items {
		items[i] = &quoteItem{}
		ch <- items[i]
	}
	return ch, items
}

// drainOnce runs drainBatch and fails the test if it blocks: with its
// first item already waiting, the group-commit rule never waits for more.
func drainOnce(t *testing.T, ch chan *quoteItem, maxSize int) ([]*quoteItem, bool) {
	t.Helper()
	type drained struct {
		items []*quoteItem
		ok    bool
	}
	c := make(chan drained, 1)
	go func() {
		items, ok := drainBatch(ch, maxSize)
		c <- drained{items, ok}
	}()
	select {
	case d := <-c:
		return d.items, d.ok
	case <-time.After(10 * time.Second):
		t.Fatal("drainBatch blocked with its first item waiting")
		return nil, false
	}
}

// sameItems reports whether got is want, item for item, in order.
func sameItems(got, want []*quoteItem) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestBatchDrainTakesEverythingWaiting: fewer jobs waiting than MaxSize
// all go into one batch, in arrival order.
func TestBatchDrainTakesEverythingWaiting(t *testing.T) {
	ch, want := prefilled(3, 8)
	got, ok := drainOnce(t, ch, 8)
	if !ok || !sameItems(got, want) {
		t.Fatalf("drained %d items (ok=%v), want all 3 waiting", len(got), ok)
	}
	if len(ch) != 0 {
		t.Fatalf("%d items left on the channel", len(ch))
	}
}

// TestBatchDrainStopsAtMaxSize: more jobs waiting than MaxSize split into
// full batches and a remainder, none larger than MaxSize.
func TestBatchDrainStopsAtMaxSize(t *testing.T) {
	ch, want := prefilled(11, 16)
	for _, span := range [][2]int{{0, 4}, {4, 8}, {8, 11}} {
		got, ok := drainOnce(t, ch, 4)
		if !ok || !sameItems(got, want[span[0]:span[1]]) {
			t.Fatalf("drained %d items (ok=%v), want items %d..%d", len(got), ok, span[0], span[1]-1)
		}
	}
}

// TestBatchDrainAloneIsBatchOfOne: a job with nothing else waiting is
// flushed alone at once, and MaxSize <= 1 makes every batch a batch of
// one however many wait.
func TestBatchDrainAloneIsBatchOfOne(t *testing.T) {
	ch, want := prefilled(1, 8)
	if got, ok := drainOnce(t, ch, 8); !ok || !sameItems(got, want) {
		t.Fatalf("drained %d items (ok=%v), want the one waiting", len(got), ok)
	}
	for _, maxSize := range []int{-1, 0, 1} {
		ch, want := prefilled(3, 8)
		for i := range want {
			if got, ok := drainOnce(t, ch, maxSize); !ok || !sameItems(got, want[i:i+1]) {
				t.Fatalf("MaxSize %d: drained %d items (ok=%v), want item %d alone", maxSize, len(got), ok, i)
			}
		}
	}
}

// TestBatchDrainClosedChannel: a closed channel still yields what was
// queued before the close, then reports the batcher done.
func TestBatchDrainClosedChannel(t *testing.T) {
	ch, want := prefilled(2, 8)
	close(ch)
	if got, ok := drainOnce(t, ch, 8); !ok || !sameItems(got, want) {
		t.Fatalf("drained %d items (ok=%v), want the 2 queued before close", len(got), ok)
	}
	if got, ok := drainOnce(t, ch, 8); ok || got != nil {
		t.Fatalf("closed, empty channel: drained %d items, ok=%v; want none, false", len(got), ok)
	}
}

// TestBatchSignRacesSLAUNCH runs one batch's signing step on its own
// goroutine while another job SLAUNCHes and runs on the same machine
// under its lock, which is what the batcher's off-lock signature does
// under load. The race detector (make race) reports any state the two
// share; both quotes must verify, and nothing leaks.
func TestBatchSignRacesSLAUNCH(t *testing.T) {
	s := newTestService(t, Config{Machines: 1})
	m := s.machines[0]
	sys := m.sys
	p, err := core.CompilePAL("hello", helloSource)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *sksm.SECB {
		secb, err := sys.SKSM.NewSECB(p.Image, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SKSM.RunToCompletion(sys.PALCore(), secb); err != nil {
			t.Fatal(err)
		}
		return secb
	}

	nonceA, nonceB := []byte("sign-race-a"), []byte("sign-race-b")
	m.mu.Lock()
	a := run()
	qa, sign, err := sys.SKSM.QuoteBatchAfterExitUnsigned([]*sksm.SECB{a}, [][]byte{nonceA}, nonceA, 0)
	if err == nil {
		err = sys.SKSM.Release(a)
	}
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	signed := make(chan error, 1)
	go func() { signed <- sign() }()
	m.mu.Lock()
	b := run()
	qb, err := sys.SKSM.QuoteBatchAfterExit([]*sksm.SECB{b}, [][]byte{nonceB}, nonceB, 0)
	if err == nil {
		err = sys.SKSM.Release(b)
	}
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-signed; err != nil {
		t.Fatal(err)
	}

	sys.Verifier.Approve(p.Name, p.Measurement())
	log := attest.Log{{PCR: -1, Description: p.Name, Measurement: p.Measurement()}}
	for i, q := range []*tpm.BatchQuote{qa, qb} {
		batch, err := sys.Verifier.AuthenticateBatch(sys.Cert, q)
		if err != nil {
			t.Fatalf("quote %d: %v", i, err)
		}
		if _, err := batch.VerifyEntry(0, log, [][]byte{nonceA, nonceB}[i]); err != nil {
			t.Fatalf("quote %d: %v", i, err)
		}
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
