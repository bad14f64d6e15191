package palsvc

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/audit"
	"minimaltcb/internal/core"
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
