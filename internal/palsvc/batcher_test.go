package palsvc

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"minimaltcb/internal/audit"
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

func TestBatchedPipelineEndToEnd(t *testing.T) {
	s := newTestService(t, Config{
		Batch: BatchPolicy{MaxSize: 4, MaxWait: 2 * time.Millisecond},
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
	// The acceptance criterion: one AIK signature per batch, so far fewer
	// signatures than jobs.
	if m.QuoteSigns != m.QuoteBatches {
		t.Fatalf("quote_signs=%d, want one per batch (%d)", m.QuoteSigns, m.QuoteBatches)
	}
	if m.QuoteSigns >= jobs {
		t.Fatalf("quote_signs=%d for %d jobs: batching amortized nothing", m.QuoteSigns, jobs)
	}
	if m.MaxBatchSize < 2 {
		t.Fatalf("max batch size %d: 24 concurrent jobs never coalesced", m.MaxBatchSize)
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
		Batch:    BatchPolicy{MaxSize: 4, MaxWait: time.Millisecond},
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
		Batch: BatchPolicy{MaxSize: 3, MaxWait: time.Millisecond},
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
		Batch: BatchPolicy{MaxSize: 4, MaxWait: time.Millisecond},
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
		Batch: BatchPolicy{MaxSize: 8, MaxWait: 5 * time.Millisecond},
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
