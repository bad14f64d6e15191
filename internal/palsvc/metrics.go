package palsvc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/sim"
)

// StageStats summarizes one pipeline stage's latency distribution. For the
// Execute and QuoteGen stages the durations are virtual time on the
// machine's sim clock; for QueueWait, ArbWait and Verify they are
// wall-clock. N, Mean and Max cover the service's lifetime; P50, P95 and
// P99 cover the stage's last sim.WindowSize observations, so summarizing a
// stage costs the same however many jobs the service has run.
// JSON-encodable for the wire protocol's stats op.
type StageStats struct {
	N    int           `json:"n"`
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	Max  time.Duration `json:"max_ns"`
}

func (s StageStats) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.N, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Metrics is a point-in-time snapshot of the service.
type Metrics struct {
	// Counters over the service lifetime. Rejected splits by cause:
	// RejectedQueueFull counts ErrQueueFull backpressure at Submit,
	// RejectedBank counts ErrBankExhausted under AdmitReject, and
	// RejectedShed counts ErrShedding while the whole fleet was
	// quarantined. The terminal counters partition the accepted work:
	// Submitted == Completed + Failed + DeadlineExceeded + RejectedBank +
	// RejectedShed once the queue drains (queue-full rejections happen
	// before Submitted is counted). Retried counts extra attempts, which
	// deliberately move no terminal counter.
	Submitted         uint64 `json:"submitted"`
	Admitted          uint64 `json:"admitted"`
	Rejected          uint64 `json:"rejected"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedBank      uint64 `json:"rejected_bank_exhausted"`
	RejectedShed      uint64 `json:"rejected_shed"`
	Completed         uint64 `json:"completed"`
	Failed            uint64 `json:"failed"`
	DeadlineExceeded  uint64 `json:"deadline_exceeded"`
	// Retried counts supervisor retries; Quarantines counts replica
	// quarantine trips.
	Retried     uint64 `json:"retried"`
	Quarantines uint64 `json:"quarantines"`

	// QueueDepth is the number of jobs waiting in the submission queue
	// at snapshot time.
	QueueDepth int `json:"queue_depth"`

	// SePCRCapacity is the total bank size across machines;
	// SePCROccupancy the currently admitted jobs holding (or reserved
	// for) a register; MaxSePCROccupancy the high-water mark. The
	// admission invariant is MaxSePCROccupancy <= SePCRCapacity.
	SePCRCapacity     int `json:"sepcr_capacity"`
	SePCROccupancy    int `json:"sepcr_occupancy"`
	MaxSePCROccupancy int `json:"sepcr_occupancy_max"`

	// Quote-batching effectiveness: QuoteBatches counts signed batch
	// quotes, BatchedJobs the attested jobs those batches covered,
	// MaxBatchSize the largest batch signed, and QuoteSigns the AIK
	// signatures spent in the quote stage — one per batch, so QuoteSigns
	// << BatchedJobs is the amortization working. Every attested job is
	// counted; with Batch.MaxSize <= 1 each batch is a batch of one.
	// All zero (and absent from the wire) until a job is attested.
	QuoteBatches uint64 `json:"quote_batches,omitempty"`
	BatchedJobs  uint64 `json:"batched_jobs,omitempty"`
	MaxBatchSize int    `json:"max_batch_size,omitempty"`
	QuoteSigns   uint64 `json:"quote_signs,omitempty"`

	// Image-cache and verifier-memo effectiveness.
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	VerifyMemoHits   uint64 `json:"verify_memo_hits"`
	VerifyMemoMisses uint64 `json:"verify_memo_misses"`

	// Per-stage latency distributions.
	QueueWait StageStats `json:"queue_wait"`
	ArbWait   StageStats `json:"arb_wait"`
	Execute   StageStats `json:"execute"`
	QuoteGen  StageStats `json:"quote_gen"`
	Verify    StageStats `json:"verify"`
}

// metrics is the service's internal mutable state behind Metrics. When the
// service is built with an obs.Registry (Config.Registry), hooks mirrors
// every update into Prometheus-style instruments at event time.
type metrics struct {
	mu sync.Mutex

	submitted, admitted, rejected  uint64
	rejQueueFull, rejBank, rejShed uint64
	completed, failed, deadlineEx  uint64
	retried, quarantines           uint64
	batches, batchedJobs           uint64
	maxBatch                       int
	occupancy, maxOccupancy        int
	stages                         stageWindows

	// hooks is a value, not a pointer: its zero value holds nil instrument
	// handles, and every obs handle method no-ops on nil, so a service
	// built without a Registry pays only nil checks here.
	hooks obsHooks
}

// stageWindows holds the per-stage latency windows. Metrics copies them
// whole under metrics.mu and ranks the copy after unlocking, so the lock
// every job takes is held for a fixed-size copy, never a sort.
type stageWindows struct {
	queueWait, arbWait, exec, quote, verify sim.Window
}

func (m *metrics) incSubmitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
	m.hooks.submitted.Inc()
}

// incRejected records a rejection attributed to its cause (the wire
// protocol and the Prometheus exposition both break rejections out).
func (m *metrics) incRejected(err error) {
	m.mu.Lock()
	m.rejected++
	var c *obs.Counter
	switch {
	case errors.Is(err, ErrQueueFull):
		m.rejQueueFull++
		c = m.hooks.rejQueueFull
	case errors.Is(err, ErrBankExhausted):
		m.rejBank++
		c = m.hooks.rejBank
	case errors.Is(err, ErrShedding):
		m.rejShed++
		c = m.hooks.rejShed
	}
	m.mu.Unlock()
	c.Inc()
}

func (m *metrics) incCompleted() { m.mu.Lock(); m.completed++; m.mu.Unlock(); m.hooks.completed.Inc() }
func (m *metrics) incFailed()    { m.mu.Lock(); m.failed++; m.mu.Unlock(); m.hooks.failed.Inc() }
func (m *metrics) incDeadline()  { m.mu.Lock(); m.deadlineEx++; m.mu.Unlock(); m.hooks.deadline.Inc() }
func (m *metrics) incRetried()   { m.mu.Lock(); m.retried++; m.mu.Unlock(); m.hooks.retried.Inc() }

func (m *metrics) incQuarantine() {
	m.mu.Lock()
	m.quarantines++
	m.mu.Unlock()
	m.hooks.quarantines.Inc()
}

// admitOne records a successful admission and bumps the occupancy gauge.
func (m *metrics) admitOne() {
	m.mu.Lock()
	m.admitted++
	m.occupancy++
	if m.occupancy > m.maxOccupancy {
		m.maxOccupancy = m.occupancy
	}
	m.mu.Unlock()
	m.hooks.admitted.Inc()
}

// releaseOne drops the occupancy gauge when a job's register is free again.
func (m *metrics) releaseOne() {
	m.mu.Lock()
	m.occupancy--
	m.mu.Unlock()
}

// noteBatch records one batch flush of n jobs; ok reports whether the
// TPM signed it (a failed batch never reached the signature, so it
// spent no RSA and counts toward nothing).
func (m *metrics) noteBatch(n int, ok bool) {
	if !ok {
		return
	}
	m.mu.Lock()
	m.batches++
	m.batchedJobs += uint64(n)
	if n > m.maxBatch {
		m.maxBatch = n
	}
	m.mu.Unlock()
	m.hooks.batchesC.Inc()
	m.hooks.batchJobsC.Add(float64(n))
	m.hooks.signsC.Inc()
}

func (m *metrics) observeQueue(d time.Duration) {
	m.mu.Lock()
	m.stages.queueWait.Add(d)
	m.mu.Unlock()
	m.hooks.queueH.Observe(d.Seconds())
}

func (m *metrics) observeArb(d time.Duration) {
	m.mu.Lock()
	m.stages.arbWait.Add(d)
	m.mu.Unlock()
	m.hooks.arbH.Observe(d.Seconds())
}

func (m *metrics) observeExec(d time.Duration) {
	m.mu.Lock()
	m.stages.exec.Add(d)
	m.mu.Unlock()
	m.hooks.execH.Observe(d.Seconds())
}

func (m *metrics) observeQuote(d time.Duration) {
	m.mu.Lock()
	m.stages.quote.Add(d)
	m.mu.Unlock()
	m.hooks.quoteH.Observe(d.Seconds())
}

func (m *metrics) observeVerify(d time.Duration) {
	m.mu.Lock()
	m.stages.verify.Add(d)
	m.mu.Unlock()
	m.hooks.verifyH.Observe(d.Seconds())
}

// latencies is what a StageStats summarizes: a sim.Window for the
// service's and the router's running distributions, a sim.Sample for
// RunLoad's whole-run report.
type latencies interface {
	N() int
	Mean() time.Duration
	Max() time.Duration
	Percentiles(ps ...float64) []time.Duration
}

// stageOf summarizes a recorder with one sort for all three ranks. The
// degenerate cases are well-defined (see sim.Sample.Percentiles): n=0
// reports all zeros, n=1 reports Mean=P50=P95=P99=Max.
func stageOf(s latencies) StageStats {
	ps := s.Percentiles(50, 95, 99)
	return StageStats{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  ps[0],
		P95:  ps[1],
		P99:  ps[2],
		Max:  s.Max(),
	}
}

// StageStatsOf summarizes a latency window into the wire-encodable
// StageStats form — exported so internal/cluster can report its
// router-measured distributions in the same shape the service uses.
func StageStatsOf(w *sim.Window) StageStats { return stageOf(w) }

// Metrics returns a consistent snapshot of the service's counters, gauges
// and latency distributions.
func (s *Service) Metrics() Metrics {
	m := s.metrics
	w := new(stageWindows)
	m.mu.Lock()
	out := Metrics{
		Submitted:         m.submitted,
		Admitted:          m.admitted,
		Rejected:          m.rejected,
		RejectedQueueFull: m.rejQueueFull,
		RejectedBank:      m.rejBank,
		RejectedShed:      m.rejShed,
		Completed:         m.completed,
		Failed:            m.failed,
		DeadlineExceeded:  m.deadlineEx,
		Retried:           m.retried,
		Quarantines:       m.quarantines,
		QuoteBatches:      m.batches,
		BatchedJobs:       m.batchedJobs,
		MaxBatchSize:      m.maxBatch,
		QuoteSigns:        m.batches,
		SePCRCapacity:     s.bank,
		SePCROccupancy:    m.occupancy,
		MaxSePCROccupancy: m.maxOccupancy,
	}
	*w = m.stages
	m.mu.Unlock()
	out.QueueWait = stageOf(&w.queueWait)
	out.ArbWait = stageOf(&w.arbWait)
	out.Execute = stageOf(&w.exec)
	out.QuoteGen = stageOf(&w.quote)
	out.Verify = stageOf(&w.verify)
	out.QueueDepth = len(s.queue)
	out.CacheHits, out.CacheMisses = s.cache.stats()
	for _, mc := range s.machines {
		h, miss := mc.sys.Verifier.MemoStats()
		out.VerifyMemoHits += h
		out.VerifyMemoMisses += miss
	}
	return out
}
