package palsvc

import (
	"errors"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/tpm"
)

// obsHooks mirrors the service's internal metrics into Prometheus-style
// instruments at event time, so a /metrics scrape never has to take the
// metrics mutex for the hot counters. Every field is a nil-safe handle: a
// service built without a Registry keeps the zero obsHooks, whose nil
// instrument handles make every update a no-op.
type obsHooks struct {
	submitted    *obs.Counter
	admitted     *obs.Counter
	rejQueueFull *obs.Counter
	rejBank      *obs.Counter
	rejShed      *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	deadline     *obs.Counter
	retried      *obs.Counter
	quarantines  *obs.Counter
	batchesC     *obs.Counter
	batchJobsC   *obs.Counter
	signsC       *obs.Counter

	queueH  *obs.Histogram
	arbH    *obs.Histogram
	execH   *obs.Histogram
	quoteH  *obs.Histogram
	verifyH *obs.Histogram
}

// bindRegistry registers the service's instruments and wires the
// scrape-time callbacks. Counter families use the standard _total suffix;
// rejections carry a cause label so queue backpressure and sePCR-bank
// exhaustion are distinguishable on a dashboard without the wire stats op.
// Stage latencies share one histogram family keyed by stage and by which
// clock the duration was measured on (wall for queue/arbitration/verify,
// virtual sim time for execute/quote_gen) — mixing the two in one series
// would make every quantile meaningless.
func (s *Service) bindRegistry(r *obs.Registry) {
	if r == nil {
		return
	}
	stage := func(name, clock string) *obs.Histogram {
		return r.Histogram("palsvc_stage_duration_seconds",
			"Per-stage job latency in seconds, labeled by pipeline stage and by the clock (wall or virtual sim time) it was measured on.",
			nil,
			obs.Label{Name: "stage", Value: name}, obs.Label{Name: "clock", Value: clock})
	}
	s.metrics.hooks = obsHooks{
		submitted: r.Counter("palsvc_jobs_submitted_total", "Jobs accepted into the submission queue."),
		admitted:  r.Counter("palsvc_jobs_admitted_total", "Jobs granted an sePCR reservation by admission control."),
		rejQueueFull: r.Counter("palsvc_jobs_rejected_total", "Jobs rejected, by cause.",
			obs.Label{Name: "cause", Value: "queue_full"}),
		rejBank: r.Counter("palsvc_jobs_rejected_total", "Jobs rejected, by cause.",
			obs.Label{Name: "cause", Value: "bank_exhausted"}),
		rejShed: r.Counter("palsvc_jobs_rejected_total", "Jobs rejected, by cause.",
			obs.Label{Name: "cause", Value: "shed_load"}),
		completed:   r.Counter("palsvc_jobs_completed_total", "Jobs that finished successfully."),
		failed:      r.Counter("palsvc_jobs_failed_total", "Jobs that finished with an error."),
		deadline:    r.Counter("palsvc_jobs_deadline_exceeded_total", "Jobs whose deadline expired at any pipeline stage."),
		retried:     r.Counter("palsvc_jobs_retried_total", "Supervisor retries of retryable job failures."),
		quarantines: r.Counter("palsvc_machine_quarantines_total", "Replica quarantine trips after repeated consecutive faults."),
		batchesC:    r.Counter("palsvc_quote_batches_total", "Batch quotes the TPM made (one AIK signature each)."),
		batchJobsC:  r.Counter("palsvc_quote_batched_jobs_total", "Jobs attested inside batch quotes."),
		signsC:      r.Counter("palsvc_quote_signs_total", "AIK signatures the modelled TPM made and was charged for in the quote stage (one per batch); the host computes one only for a batch authenticated without the quote session."),

		queueH:  stage("queue_wait", "wall"),
		arbH:    stage("arb_wait", "wall"),
		execH:   stage("execute", "virtual"),
		quoteH:  stage("quote_gen", "virtual"),
		verifyH: stage("verify", "wall"),
	}

	r.GaugeFunc("palsvc_queue_depth", "Jobs waiting in the submission queue.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("palsvc_sepcr_capacity", "Total sePCR bank size across machines.",
		func() float64 { return float64(s.bank) })
	r.GaugeFunc("palsvc_sepcr_occupancy", "Jobs currently holding (or reserved for) an sePCR.",
		func() float64 {
			m := s.metrics
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.occupancy)
		})
	r.GaugeFunc("palsvc_sepcr_occupancy_max", "High-water mark of sePCR occupancy.",
		func() float64 {
			m := s.metrics
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.maxOccupancy)
		})
	r.CounterFunc("palsvc_image_cache_hits_total", "PAL image cache hits.",
		func() float64 { h, _ := s.cache.stats(); return float64(h) })
	r.CounterFunc("palsvc_image_cache_misses_total", "PAL image cache misses (assembler runs).",
		func() float64 { _, m := s.cache.stats(); return float64(m) })
	// The TPM's measurement cache and crypto memo are shared by every
	// machine in the process, this service's or not.
	r.CounterFunc("palsvc_measure_cache_hits_total", "Late-launch measurement cache hits, process-wide.",
		func() float64 { return float64(tpm.CacheStats().MeasureHits) })
	r.CounterFunc("palsvc_measure_cache_misses_total", "Late-launch measurement cache misses (images hashed afresh), process-wide.",
		func() float64 { return float64(tpm.CacheStats().MeasureMisses) })
	r.CounterFunc("palsvc_crypto_memo_hits_total", "Deterministic RSA memo hits, process-wide.",
		func() float64 { return float64(tpm.CacheStats().CryptoHits) })
	r.CounterFunc("palsvc_crypto_memo_misses_total", "Deterministic RSA memo misses (RSA operations run), process-wide.",
		func() float64 { return float64(tpm.CacheStats().CryptoMisses) })
}

// ErrorCode maps a job error to the stable cause string the wire protocol
// reports (WireResponse.Code) and the load generator aggregates by.
// Unrecognized errors report "error"; nil reports "".
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrBankExhausted):
		return CodeBankExhausted
	case errors.Is(err, ErrShedding):
		return CodeShed
	case errors.Is(err, ErrDeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, ErrClosed):
		return CodeClosed
	default:
		return CodeError
	}
}

// Stable wire error codes.
const (
	CodeQueueFull     = "queue_full"
	CodeBankExhausted = "bank_exhausted"
	CodeShed          = "shed_load"
	CodeDeadline      = "deadline_exceeded"
	CodeClosed        = "closed"
	CodeError         = "error"
)
