package palsvc

import (
	"errors"
	"time"

	"minimaltcb/internal/obs"
)

// Job is one PAL-execution request from a tenant.
type Job struct {
	// Name identifies the tenant's PAL to the verifier. Tenants
	// submitting byte-identical source share one cached image and
	// therefore one attested identity — code, not names, is what the
	// attestation chain binds.
	Name string
	// Source is PAL assembler source (see internal/isa); it is compiled
	// through the service's image cache.
	Source string
	// Input is delivered on the PAL's input channel (svc 7).
	Input []byte
	// Deadline bounds the job's whole stay in the service, in wall-clock
	// time (queueing and admission happen in real time; only execution
	// is simulated). Zero means Config.DefaultDeadline, which may itself
	// be zero (no deadline).
	Deadline time.Time
	// NoAttest skips quote generation and verification; the sePCR is
	// freed unquoted via TPM_SEPCR_Free (§5.4.3).
	NoAttest bool
	// Trace is the propagated trace context the job's pipeline spans
	// adopt: a router or tenant that already opened a trace passes it so
	// every hop lands in one tree. Zero means the service mints a fresh
	// root trace (when tracing is on).
	Trace obs.Context
	// Tenant is the accounting identity for SLO tracking. Empty defaults
	// to Name.
	Tenant string
}

// JobResult reports one completed (or failed) job.
type JobResult struct {
	// Name echoes the job's name.
	Name string
	// Machine is the index of the platform replica that ran the PAL.
	Machine int
	// Output is what the PAL wrote to its output channel.
	Output []byte
	// ExitStatus is the PAL's exit code.
	ExitStatus uint32
	// VerifiedAs is the approved PAL name the quote verification
	// returned; empty when NoAttest was set.
	VerifiedAs string
	// Slices and Resumes count scheduling slices and hardware resumes.
	Slices, Resumes int
	// Attempts counts pipeline attempts: 1 means the job succeeded (or
	// failed terminally) first try; higher values mean the supervisor
	// retried retryable failures (Config.Retry).
	Attempts int
	// BatchSize is the number of jobs the quote covering this one
	// attested (Config.Batch); 0 when the job skipped attestation.
	BatchSize int
	// Trace is the trace the job's spans were recorded under — propagated
	// from Job.Trace or freshly minted. Zero when tracing is off.
	Trace obs.TraceID

	// Per-stage latencies. QueueWait, ArbWait and Verify are wall-clock
	// (they happen in real time); Execute and QuoteGen are virtual time
	// charged to the machine's sim clock.
	QueueWait time.Duration
	ArbWait   time.Duration
	Execute   time.Duration
	QuoteGen  time.Duration
	Verify    time.Duration

	// Err is nil on success. Use IsRetryable to decide whether
	// resubmission can help.
	Err error
}

// Ticket is the caller's handle on a submitted job.
type Ticket struct {
	done chan *JobResult
}

func newTicket() *Ticket { return &Ticket{done: make(chan *JobResult, 1)} }

// deliver hands the result to the waiting caller. Each ticket is delivered
// exactly once.
func (t *Ticket) deliver(r *JobResult) { t.done <- r }

// Done returns a channel that receives the job's result exactly once.
func (t *Ticket) Done() <-chan *JobResult { return t.done }

// Wait blocks until the job finishes and returns its result.
func (t *Ticket) Wait() *JobResult { return <-t.done }

// retryableError marks conditions that are expected to clear on their own —
// full queue, exhausted sePCR bank — so tenants know resubmission is the
// right response.
type retryableError struct{ msg string }

func (e *retryableError) Error() string   { return e.msg }
func (e *retryableError) Retryable() bool { return true }

// Service errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("palsvc: service closed")
	// ErrQueueFull reports backpressure: the bounded submission queue is
	// at capacity. Retryable.
	ErrQueueFull error = &retryableError{"palsvc: submission queue full"}
	// ErrBankExhausted reports that admission control found every sePCR
	// occupied (§5.6) under the AdmitReject policy. Retryable.
	ErrBankExhausted error = &retryableError{"palsvc: sePCR bank exhausted"}
	// ErrDeadlineExceeded reports that the job's deadline expired before
	// it finished — in the queue, waiting for a register, or (since the
	// chaos PR) at any per-stage wait across execute/quote/verify.
	ErrDeadlineExceeded = errors.New("palsvc: job deadline exceeded")
	// ErrShedding reports graceful degradation: every platform replica is
	// quarantined after repeated faults, so the service sheds load rather
	// than queueing jobs against a sick fleet. Retryable.
	ErrShedding error = &retryableError{"palsvc: shedding load: all replicas quarantined"}
)

// Retryable reports whether err (anywhere in its chain) marks a transient
// condition that a later resubmission can clear. It is the one place the
// Retryable() contract is decided — call sites must never string-match
// error text. The bit crosses the wire as WireResponse.Retryable.
func Retryable(err error) bool {
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// IsRetryable is the original name for Retryable, kept for callers.
func IsRetryable(err error) bool { return Retryable(err) }

// resolveDeadline is the one place the Job.Deadline zero-value and
// Config.DefaultDeadline interact: an explicit deadline always wins; a
// zero deadline means DefaultDeadline measured from now, which may itself
// be zero (no deadline). Both intake paths — local Submit and the wire
// protocol's dispatch — resolve through it, so no code path can treat a
// caller-set zero deadline as "unbounded" while a default is configured.
func resolveDeadline(j Job, now time.Time, def time.Duration) time.Time {
	if !j.Deadline.IsZero() {
		return j.Deadline
	}
	if def > 0 {
		return now.Add(def)
	}
	return time.Time{}
}
