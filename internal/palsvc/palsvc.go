// Package palsvc turns the one-shot simulator sessions of internal/core
// into a long-running, multi-tenant PAL-execution service — the runtime
// layer the paper's §5 recommendations exist to enable: PALs executing
// concurrently with (and isolated from) everything else, with admission
// bounded by the TPM's sePCR bank (§5.6).
//
// The pipeline per job is queue → admit → execute → quote → verify:
//
//   - a bounded submission queue provides backpressure (ErrQueueFull) and
//     per-request deadlines;
//   - admission control reads the live sePCR bank through
//     sksm.Manager.FreeSePCRs and never lets more jobs hold registers than
//     the bank provides — the 𝑛+1-th concurrent PAL either waits
//     (AdmitQueue) or is rejected with a retryable error (AdmitReject),
//     exactly the SLAUNCH failure-code contract of §5.4.1;
//   - a worker pool multiplexes jobs across one or more platform replicas.
//     Each machine is a single-threaded simulator, so a per-machine mutex
//     plays the role of the hardware TPM arbitration of §5.4.5: execution
//     and the TPM's quote command serialize on it, while the host's RSA
//     signature over a batch quoted without a session and verification
//     (off-platform by definition) run outside it;
//   - a per-machine batcher group-commits quotes: it attests every
//     finished job already waiting for it with one TPM batch quote, so
//     batches grow with the load while the previous batch is flushed;
//   - the result layer caches compiled PAL images by source digest, so
//     repeated tenants skip the assembler, and verifies each batch quote
//     by authenticating the batch once (over the machine's quote session
//     when it has one) and then checking each job's entry.
//
// Metrics (counters, queue depth, sePCR occupancy, per-stage latency
// distributions over sim time) are available programmatically via
// Service.Metrics and over the wire via the stats op of the length-prefixed
// protocol in wire.go (JSON, with a binary frame for the run op), which
// cmd/palservd fronts with a TCP server and a built-in load generator.
package palsvc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/audit"
	"minimaltcb/internal/chaos"
	"minimaltcb/internal/core"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/obs/prof"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
)

// AdmissionPolicy selects what happens when every sePCR is occupied.
type AdmissionPolicy int

const (
	// AdmitQueue makes jobs wait (bounded by their deadline) for a
	// register to free up.
	AdmitQueue AdmissionPolicy = iota
	// AdmitReject fails jobs immediately with ErrBankExhausted, leaving
	// the retry decision to the tenant.
	AdmitReject
)

// Config assembles a Service.
type Config struct {
	// Profile is the platform every replica is built from. It must
	// provision sePCRs (wrap it in platform.Recommended).
	Profile platform.Profile
	// Machines is the number of platform replicas; default 1.
	Machines int
	// Workers is the worker-pool size; default 2× the total sePCR bank.
	Workers int
	// QueueDepth bounds the submission queue; default 64.
	QueueDepth int
	// Quantum is the SLAUNCH preemption quantum (virtual time); 0 runs
	// each PAL to completion in one slice.
	Quantum time.Duration
	// DefaultDeadline applies to jobs submitted without one; 0 means no
	// deadline.
	DefaultDeadline time.Duration
	// Admission selects the bank-exhaustion behaviour.
	Admission AdmissionPolicy
	// Tracer, when non-nil, records one trace per job: pipeline-stage
	// spans plus the sksm/tpm spans nested under them through each
	// machine's obs.Scope. A nil Tracer compiles the instrumentation out
	// to nil checks.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives Prometheus-style instruments
	// (job counters, sePCR occupancy gauges, stage-latency histograms)
	// mirrored from the service's internal metrics.
	Registry *obs.Registry
	// Profiler, when non-nil, enables the exact virtual-cycle profiler:
	// each machine gets its own collector wired into its SKSM manager,
	// per-tenant totals accrue here, and Service.Profile snapshots the
	// merged result. Nil keeps the interpreter's profiler-off fast path.
	Profiler *prof.Profiler
	// Flight, when non-nil, records a crash bundle for every PAL fault or
	// violation SKILL across all machines.
	Flight *prof.FlightRecorder
	// Retry, when MaxAttempts > 1, makes workers retry jobs that fail
	// with a Retryable error, with capped jittered backoff bounded by the
	// job's deadline. The zero value disables retries.
	Retry RetryPolicy
	// Supervisor, when QuarantineAfter > 0, quarantines replicas after
	// repeated consecutive faults so admission routes around them; when
	// every replica is quarantined the service sheds load (ErrShedding).
	// The zero value disables quarantine.
	Supervisor SupervisorPolicy
	// Chaos, when non-nil, threads the fault injector through every
	// replica: TPM command faults/stalls, spurious PAL faults and slice
	// storms, wedges and clock skew. Nil (production) costs nil checks.
	Chaos *chaos.Injector
	// SLO, when non-nil, receives one per-tenant observation per finished
	// job (latency from submission to delivery, failure classification,
	// exemplar trace ID). Nil costs a nil check on the delivery path.
	SLO *obs.SLOTracker
	// Batch configures the per-machine quote batcher (batcher.go) every
	// attested job goes through: completed jobs that are waiting when the
	// batcher flushes are attested together, up to MaxSize, with one TPM
	// quote over a Merkle root, authenticated over a per-machine quote
	// session. The zero value attests each job as a batch of one — one
	// quote per job.
	Batch BatchPolicy
	// Audit, when non-nil, records every trust-relevant lifecycle event —
	// launch measurements, sePCR transitions, seal/unseal decisions, PAL
	// faults and kills, admission rejections — into the tamper-evident
	// Merkle log (internal/audit). New installs a per-machine recorder on
	// each replica's SKSM manager and TPM, and machine 0's TPM becomes the
	// log's AIK head signer. Nil (the default) costs one nil check per
	// event site.
	Audit *audit.Log
}

// RetryPolicy caps the worker supervisor's retries of retryable failures.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per job; <= 1 means no retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff, plus up to 50% deterministic jitter.
	// Zero values default to 250µs and 5ms. The backoff is bounded by
	// the job's deadline: when the remaining budget cannot cover the
	// delay, the job fails with its last error instead of sleeping.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is what palservd enables alongside chaos injection.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 250 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
}

// SupervisorPolicy trips a replica into quarantine after
// QuarantineAfter consecutive machine-attributable faults; the replica
// rejoins admission after QuarantineFor of wall-clock time.
type SupervisorPolicy struct {
	QuarantineAfter int
	QuarantineFor   time.Duration
}

// DefaultSupervisorPolicy pairs with DefaultRetryPolicy under chaos.
func DefaultSupervisorPolicy() SupervisorPolicy {
	return SupervisorPolicy{QuarantineAfter: 5, QuarantineFor: 25 * time.Millisecond}
}

// machine is one platform replica plus the lock that stands in for the
// hardware arbitration serializing access to the (single-threaded)
// simulated platform.
type machine struct {
	id  int
	sys *core.System
	mu  sync.Mutex
	// scope carries the ambient trace context into the sksm/tpm layers;
	// it is swapped under mu, the same lock that serializes all simulator
	// access. Nil when the service has no tracer.
	scope *obs.Scope
	// pending counts admitted jobs that have not yet SLAUNCHed — their
	// registers are still Free in the TPM, so the live-bank reading must
	// subtract them. Guarded by mu.
	pending int
	// prof is this machine's cycle collector (nil when profiling is off).
	// Like the simulator it observes, it is touched only under mu —
	// including snapshots (Service.Profile).
	prof *prof.CPUProfiler
	// chaos is this replica's wedge/skew hook (nil when chaos is off).
	chaos *chaos.MachineHook
	// basePages is the kernel allocator's free-page count right after
	// assembly — the level LeakCheck expects once all jobs drain.
	basePages int

	// Quote-batching state. batchCh feeds the machine's batcher
	// goroutine; session and sessID are the lazily-opened quote session,
	// touched only by that goroutine (workers receive the batch it
	// authenticated, never the session).
	batchCh chan *quoteItem
	session *attest.Session
	sessID  uint64

	// Supervision state, guarded by supMu rather than mu so admission
	// probes never contend with the simulator lock.
	supMu            sync.Mutex
	consecFaults     int
	quarantinedUntil time.Time
}

// quarantined reports whether the replica is sitting out admission.
func (m *machine) quarantined(now time.Time) bool {
	m.supMu.Lock()
	defer m.supMu.Unlock()
	return now.Before(m.quarantinedUntil)
}

// tryReserve implements one admission probe: if the machine is idle enough
// to answer and its live bank has an unreserved Free register, reserve it.
// A machine whose lock is held (a PAL is executing or quoting) reports no
// capacity for this probe — callers loop or reject per policy.
func (m *machine) tryReserve() bool {
	if !m.mu.TryLock() {
		return false
	}
	defer m.mu.Unlock()
	if m.sys.SKSM.FreeSePCRs()-m.pending <= 0 {
		return false
	}
	m.pending++
	return true
}

// task is a queued job.
type task struct {
	job      Job
	ticket   *Ticket
	enqueued time.Time
	deadline time.Time // zero = none
	// root is the job's trace root span (nil when tracing is off); every
	// pipeline-stage span nests under it.
	root *obs.Span
}

// Service is a concurrent multi-tenant PAL-execution service.
type Service struct {
	cfg      Config
	machines []*machine
	bank     int // total sePCRs across machines
	queue    chan *task
	freed    chan struct{} // admission wakeup, capacity 1
	cache    *palCache
	metrics  *metrics
	tracer   *obs.Tracer // nil when tracing is off
	// auditRec records service-level events (admission rejections) with no
	// machine identity; nil when auditing is off.
	auditRec *audit.Recorder
	nonceSeq atomic.Uint64

	// jitter feeds retry-backoff jitter; deterministic (seeded from the
	// chaos seed when present) so same-seed runs back off identically.
	jitterMu sync.Mutex
	jitter   *sim.RNG

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
	// batchWg tracks the per-machine batcher goroutines; they outlive the
	// workers (which block on batch outcomes) and drain after them.
	batchWg sync.WaitGroup
}

// New assembles the platform replicas and starts the worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.Profile.NumSePCRs <= 0 {
		return nil, errors.New("palsvc: profile provisions no sePCRs; wrap it in platform.Recommended")
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * cfg.Machines * cfg.Profile.NumSePCRs
	}
	jitterSeed := uint64(0x6a17)
	if cfg.Chaos != nil {
		jitterSeed ^= cfg.Chaos.Seed()
	}
	s := &Service{
		cfg:     cfg,
		queue:   make(chan *task, cfg.QueueDepth),
		freed:   make(chan struct{}, 1),
		cache:   newPALCache(),
		metrics: &metrics{},
		tracer:  cfg.Tracer,
		jitter:  sim.NewRNG(jitterSeed),
	}
	for i := 0; i < cfg.Machines; i++ {
		sys, err := core.NewSystem(cfg.Profile)
		if err != nil {
			return nil, fmt.Errorf("palsvc: building machine %d: %w", i, err)
		}
		if sys.SKSM == nil || sys.Verifier == nil {
			return nil, errors.New("palsvc: profile lacks recommended hardware or a TPM")
		}
		m := &machine{id: i, sys: sys}
		if cfg.Tracer != nil {
			// One scope per machine: its clock stamps the virtual
			// timestamps, and the sksm/tpm layers pick up the ambient
			// context the execute/quote phases swap in under m.mu.
			m.scope = obs.NewScope(cfg.Tracer, sys.Machine.Clock)
			sys.SKSM.Trace = m.scope
			sys.Machine.TPM().SetTrace(m.scope)
		}
		if cfg.Profiler != nil {
			m.prof = cfg.Profiler.NewCPU()
			sys.SKSM.Prof = m.prof
		}
		sys.SKSM.Flight = cfg.Flight
		if cfg.Audit != nil {
			// The manager stamps Job identity onto every event the chip
			// reports; both hooks fire under m.mu, the lock that already
			// serializes the machine's TPM commands.
			sys.SKSM.Audit = cfg.Audit.Recorder(sys.Machine.Clock, i)
			sys.Machine.TPM().SetAuditHook(sys.SKSM)
		}
		if cfg.Chaos != nil {
			// One hook set per replica: each gets its own deterministic
			// decision streams, so the fault schedule on machine i does
			// not depend on how many jobs machine j ran.
			sys.Machine.InstallFaults(cfg.Chaos.TPMHook(i))
			sys.SKSM.Chaos = cfg.Chaos.SKSMHook(i)
			m.chaos = cfg.Chaos.MachineHook(i)
		}
		m.basePages = sys.SKSM.Kernel.Alloc.FreePages()
		s.machines = append(s.machines, m)
		s.bank += sys.Machine.TPM().NumSePCRs()
	}
	if cfg.Audit != nil {
		// Machine 0's AIK anchors the log's tree heads; the service-level
		// recorder (admission rejections) carries no machine or virtual
		// clock — those events happen before any machine is chosen.
		cfg.Audit.SetSigner(s.machines[0].sys.Machine.TPM())
		s.auditRec = cfg.Audit.Recorder(nil, -1)
	}
	for _, m := range s.machines {
		// Room for one batch of hand-offs while the batcher flushes the
		// previous one.
		m.batchCh = make(chan *quoteItem, max(cfg.Batch.MaxSize, 1))
		s.batchWg.Add(1)
		go s.batcher(m)
	}
	s.bindRegistry(cfg.Registry)
	cfg.SLO.Bind(cfg.Registry, "palsvc")
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Bank returns the total sePCR capacity across all replicas.
func (s *Service) Bank() int { return s.bank }

// Submit enqueues a job. It returns immediately with a Ticket, ErrQueueFull
// when the bounded queue is at capacity (retryable backpressure), or
// ErrClosed after Close.
func (s *Service) Submit(j Job) (*Ticket, error) {
	if j.Source == "" {
		return nil, errors.New("palsvc: job has no source")
	}
	if j.Name == "" {
		j.Name = "pal"
	}
	now := time.Now()
	t := &task{job: j, ticket: newTicket(), enqueued: now,
		deadline: resolveDeadline(j, now, s.cfg.DefaultDeadline)}
	if s.tracer.Enabled() {
		// One trace per job; the root span covers the job's whole stay in
		// the service and every stage span nests under it. A propagated
		// context (router or tenant hop) is adopted so the job joins the
		// caller's trace; otherwise the service mints a fresh root.
		ctx := j.Trace
		if ctx.Trace.IsZero() {
			ctx = s.tracer.NewTrace()
		}
		t.root = s.tracer.StartSpan(ctx, "job", "pipeline").
			Attr("name", j.Name)
		if j.Tenant != "" && j.Tenant != j.Name {
			t.root.Attr("tenant", j.Tenant)
		}
	}

	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case s.queue <- t:
		s.metrics.incSubmitted()
		return t.ticket, nil
	default:
		err := fmt.Errorf("%w: depth %d", ErrQueueFull, cap(s.queue))
		s.metrics.incRejected(err)
		s.auditReject(t, err)
		t.root.Attr("error", err.Error()).End()
		return nil, err
	}
}

// Run submits a job and waits for its result — the synchronous convenience
// path cmd/palservd and tests use.
func (s *Service) Run(j Job) (*JobResult, error) {
	tk, err := s.Submit(j)
	if err != nil {
		return nil, err
	}
	return tk.Wait(), nil
}

// Close stops accepting submissions, drains every queued job, and waits
// for the workers to finish. Safe to call more than once.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	// Workers first: each blocks on its final batch outcome until the
	// (still running) batchers flush it. Only then do the batch channels
	// close — no worker can send on a closed channel.
	s.wg.Wait()
	for _, m := range s.machines {
		close(m.batchCh)
	}
	s.batchWg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.handle(t)
	}
}

// fail finalizes a job with an error.
func (s *Service) fail(t *task, res *JobResult, err error) {
	res.Err = err
	s.finish(t, res)
}

// finish closes the job's root trace span and delivers the result.
func (s *Service) finish(t *task, res *JobResult) {
	if t.root != nil {
		res.Trace = t.root.Context().Trace
		if res.Err != nil {
			t.root.Attr("error", res.Err.Error())
		}
		if res.Machine >= 0 {
			t.root.Attr("machine", fmt.Sprint(res.Machine))
		}
		t.root.End()
	}
	t.ticket.deliver(res)
}

func (s *Service) handle(t *task) {
	res := &JobResult{Name: t.job.Name, Machine: -1, QueueWait: time.Since(t.enqueued)}
	s.metrics.observeQueue(res.QueueWait)
	rctx := t.root.Context()
	// The queue stay is recorded after the fact: its start was bookmarked
	// at Submit and its duration is attributed wall-clock only.
	s.tracer.RecordSpan(rctx, "queue", "pipeline", t.enqueued, res.QueueWait)

	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		s.deliver(t, res, fmt.Errorf("%w: expired in queue after %v", ErrDeadlineExceeded, res.QueueWait))
		return
	}

	p, err := s.cache.get(t.job.Name, t.job.Source)
	if err != nil {
		s.deliver(t, res, err)
		return
	}

	// Supervised retry loop: retryable failures (injected TPM faults,
	// spurious PAL faults, bank exhaustion, shedding) are retried up to
	// Retry.MaxAttempts with capped jittered backoff, always bounded by
	// the job's deadline. Each attempt re-runs admission, so a retry is
	// free to land on a different (healthy) replica.
	max := s.cfg.Retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		err = s.attempt(t, p, res)
		if err == nil || attempt >= max || !Retryable(err) {
			break
		}
		if !s.backoff(attempt, t.deadline) {
			break // the remaining deadline budget cannot cover the delay
		}
		s.metrics.incRetried()
	}
	s.deliver(t, res, err)
}

// deliver classifies the job's terminal outcome into exactly one metrics
// counter and finalizes the ticket. Centralizing the classification here —
// rather than at each failure site inside an attempt — is what keeps the
// counters an exact partition of Submitted under retries: an attempt that
// fails and is retried moves no terminal counter.
func (s *Service) deliver(t *task, res *JobResult, err error) {
	switch {
	case err == nil:
		s.metrics.incCompleted()
	case errors.Is(err, ErrDeadlineExceeded):
		s.metrics.incDeadline()
	case errors.Is(err, ErrBankExhausted), errors.Is(err, ErrShedding):
		s.metrics.incRejected(err)
		s.auditReject(t, err)
	default:
		s.metrics.incFailed()
	}
	s.jobDone(t, err)
	if err != nil {
		s.fail(t, res, err)
		return
	}
	s.finish(t, res)
}

// auditReject records an admission rejection in the audit log — the
// "every trust decision is on the record" half of admission control: a
// verifier can later prove the service refused work rather than silently
// dropping it. Nil recorder (auditing off) costs one nil check.
func (s *Service) auditReject(t *task, err error) {
	if s.auditRec == nil {
		return
	}
	tenant := t.job.Tenant
	if tenant == "" {
		tenant = t.job.Name
	}
	trace := t.root.Context().Trace
	if trace.IsZero() {
		trace = t.job.Trace.Trace
	}
	s.auditRec.Record(audit.Event{
		Type:   audit.EventAdmitReject,
		Handle: -1,
		Tenant: tenant,
		Trace:  trace,
		Detail: ErrorCode(err),
	})
}

// jobDone feeds the per-tenant SLO tracker with the job's terminal
// outcome: end-to-end latency from submission, failure classification, and
// the trace ID as the drill-down exemplar. Nil SLO costs one nil check.
func (s *Service) jobDone(t *task, err error) {
	if s.cfg.SLO == nil {
		return
	}
	tenant := t.job.Tenant
	if tenant == "" {
		tenant = t.job.Name
	}
	s.cfg.SLO.Observe(tenant, time.Since(t.enqueued), err != nil, t.root.Context().Trace)
}

// attempt drives one pass of admit → execute → quote → verify. It returns
// the attempt's error without touching terminal counters (deliver owns
// those); per-stage latency histograms are still observed per attempt.
func (s *Service) attempt(t *task, p *core.PAL, res *JobResult) error {
	rctx := t.root.Context()
	admitSp := s.tracer.StartSpan(rctx, "admit", "pipeline")
	m, err := s.admit(t)
	if err != nil {
		admitSp.Attr("error", err.Error()).End()
		return err
	}
	admitSp.Attr("machine", fmt.Sprint(m.id)).End()
	s.metrics.admitOne()
	return s.execute(m, t, p, res)
}

// admit finds a machine with live sePCR capacity, per the configured
// policy. On success the returned machine carries one reservation
// (machine.pending) the execute phase converts into a real SLAUNCH
// allocation.
func (s *Service) admit(t *task) (*machine, error) {
	for {
		healthy := 0
		now := time.Now()
		for _, m := range s.machines {
			if m.quarantined(now) {
				continue
			}
			healthy++
			if m.tryReserve() {
				return m, nil
			}
		}
		if healthy == 0 {
			// Graceful degradation: with the whole fleet quarantined,
			// queueing would only build a backlog against sick replicas.
			// Shed instead — the error is retryable, and quarantines
			// expire, so resubmission is the right tenant response.
			return nil, fmt.Errorf("%w (%d replicas)", ErrShedding, len(s.machines))
		}
		if s.cfg.Admission == AdmitReject {
			return nil, fmt.Errorf("%w: all %d sePCRs occupied", ErrBankExhausted, s.bank)
		}
		var deadlineC <-chan time.Time
		if !t.deadline.IsZero() {
			d := time.Until(t.deadline)
			if d <= 0 {
				return nil, fmt.Errorf("%w: while waiting for a sePCR", ErrDeadlineExceeded)
			}
			deadlineC = time.After(d)
		}
		select {
		case <-s.freed:
		case <-time.After(200 * time.Microsecond):
			// Poll fallback: a freed signal can be consumed by another
			// waiter, so never rely on it exclusively.
		case <-deadlineC:
			return nil, fmt.Errorf("%w: while waiting for a sePCR", ErrDeadlineExceeded)
		}
	}
}

// wakeAdmission wakes one admission waiter after a register came free.
// Callers return the job's slot (metrics.releaseOne) while still holding
// m.mu — before the freed register is visible to tryReserve, or a racing
// admission counts it twice and occupancy overshoots the bank — and wake
// only after dropping m.mu, so the woken probe's TryLock can succeed.
func (s *Service) wakeAdmission() {
	select {
	case s.freed <- struct{}{}:
	default:
	}
}

// nextNonce returns a service-unique attestation nonce.
func (s *Service) nextNonce() []byte {
	return []byte(fmt.Sprintf("palsvc-nonce-%d", s.nonceSeq.Add(1)))
}

// defaultDeadlineQuantum is the virtual preemption quantum execute imposes
// on deadline-bearing jobs when Config.Quantum is zero. SKILL only accepts
// suspended PALs and suspension only happens at slice boundaries, so a
// run-to-completion job with a deadline would otherwise be unkillable
// mid-execute: a spinning PAL could blow through its deadline unchecked.
const defaultDeadlineQuantum = 100 * time.Microsecond

// execute drives the admitted job through execute → quote → verify. The
// machine lock is held only for the phases that touch the simulated
// platform; verification runs lock-free so it overlaps other jobs'
// execution. Terminal metrics counters are deliver's job, not execute's.
func (s *Service) execute(m *machine, t *task, p *core.PAL, res *JobResult) error {
	res.Machine = m.id
	sys := m.sys
	rctx := t.root.Context()

	// EXECUTE — under the machine lock (the TPM-arbitration stand-in).
	arbStart := time.Now()
	m.mu.Lock()
	res.ArbWait = time.Since(arbStart)
	s.metrics.observeArb(res.ArbWait)
	s.tracer.RecordSpan(rctx, "arb_wait", "pipeline", arbStart, res.ArbWait)
	if m.chaos != nil {
		// A wedged replica sits on its lock making no progress: admission
		// probes (TryLock) fail over to other replicas and arb waits grow —
		// the same symptoms a stuck machine shows in production. Skew
		// pushes the replica's virtual clock ahead before the stopwatch
		// starts, so drift shows up in absolute timelines, not latencies.
		if d := m.chaos.Wedge(); d > 0 {
			time.Sleep(d)
		}
		if d := m.chaos.Skew(); d > 0 {
			sys.Machine.Clock.Skew(d)
		}
	}
	// The execute span is swapped in as the machine's ambient context so
	// the sksm slice/instruction spans (and the TPM commands under them)
	// nest inside it. Swaps happen under m.mu, which serializes all
	// simulator access.
	execSp := s.tracer.StartSpan(rctx, "execute", "pipeline")
	if execSp != nil {
		execSp.Virt(sys.Machine.Clock.Now())
	}
	prevCtx := m.scope.Swap(execSp.Context())
	m.pending-- // the reservation becomes a real SLAUNCH allocation now
	quantum := s.cfg.Quantum
	if quantum <= 0 && !t.deadline.IsZero() {
		quantum = defaultDeadlineQuantum
	}
	secb, err := sys.SKSM.NewSECB(p.Image, 1, quantum)
	if err != nil {
		m.scope.Swap(prevCtx)
		execSp.Attr("error", err.Error()).EndVirt(sys.Machine.Clock.Now())
		s.metrics.releaseOne()
		m.mu.Unlock()
		s.wakeAdmission()
		s.noteMachineFault(m)
		return fmt.Errorf("palsvc: allocating SECB: %w", err)
	}
	secb.Input = t.job.Input
	if s.cfg.Flight != nil || s.cfg.Audit != nil {
		// Stamp the job identity for crash bundles and audit events;
		// cleared below before the lock drops so a later unrelated SKILL
		// is not misattributed. Tenant falls back to the job name, same as
		// the SLO tracker's attribution.
		ten := t.job.Tenant
		if ten == "" {
			ten = t.job.Name
		}
		sys.SKSM.Job = prof.JobInfo{Tenant: ten, Trace: rctx.Trace, Machine: m.id}
	}
	sw := sim.StartStopwatch(sys.Machine.Clock)
	runErr := s.runBounded(m, t, secb)
	res.Execute = sw.Elapsed()
	s.metrics.observeExec(res.Execute)
	if s.cfg.Profiler != nil {
		s.cfg.Profiler.JobDone(t.job.Name, secb.Measurement, res.Execute, runErr != nil)
	}
	if runErr != nil {
		// Reclaim whatever the failed run left behind. A faulted or
		// deadline-expired PAL sits suspended holding its register: SKILL
		// reclaims the register (kill marker extended, §5.5) and Release
		// the pages. A PAL whose SLAUNCH never succeeded is still in
		// Start: it holds no register, only pages.
		switch secb.State {
		case sksm.StateSuspend:
			if kerr := sys.SKSM.SKILL(secb); kerr == nil {
				_ = sys.SKSM.Release(secb)
			}
		case sksm.StateStart:
			_ = sys.SKSM.Release(secb)
		}
		sys.SKSM.Job = prof.JobInfo{}
		m.scope.Swap(prevCtx)
		execSp.Attr("error", runErr.Error()).EndVirt(sys.Machine.Clock.Now())
		s.metrics.releaseOne()
		m.mu.Unlock()
		s.wakeAdmission()
		if errors.Is(runErr, ErrDeadlineExceeded) {
			// The job ran out of budget; the machine did nothing wrong.
			return runErr
		}
		s.noteMachineFault(m)
		return fmt.Errorf("palsvc: PAL execution: %w", runErr)
	}
	res.Output = secb.Output
	res.ExitStatus = secb.ExitStatus
	res.Slices = secb.Slices
	res.Resumes = secb.Resumes
	sys.SKSM.Job = prof.JobInfo{}
	m.scope.Swap(prevCtx)
	if execSp != nil {
		execSp.Attr("slices", fmt.Sprint(secb.Slices)).EndVirt(sys.Machine.Clock.Now())
	}
	m.mu.Unlock()
	// The register is now parked in the Quote state: this job still
	// occupies its sePCR until untrusted code quotes or frees it
	// (§5.4.3) — that occupancy is exactly what admission counts.

	if t.job.NoAttest {
		err := s.freeUnquoted(m, t, secb)
		if err != nil {
			s.noteMachineFault(m)
			return fmt.Errorf("palsvc: freeing sePCR: %w", err)
		}
		s.noteMachineOK(m)
		return nil
	}

	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		// Expired between execute and quote. The register must not stay
		// parked in Quote forever: free it unquoted, exactly like the
		// NoAttest path, so the bank recovers even though the job lost.
		ferr := s.freeUnquoted(m, t, secb)
		if ferr != nil {
			s.noteMachineFault(m)
			return fmt.Errorf("palsvc: freeing sePCR after deadline: %w", ferr)
		}
		return fmt.Errorf("%w: before quote", ErrDeadlineExceeded)
	}

	// QUOTE + VERIFY: hand the parked register to the machine's batcher
	// and verify the returned inclusion proof (batcher.go).
	return s.quoteBatched(m, t, p, res, secb)
}

// runBounded drives the PAL to completion like sksm.RunToCompletion, but
// for deadline-bearing jobs it rechecks the wall clock at every slice
// boundary, so ErrDeadlineExceeded fires mid-execute instead of only at
// the pipeline seams. The caller holds m.mu.
func (s *Service) runBounded(m *machine, t *task, secb *sksm.SECB) error {
	c := m.sys.PALCore()
	if t.deadline.IsZero() {
		return m.sys.SKSM.RunToCompletion(c, secb)
	}
	for secb.State != sksm.StateDone {
		if time.Now().After(t.deadline) {
			return fmt.Errorf("%w: mid-execute after %d slices", ErrDeadlineExceeded, secb.Slices)
		}
		if _, err := m.sys.SKSM.RunSlice(c, secb); err != nil {
			return err
		}
	}
	return nil
}

// freeUnquoted returns a finished-but-unattested PAL's resources: the
// sePCR via TPM_SEPCR_Free (§5.4.3), the SECB pages via Release, and the
// job's admission slot. Used by NoAttest jobs and by deadline expiries
// between execute and quote.
func (s *Service) freeUnquoted(m *machine, t *task, secb *sksm.SECB) error {
	m.mu.Lock()
	prev := m.scope.Swap(t.root.Context())
	err := m.sys.Machine.TPM().FreeSePCR(secb.SePCRHandle)
	if rerr := m.sys.SKSM.Release(secb); err == nil {
		err = rerr
	}
	m.scope.Swap(prev)
	s.metrics.releaseOne()
	m.mu.Unlock()
	s.wakeAdmission()
	return err
}

// noteMachineFault records one machine-attributable fault against m and
// trips it into quarantine after SupervisorPolicy.QuarantineAfter
// consecutive ones. Injected chaos faults are deliberately
// indistinguishable from organic ones here: the supervisor reacts to
// symptoms, not causes.
func (s *Service) noteMachineFault(m *machine) {
	p := s.cfg.Supervisor
	if p.QuarantineAfter <= 0 {
		return
	}
	m.supMu.Lock()
	defer m.supMu.Unlock()
	m.consecFaults++
	if m.consecFaults >= p.QuarantineAfter {
		m.consecFaults = 0
		m.quarantinedUntil = time.Now().Add(p.QuarantineFor)
		s.metrics.incQuarantine()
	}
}

// noteMachineOK resets m's consecutive-fault streak after a clean pass
// through the machine-touching phases.
func (s *Service) noteMachineOK(m *machine) {
	if s.cfg.Supervisor.QuarantineAfter <= 0 {
		return
	}
	m.supMu.Lock()
	m.consecFaults = 0
	m.supMu.Unlock()
}

// backoff sleeps the capped, jittered delay that precedes attempt+1. It
// returns false — without sleeping — when the job's deadline cannot cover
// the delay: failing fast with the last real error beats burning the rest
// of the budget asleep and failing with ErrDeadlineExceeded anyway.
func (s *Service) backoff(attempt int, deadline time.Time) bool {
	p := s.cfg.Retry
	base, ceil := p.BaseBackoff, p.MaxBackoff
	if base <= 0 {
		base = 250 * time.Microsecond
	}
	if ceil <= 0 {
		ceil = 5 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d <= 0 || d > ceil {
		d = ceil
	}
	// Up to 50% jitter decorrelates retry storms; it comes from the
	// service's seeded RNG so same-seed chaos runs back off identically.
	s.jitterMu.Lock()
	d += time.Duration(s.jitter.Intn(int(d/2) + 1))
	s.jitterMu.Unlock()
	if !deadline.IsZero() && time.Until(deadline) <= d {
		return false
	}
	time.Sleep(d)
	return true
}

// Health is the non-blocking admission-relevant snapshot behind the wire
// protocol's health op. It deliberately uses TryLock the same way admission
// probes do: a machine whose lock is held (a PAL executing or quoting, or a
// wedged replica sitting on it) contributes zero free registers rather than
// stalling the probe — which is exactly the capacity signal a router needs
// from a sick node.
func (s *Service) Health() HealthInfo {
	h := HealthInfo{
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Bank:       s.bank,
		Replicas:   len(s.machines),
	}
	now := time.Now()
	for _, m := range s.machines {
		if m.quarantined(now) {
			h.QuarantinedReplicas++
			continue
		}
		if m.mu.TryLock() {
			if free := m.sys.SKSM.FreeSePCRs() - m.pending; free > 0 {
				h.FreeSePCRs += free
			}
			m.mu.Unlock()
		}
	}
	h.Shedding = len(s.machines) > 0 && h.QuarantinedReplicas == len(s.machines)
	return h
}

// LeakCheck verifies, once all submitted jobs have drained, that every
// resource the service hands out came back: all sePCRs Free in every
// replica's bank and every kernel page returned to the allocator. The soak
// test runs it after thousands of fault-injected jobs; a non-nil error
// means some failure path leaked.
func (s *Service) LeakCheck() error {
	for _, m := range s.machines {
		m.mu.Lock()
		free := m.sys.SKSM.FreeSePCRs()
		total := m.sys.Machine.TPM().NumSePCRs()
		pages := m.sys.SKSM.Kernel.Alloc.FreePages()
		pending := m.pending
		m.mu.Unlock()
		if free != total {
			return fmt.Errorf("palsvc: machine %d leaked sePCRs: %d free of %d", m.id, free, total)
		}
		if pages != m.basePages {
			return fmt.Errorf("palsvc: machine %d leaked pages: %d free, expected %d", m.id, pages, m.basePages)
		}
		if pending != 0 {
			return fmt.Errorf("palsvc: machine %d has %d stuck reservations", m.id, pending)
		}
	}
	return nil
}
