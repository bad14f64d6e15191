package palsvc

import (
	"fmt"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/core"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
)

// The pipelined quote batcher is the service's one attestation path: each
// machine runs one batcher goroutine, and workers whose PALs finished
// execution hand their parked registers to it. The batcher group-commits:
// it takes the first hand-off, drains whatever else is already waiting,
// up to Batch.MaxSize, and attests the lot with a single
// TPM_SEPCR_QuoteBatch over the Merkle root of every job's composite. The
// TPM command runs under the machine mutex (the §5.4.5 arbitration
// stand-in) and charges the AIK signature's virtual time there; jobs that
// finish executing while a batch is flushed form the next one, so batches
// grow with the load and no timer is involved. With MaxSize <= 1 every
// flush is a batch of one. Each worker gets back its leaf's inclusion
// proof against the authenticated root and verifies it lock-free, in
// parallel with other jobs.
//
// The batcher also owns the machine's quote session: the first flush
// opens one (one AIK signature over the grant and one verifier-side RSA
// verify), and every later batch rides the HMAC channel. The batcher
// authenticates each batch once, by that HMAC, before fanning it out.
// Nothing reads a session-bound batch's AIK signature, so the host never
// computes it, and the steady state performs no RSA on either side. A
// failed session open degrades to stateless authentication (the cert
// chain and the batch's AIK signature, which the host then computes with
// the lock dropped) and is retried on the next flush.

// BatchPolicy configures the per-machine quote batcher.
type BatchPolicy struct {
	// MaxSize bounds how many jobs one batch quote covers. Values <= 1
	// make every flush a batch of one: one signature per job.
	MaxSize int
}

// DefaultBatchPolicy is what palservd enables with -quote-batch.
func DefaultBatchPolicy() BatchPolicy {
	return BatchPolicy{MaxSize: 8}
}

// quoteItem is one job's hand-off from its worker to the machine's
// batcher: the register parked in Quote state, and a channel the batcher
// answers on once the batch is authenticated.
type quoteItem struct {
	t    *task
	secb *sksm.SECB
	res  *JobResult
	done chan quoteOutcome // buffered; the batcher never blocks here
}

// quoteOutcome is the batcher's answer: the authenticated batch plus this
// job's leaf position and nonce, or the batch-level error. auth is this
// job's even share of the wall time the batcher spent authenticating the
// batch, charged to its VERIFY stage.
type quoteOutcome struct {
	batch *attest.Batch
	idx   int
	nonce []byte
	auth  time.Duration
	err   error
}

// quoteBatched is the worker side of the batched QUOTE stage: hand the
// parked register to the machine's batcher, wait for the authenticated
// batch, then verify this job's inclusion proof lock-free. The caller has
// dropped m.mu; the register is in Quote state and still counted by
// admission until the batcher frees it.
func (s *Service) quoteBatched(m *machine, t *task, p *core.PAL, res *JobResult, secb *sksm.SECB) error {
	it := &quoteItem{t: t, secb: secb, res: res, done: make(chan quoteOutcome, 1)}
	m.batchCh <- it
	out := <-it.done
	if out.err != nil {
		return out.err
	}
	return s.verifyBatched(m, t, p, res, out)
}

// batcher is the per-machine collection loop. One goroutine per machine:
// it flushes each batch drainBatch hands it, and exits once the channel
// is closed (service shutdown) and empty.
func (s *Service) batcher(m *machine) {
	defer s.batchWg.Done()
	for {
		items, ok := drainBatch(m.batchCh, s.cfg.Batch.MaxSize)
		if !ok {
			return
		}
		s.flushBatch(m, items)
	}
}

// drainBatch is the group-commit rule. It blocks for the first hand-off,
// then takes whatever is already waiting on ch without blocking, up to
// maxSize items in all (at least one). It reports false once ch is
// closed and empty.
func drainBatch(ch <-chan *quoteItem, maxSize int) ([]*quoteItem, bool) {
	first, ok := <-ch
	if !ok {
		return nil, false
	}
	items := []*quoteItem{first}
	for len(items) < maxSize {
		select {
		case it, ok := <-ch:
			if !ok {
				return items, true
			}
			items = append(items, it)
		default:
			return items, true
		}
	}
	return items, true
}

// flushBatch attests one batch. Under a single machine-lock acquisition
// it lazily opens the quote session, runs one TPM_SEPCR_QuoteBatch command
// over every collected register and releases the SECBs. Then, with the
// lock dropped and admission woken, it authenticates the batch once and
// fans it back to the waiting workers. A batch bound to the session is
// authenticated by its MAC; only a stateless batch gets its AIK signature
// computed, before it is checked against the cert chain. The session
// opens inside the first job's quote span, so its TPM command joins the
// trace that waited for it; each job's quote span ends after the
// signature, if any, at the virtual time the command ended.
//
// On a failed command every register is freed unquoted (the TPM's
// injection point sits before anything is consumed, so failed batches
// leave registers parked in Quote) and every job gets the same retryable
// error — with its verifier nonce unconsumed, the supervisor retry can
// reuse it. A signing failure comes after the registers are Free, so the
// jobs fail with an error that is not retryable.
func (s *Service) flushBatch(m *machine, items []*quoteItem) {
	sys := m.sys
	n := len(items)
	nonces := make([][]byte, n)
	secbs := make([]*sksm.SECB, n)
	for i, it := range items {
		nonces[i] = s.nextNonce()
		secbs[i] = it.secb
	}
	batchNonce := s.nextNonce()

	m.mu.Lock()
	spans := make([]*obs.Span, n)
	for i, it := range items {
		spans[i] = s.tracer.StartSpan(it.t.root.Context(), "quote", "pipeline")
		if spans[i] != nil {
			spans[i].Virt(sys.Machine.Clock.Now())
			spans[i].Attr("batch", fmt.Sprint(n))
		}
	}
	prevCtx := m.scope.Swap(spans[0].Context())
	if m.session == nil {
		s.openQuoteSession(m)
	}
	sw := sim.StartStopwatch(sys.Machine.Clock)
	q, sign, qerr := sys.SKSM.QuoteBatchAfterExitUnsigned(secbs, nonces, batchNonce, m.sessID)
	elapsed := sw.Elapsed()
	if qerr != nil {
		for _, sb := range secbs {
			_ = sys.Machine.TPM().FreeSePCR(sb.SePCRHandle)
		}
	}
	var relErr error
	for _, sb := range secbs {
		if e := sys.SKSM.Release(sb); relErr == nil {
			relErr = e
		}
	}
	m.scope.Swap(prevCtx)
	virtEnd := sys.Machine.Clock.Now()
	for range items {
		s.metrics.releaseOne() // every register is Free again
	}
	m.mu.Unlock()
	for range items {
		s.wakeAdmission()
	}

	// The command has charged the AIK signature's virtual time either
	// way. A session-bound batch is authenticated by the MAC the command
	// computed, and nothing reads its signature, so the host computes the
	// signature, with the lock dropped, only for a stateless batch.
	bySession := qerr == nil && m.session != nil && q.SessionID != 0
	var serr error
	if qerr == nil && !bySession {
		signStart := time.Now()
		serr = sign()
		signDur := time.Since(signStart)
		for _, sp := range spans {
			s.tracer.RecordSpan(sp.Context(), "sign", "pipeline", signStart, signDur)
		}
	}
	for _, sp := range spans {
		if sp == nil {
			continue
		}
		if qerr != nil {
			sp.Attr("error", qerr.Error())
		} else if serr != nil {
			sp.Attr("error", serr.Error())
		}
		sp.EndVirt(virtEnd)
	}

	// The amortized accounting is the point: each job is charged its
	// even share of the one batch quote, and the histogram records what
	// a job actually paid — which is what the loadgen p99 measures.
	per := elapsed / time.Duration(n)
	for _, it := range items {
		it.res.QuoteGen = per
		s.metrics.observeQuote(per)
	}
	s.metrics.noteBatch(n, qerr == nil && serr == nil)

	var err error
	switch {
	case qerr != nil:
		err = fmt.Errorf("palsvc: batched quoting: %w", qerr)
	case serr != nil:
		// %v, not %w: the registers are consumed, so no retry can
		// quote them again.
		err = fmt.Errorf("palsvc: signing batch quote: %v", serr)
	case relErr != nil:
		err = fmt.Errorf("palsvc: releasing SECB: %w", relErr)
	}
	if err != nil {
		s.noteMachineFault(m)
		for _, it := range items {
			it.done <- quoteOutcome{err: err}
		}
		return
	}
	s.noteMachineOK(m)

	// Authenticate the batch once for all its jobs: over the session's
	// HMAC channel when the batch is bound to one, by the cert chain and
	// the AIK signature otherwise. A failure is the jobs' verification
	// failure, not the machine's.
	aStart := time.Now()
	var b *attest.Batch
	var aerr error
	if bySession {
		b, aerr = m.session.AuthenticateBatch(q)
	} else {
		b, aerr = sys.Verifier.AuthenticateBatch(sys.Cert, q)
	}
	if aerr != nil {
		err := fmt.Errorf("palsvc: quote verification: %w", aerr)
		for _, it := range items {
			it.done <- quoteOutcome{err: err}
		}
		return
	}
	auth := time.Since(aStart) / time.Duration(n)
	for i, it := range items {
		it.done <- quoteOutcome{batch: b, idx: i, nonce: nonces[i], auth: auth}
	}
}

// openQuoteSession establishes the machine's quote session: the TPM
// mints the HMAC key and signs the grant, the verifier checks it once.
// Called under m.mu from the batcher goroutine only. Failure (an
// injected TPM fault on the session-open command) leaves the machine
// sessionless — batches verify stateless, and the next flush retries.
func (s *Service) openQuoteSession(m *machine) {
	nonce := s.nextNonce()
	grant, err := m.sys.Machine.TPM().OpenQuoteSession(nonce)
	if err != nil {
		return
	}
	sess, err := m.sys.Verifier.NewSession(m.sys.Cert, grant, nonce)
	if err != nil {
		return
	}
	m.session = sess
	m.sessID = grant.ID
}

// verifyBatched is the VERIFY stage: check this job's inclusion proof
// against the batch root the batcher authenticated, replay the event log,
// and consume the per-job nonce. Pure hash work — no machine lock, so it
// overlaps other jobs' execution.
func (s *Service) verifyBatched(m *machine, t *task, p *core.PAL, res *JobResult, out quoteOutcome) error {
	sys := m.sys
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		return fmt.Errorf("%w: before verify", ErrDeadlineExceeded)
	}
	vStart := time.Now()
	verifySp := s.tracer.StartSpan(t.root.Context(), "verify", "pipeline")
	sys.Verifier.Approve(t.job.Name, p.Measurement())
	log := attest.Log{{PCR: -1, Description: t.job.Name, Measurement: p.Measurement()}}
	name, verr := out.batch.VerifyEntry(out.idx, log, out.nonce)
	res.Verify = out.auth + time.Since(vStart)
	s.metrics.observeVerify(res.Verify)
	if verr != nil {
		verifySp.Attr("error", verr.Error()).End()
		return fmt.Errorf("palsvc: quote verification: %w", verr)
	}
	verifySp.Attr("verified_as", name).Attr("batch", fmt.Sprint(out.batch.Size())).End()
	res.VerifiedAs = name
	res.BatchSize = out.batch.Size()
	return nil
}
