package attest

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"minimaltcb/internal/evidence"
)

// This file implements the wire protocol between the attesting platform
// and the external verifier of §3.1. The verifier connects, sends a fresh
// challenge, and receives the evidence bundle — AIK certificate, quote,
// and measurement log — that VerifyPALQuote / AuthenticateBatch consume.
// Everything security-relevant is inside the signed quote; the transport
// needs no secrecy, matching the paper's trust model (the adversary
// "can monitor all network traffic").

// Challenge is the verifier's request.
type Challenge struct {
	// Nonce must be fresh per request; the verifier rejects replays.
	Nonce []byte
	// SePCR selects secure-execution-PCR attestation instead of a
	// dynamic PCR quote (recommended-hardware platforms). sePCRs are
	// attested only by batch quotes, so SePCR without Batch is refused.
	SePCR bool
	// TraceID and ParentSpan carry the verifier's propagated trace
	// context (the compact obs.TraceID string form), so the platform's
	// challenge span nests in the caller's distributed trace instead of
	// rooting an orphan. Empty means untraced. Gob matches struct fields
	// by name, so old peers on either side simply ignore them.
	TraceID    string
	ParentSpan uint64

	// Batch, when set, asks for ONE batched quote (tpm.QuoteSePCRBatch)
	// covering Handles, with JobNonces[i] bound into Handles[i]'s leaf;
	// Nonce becomes the batch-level nonce. One register is a batch of
	// one. OpenSession additionally asks the platform to open a quote
	// session, return its grant, and MAC the batch under it. Platforms
	// that predate batching ignore all three (gob matches by name) — the
	// verifier detects that by the missing Evidence.Batch.
	Batch       bool
	Handles     []int
	JobNonces   [][]byte
	OpenSession bool
}

// Evidence is the platform's response. Exactly one of Quote (a dynamic
// PCR challenge) or Batch (an sePCR challenge) is set.
type Evidence struct {
	Cert  *AIKCert
	Quote *evidence.Quote
	Log   Log

	// Batch carries the batched quote, Logs the per-entry event logs
	// (Logs[i] belongs to Batch.Entries[i]), and Grant the session grant
	// when the challenge asked to open one. Old verifiers ignore them.
	Batch *evidence.BatchQuote
	Logs  []Log
	Grant *evidence.QuoteSession
}

// Responder produces evidence for a challenge; the platform side supplies
// it (typically wrapping TPM quote generation and its event log).
type Responder func(ch Challenge) (*Evidence, error)

// DefaultTimeout bounds one remote exchange (challenge in, evidence out)
// unless overridden with WithTimeout.
const DefaultTimeout = 10 * time.Second

// TimeoutError reports that a remote attestation exchange exceeded its
// deadline. It wraps the underlying net error and satisfies
// net.Error-style Timeout() checks, so callers can distinguish a stalled
// peer from a protocol failure.
type TimeoutError struct {
	// Op names the phase that timed out ("reading challenge", ...).
	Op string
	// Limit is the deadline that was exceeded.
	Limit time.Duration
	// Err is the underlying error.
	Err error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("attest: %s timed out after %v: %v", e.Op, e.Limit, e.Err)
}

// Unwrap exposes the underlying net error to errors.Is/As.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Timeout reports true, mirroring net.Error.
func (e *TimeoutError) Timeout() bool { return true }

// Option configures a remote exchange.
type Option func(*exchangeConfig)

type exchangeConfig struct {
	timeout    time.Duration
	traceID    string
	parentSpan uint64
}

// WithTimeout bounds the whole exchange on one connection. d <= 0 disables
// the deadline entirely (the exchange then trusts the peer to make
// progress). Without this option, DefaultTimeout applies.
func WithTimeout(d time.Duration) Option {
	return func(c *exchangeConfig) { c.timeout = d }
}

// WithTraceContext propagates the caller's trace context on the outgoing
// challenge (verifier side: Request, ChallengeAndVerify), so the
// responding platform's spans join the caller's trace. traceID is the
// compact obs.TraceID form; parentSpan the caller-side span ID the
// platform's spans nest under.
func WithTraceContext(traceID string, parentSpan uint64) Option {
	return func(c *exchangeConfig) { c.traceID, c.parentSpan = traceID, parentSpan }
}

func newExchangeConfig(opts []Option) exchangeConfig {
	cfg := exchangeConfig{timeout: DefaultTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// wrapTimeout converts deadline-induced failures into *TimeoutError while
// passing every other error through untouched.
func wrapTimeout(op string, limit time.Duration, err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: op, Limit: limit, Err: err}
	}
	return err
}

// ServeOne answers exactly one challenge on conn. It is the unit Serve
// loops over and what tests drive directly over a net.Pipe. The exchange
// must complete within the configured timeout (DefaultTimeout unless
// overridden), so a slow-loris client that connects and never sends a
// complete challenge is cut off with a *TimeoutError.
func ServeOne(conn net.Conn, respond Responder, opts ...Option) error {
	cfg := newExchangeConfig(opts)
	defer conn.Close()
	var deadline time.Time
	if cfg.timeout > 0 {
		// Wall-clock (not virtual) deadline: the peer is a real socket.
		deadline = time.Now().Add(cfg.timeout)
		_ = conn.SetDeadline(deadline)
	}
	var ch Challenge
	dec := gob.NewDecoder(conn)
	if err := dec.Decode(&ch); err != nil {
		return wrapTimeout("reading challenge", cfg.timeout,
			fmt.Errorf("attest: decoding challenge: %w", err))
	}
	if len(ch.Nonce) == 0 || len(ch.Nonce) > 256 {
		return errors.New("attest: refusing challenge with absent or oversized nonce")
	}
	if ch.SePCR && !ch.Batch {
		// sePCRs are attested only as batches (one register is a batch of
		// one); refuse before the platform could consume a register.
		return errors.New("attest: refusing sePCR challenge without Batch")
	}
	if ch.Batch {
		// A malformed batch challenge is rejected BEFORE the platform is
		// consulted: batch assembly must not be able to fail mid-flight
		// with registers already consumed, and the verifier's nonces must
		// stay unburned (they are only consumed against evidence that
		// verifies). tpm.QuoteSePCRBatch upholds the same contract below
		// us by validating every register before mutating any.
		if len(ch.Handles) == 0 {
			return errors.New("attest: refusing batch challenge with no handles")
		}
		if len(ch.Handles) != len(ch.JobNonces) {
			return fmt.Errorf("attest: batch challenge with %d handles but %d job nonces",
				len(ch.Handles), len(ch.JobNonces))
		}
		for _, n := range ch.JobNonces {
			if len(n) == 0 || len(n) > 256 {
				return errors.New("attest: refusing batch challenge with absent or oversized job nonce")
			}
		}
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		// The deadline expired before the platform was consulted (a
		// slow-read client can burn the whole budget on the challenge).
		// Fail WITHOUT calling respond: quoting an sePCR frees it, so
		// producing evidence that can no longer be delivered would leave
		// the register unattestable forever.
		return &TimeoutError{Op: "awaiting platform", Limit: cfg.timeout, Err: os.ErrDeadlineExceeded}
	}
	ev, err := respond(ch)
	if err != nil {
		// Encode an empty evidence so the peer gets a definite answer.
		_ = gob.NewEncoder(conn).Encode(&Evidence{})
		return err
	}
	return wrapTimeout("sending evidence", cfg.timeout, gob.NewEncoder(conn).Encode(ev))
}

// Serve accepts connections until the listener closes, answering one
// challenge per connection. Each connection is handled on its own
// goroutine — with a panic-safe close — so a slow or stalled client cannot
// block the accept loop. The responder itself is serialized with a mutex:
// it typically fronts a single-threaded simulated platform (see
// internal/sim), so only the network I/O runs concurrently.
func Serve(l net.Listener, respond Responder, opts ...Option) error {
	cfg := newExchangeConfig(opts)
	var mu sync.Mutex
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		accepted := time.Now()
		go func(c net.Conn) {
			defer func() {
				if r := recover(); r != nil {
					_ = c.Close()
				}
			}()
			// The serial responder is built per connection so it can
			// re-check this connection's budget after the mutex wait:
			// a stalled exchange ahead of us can eat the whole timeout,
			// and quoting frees the sePCR — consuming one for a
			// connection whose peer has already been cut off by its
			// deadline would leave that register unattestable forever.
			serial := func(ch Challenge) (*Evidence, error) {
				mu.Lock()
				defer mu.Unlock()
				if cfg.timeout > 0 && time.Since(accepted) > cfg.timeout {
					return nil, &TimeoutError{Op: "awaiting platform", Limit: cfg.timeout, Err: os.ErrDeadlineExceeded}
				}
				return respond(ch)
			}
			_ = ServeOne(c, serial, opts...)
		}(conn)
	}
}

// Request performs the verifier side of one exchange on conn.
func Request(conn net.Conn, ch Challenge, opts ...Option) (*Evidence, error) {
	cfg := newExchangeConfig(opts)
	if cfg.traceID != "" {
		ch.TraceID, ch.ParentSpan = cfg.traceID, cfg.parentSpan
	}
	defer conn.Close()
	if cfg.timeout > 0 {
		// Wall-clock (not virtual) deadline: the peer is a real socket.
		_ = conn.SetDeadline(time.Now().Add(cfg.timeout))
	}
	if err := gob.NewEncoder(conn).Encode(&ch); err != nil {
		return nil, wrapTimeout("sending challenge", cfg.timeout,
			fmt.Errorf("attest: sending challenge: %w", err))
	}
	var ev Evidence
	if err := gob.NewDecoder(conn).Decode(&ev); err != nil {
		return nil, wrapTimeout("reading evidence", cfg.timeout,
			fmt.Errorf("attest: decoding evidence: %w", err))
	}
	if ev.Cert == nil || (ev.Quote == nil && ev.Batch == nil) {
		return nil, errors.New("attest: platform returned no evidence")
	}
	if ch.Batch && ev.Batch == nil {
		// A platform that predates batching ignored the batch fields;
		// surface the downgrade rather than mis-verifying.
		return nil, errors.New("attest: platform does not support batched quotes")
	}
	return &ev, nil
}

// ChallengeAndVerify runs the complete verifier flow for a dynamic PCR
// quote over conn: send a challenge, receive evidence, and validate it
// against this verifier's trust anchors. It returns the approved PAL's
// name. sePCRs are challenged with ChallengeAndVerifyBatch.
func (v *Verifier) ChallengeAndVerify(conn net.Conn, nonce []byte, opts ...Option) (string, error) {
	ev, err := Request(conn, Challenge{Nonce: nonce}, opts...)
	if err != nil {
		return "", err
	}
	return v.VerifyPALQuote(ev.Cert, ev.Quote, ev.Log, nonce)
}

// ChallengeAndVerifyBatch runs one batched exchange over conn: a single
// challenge covering every handle, one signature (and network round trip)
// for the whole set, then per-entry verification against this verifier's
// trust anchors. jobNonces[i] is the fresh per-job nonce for handles[i].
// The batch is authenticated once — over the session's HMAC channel when
// session is non-nil, by its RSA signature otherwise — and then each entry
// is checked against it. It returns the approved PAL names in handle
// order; on ANY entry failing, no result and the first error (per-job
// nonces of entries that verified before the failure are consumed — each
// entry is an independent attestation).
func (v *Verifier) ChallengeAndVerifyBatch(conn net.Conn, session *Session, nonce []byte, handles []int, jobNonces [][]byte, opts ...Option) ([]string, error) {
	ev, err := Request(conn, Challenge{
		Nonce:     nonce,
		SePCR:     true,
		Batch:     true,
		Handles:   handles,
		JobNonces: jobNonces,
	}, opts...)
	if err != nil {
		return nil, err
	}
	if len(ev.Logs) != len(handles) {
		return nil, fmt.Errorf("attest: batch evidence with %d logs for %d handles", len(ev.Logs), len(handles))
	}
	var b *Batch
	if session != nil {
		b, err = session.AuthenticateBatch(ev.Batch)
	} else {
		b, err = v.AuthenticateBatch(ev.Cert, ev.Batch)
	}
	if err != nil {
		return nil, fmt.Errorf("attest: batch: %w", err)
	}
	names := make([]string, len(handles))
	for i := range handles {
		if names[i], err = b.VerifyEntry(i, ev.Logs[i], jobNonces[i]); err != nil {
			return nil, fmt.Errorf("attest: batch entry %d: %w", i, err)
		}
	}
	return names, nil
}

// OpenRemoteSession opens a verification session against a platform over
// conn: it challenges with OpenSession set, expects a session grant in the
// evidence, and validates grant + certificate chain once (NewSession). The
// evidence's batch, if any, is NOT verified here — callers hold the
// returned session and verify batches as they arrive.
func (v *Verifier) OpenRemoteSession(conn net.Conn, nonce []byte, handles []int, jobNonces [][]byte, opts ...Option) (*Session, *Evidence, error) {
	ev, err := Request(conn, Challenge{
		Nonce:       nonce,
		SePCR:       true,
		Batch:       true,
		Handles:     handles,
		JobNonces:   jobNonces,
		OpenSession: true,
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	if ev.Grant == nil {
		return nil, nil, errors.New("attest: platform did not return a session grant")
	}
	s, err := v.NewSession(ev.Cert, ev.Grant, nonce)
	if err != nil {
		return nil, nil, err
	}
	return s, ev, nil
}
