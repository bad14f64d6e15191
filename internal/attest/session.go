package attest

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"sync/atomic"

	"minimaltcb/internal/evidence"
)

// This file is the verifier's side of batched and sessionful attestation
// (evidence/batch.go). A batch is authenticated once, then its entries are
// checked one by one:
//
//   - Verifier.AuthenticateBatch is the stateless path: the full AIK
//     certificate chain plus the batch's one RSA signature over the Merkle
//     root, shared by all N entries.
//
//   - Session.AuthenticateBatch is the resumption path. NewSession
//     verifies the cert chain and the TPM's signed session grant ONCE,
//     then holds the grant's HMAC key; every later batch is authenticated
//     by its session ID and one HMAC — no RSA at all on the steady-state
//     path. The session key's authenticity rests entirely on the grant
//     signature checked at open time, which is why a session must never
//     accept a batch whose MAC fails (ErrStaleSession): a stale or
//     cross-session MAC is indistinguishable from a forgery.
//
// Both return a *Batch whose VerifyEntry checks one job's inclusion proof
// against the authenticated root, replays its log, approves the PAL and
// consumes the job's nonce last.

// Batch verification errors.
var (
	ErrBadProof     = errors.New("attest: batch inclusion proof invalid")
	ErrStaleSession = errors.New("attest: session MAC invalid or stale")
	ErrWrongSession = errors.New("attest: batch bound to a different session")
	ErrBadGrant     = errors.New("attest: session grant signature invalid")
)

// Batch is a batch quote whose root and count were authenticated, by AIK
// signature or session MAC. It holds its own copy of the quote's header,
// so changing the caller's quote afterwards cannot change what was
// authenticated; entries are checked against it one at a time.
type Batch struct {
	v *Verifier
	q evidence.BatchQuote
}

// Size is the number of entries the authenticated root covers.
func (b *Batch) Size() int { return b.q.Count }

// VerifyEntry validates entry i of the batch: per-job nonce binding,
// inclusion proof against the authenticated root, log replay, SKILL marker
// and PAL approval. The per-job nonce is consumed last, so a failed
// verification never burns it. It returns the approved PAL's name.
func (b *Batch) VerifyEntry(i int, log Log, nonce []byte) (string, error) {
	if i < 0 || i >= len(b.q.Entries) {
		return "", fmt.Errorf("attest: batch entry %d out of range (batch of %d)", i, len(b.q.Entries))
	}
	e := &b.q.Entries[i]
	if string(e.Nonce) != string(nonce) {
		return "", ErrWrongNonce
	}
	if !evidence.VerifyBatchInclusion(b.q.Root, b.q.Count, e) {
		return "", ErrBadProof
	}
	name, err := b.v.approveSePCRLog(log, e.Composite)
	if err != nil {
		return "", err
	}
	if err := b.v.consumeNonce(nonce); err != nil {
		return "", err
	}
	return name, nil
}

// approveSePCRLog replays a sePCR event log against a quoted composite and
// returns the approved PAL name.
func (v *Verifier) approveSePCRLog(log Log, composite evidence.Digest) (string, error) {
	var value evidence.Digest
	for _, e := range log {
		value = evidence.ExtendDigest(value, e.Measurement)
	}
	if value != composite {
		return "", ErrLogMismatch
	}
	// A killed PAL's register contains the SKILL marker; its chain will
	// not match an approved-PAL-only log, but defend explicitly anyway.
	for _, e := range log {
		if e.Measurement == evidence.SKillMarker {
			return "", fmt.Errorf("%w: PAL was killed (SKILL marker in log)", ErrUnknownPAL)
		}
	}
	// The root of a sePCR chain is the PAL measurement SLAUNCH extended
	// at allocation; it must be approved code.
	if len(log) == 0 {
		return "", ErrUnknownPAL
	}
	name, ok := v.lookup(log[0].Measurement)
	if !ok {
		return "", ErrUnknownPAL
	}
	return name, nil
}

// AuthenticateBatch checks a batch quote without session state: the AIK
// certificate chain, the batch's shape, and its one RSA signature over the
// Merkle root. Its entries are then checked with Batch.VerifyEntry.
func (v *Verifier) AuthenticateBatch(cert *AIKCert, q *evidence.BatchQuote) (*Batch, error) {
	if err := VerifyCert(v.caPub, cert); err != nil {
		return nil, err
	}
	if err := evidence.VerifyBatchSignature(cert.AIK, q); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return &Batch{v: v, q: *q}, nil
}

// VerifyBatchedQuote validates one entry of a batch quote without session
// state: AuthenticateBatch, then Batch.VerifyEntry. A caller with several
// entries of one batch authenticates once and verifies each entry instead.
func (v *Verifier) VerifyBatchedQuote(cert *AIKCert, q *evidence.BatchQuote, entry int, log Log, nonce []byte) (string, error) {
	b, err := v.AuthenticateBatch(cert, q)
	if err != nil {
		return "", err
	}
	return b.VerifyEntry(entry, log, nonce)
}

// Session is a resumed verification channel to one platform: the AIK cert
// chain and the TPM's session grant were verified once at open time, and
// every batch since is authenticated by HMAC under the grant key. A
// Session is safe for concurrent use.
type Session struct {
	v    *Verifier
	cert *AIKCert
	id   uint64
	key  evidence.Digest
	// batches counts successful authentications.
	batches atomic.Uint64
}

// NewSession opens a verification session from a TPM session grant: it
// verifies the AIK certificate chain (the expensive once-per-session
// work), checks the grant signature binding {ID, key} to the AIK and to
// the caller's nonce, and consumes the nonce — last, so a bad grant
// doesn't burn it. The returned session trusts grant.Key for HMAC
// authentication of batches.
func (v *Verifier) NewSession(cert *AIKCert, grant *evidence.QuoteSession, nonce []byte) (*Session, error) {
	if grant == nil {
		return nil, errors.New("attest: nil session grant")
	}
	if err := VerifyCert(v.caPub, cert); err != nil {
		return nil, err
	}
	if string(grant.Nonce) != string(nonce) {
		return nil, ErrWrongNonce
	}
	if err := evidence.VerifySessionGrant(cert.AIK, grant); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadGrant, err)
	}
	if err := v.consumeNonce(nonce); err != nil {
		return nil, err
	}
	return &Session{v: v, cert: cert, id: grant.ID, key: grant.Key}, nil
}

// PlatformID names the platform the session is bound to.
func (s *Session) PlatformID() string { return s.cert.PlatformID }

// Batches reports how many batches the session has authenticated.
func (s *Session) Batches() uint64 { return s.batches.Load() }

// AuthenticateBatch checks a batch quote over the session's HMAC channel,
// with no RSA: the batch must be bound to this session (SessionID), have a
// valid shape, and carry a valid MAC under the session key over the
// batch's signed digest. Its AIK signature is not consulted.
func (s *Session) AuthenticateBatch(q *evidence.BatchQuote) (*Batch, error) {
	if q == nil {
		return nil, errors.New("attest: nil batch quote")
	}
	if q.SessionID != s.id {
		return nil, ErrWrongSession
	}
	if err := evidence.CheckBatch(q); err != nil {
		return nil, err
	}
	signed := evidence.BatchSignedDigest(q.Root, q.Count, q.Nonce)
	if !hmac.Equal(q.SessionMAC, evidence.SessionMAC(s.key, signed)) {
		return nil, ErrStaleSession
	}
	s.batches.Add(1)
	return &Batch{v: s.v, q: *q}, nil
}

// VerifyBatchedQuote validates one entry of a batch quote over the
// session's HMAC channel: AuthenticateBatch, then Batch.VerifyEntry.
func (s *Session) VerifyBatchedQuote(q *evidence.BatchQuote, entry int, log Log, nonce []byte) (string, error) {
	b, err := s.AuthenticateBatch(q)
	if err != nil {
		return "", err
	}
	return b.VerifyEntry(entry, log, nonce)
}
