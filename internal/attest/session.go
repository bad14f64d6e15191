package attest

import (
	"crypto/hmac"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"

	"minimaltcb/internal/tpm"
)

// This file is the verifier's side of batched and sessionful attestation
// (tpm/batch.go). Two layers:
//
//   - VerifyBatchedQuote on the Verifier: the stateless path. Full AIK
//     cert chain plus the batch's one RSA signature, then the caller's
//     inclusion proof. Every batch pays one RSA verify, amortized over its
//     N entries.
//
//   - Session: the resumption path. NewSession verifies the cert chain
//     and the TPM's signed session grant ONCE, then holds the grant's
//     HMAC key; VerifyBatchedQuote on the session authenticates each
//     subsequent batch by HMAC alone — no RSA at all on the steady-state
//     path. The session key's authenticity rests entirely on the grant
//     signature checked at open time, which is why a session must never
//     accept a batch whose MAC fails (ErrStaleSession): a stale or
//     cross-session MAC is indistinguishable from a forgery.

// Batch verification errors.
var (
	ErrBadProof     = errors.New("attest: batch inclusion proof invalid")
	ErrStaleSession = errors.New("attest: session MAC invalid or stale")
	ErrWrongSession = errors.New("attest: batch bound to a different session")
	ErrBadGrant     = errors.New("attest: session grant signature invalid")
)

// verifyBatchEntry validates one job's slice of a batch quote against the
// (already authenticated) root: per-job nonce binding, inclusion proof,
// log replay, SKILL marker, and PAL approval. It does NOT consume the
// nonce; callers do that last.
func (v *Verifier) verifyBatchEntry(q *tpm.BatchQuote, entry int, log Log, nonce []byte) (string, error) {
	if entry < 0 || entry >= len(q.Entries) {
		return "", fmt.Errorf("attest: batch entry %d out of range (batch of %d)", entry, len(q.Entries))
	}
	e := &q.Entries[entry]
	if string(e.Nonce) != string(nonce) {
		return "", ErrWrongNonce
	}
	leaf := tpm.BatchLeaf(e.Handle, e.Composite, e.Nonce)
	if !tpm.VerifyBatchInclusion(leaf, e.Index, q.Count, e.Proof, q.Root) {
		return "", ErrBadProof
	}
	return v.approveSePCRLog(log, e.Composite)
}

// approveSePCRLog replays a sePCR event log against a quoted composite and
// returns the approved PAL name — the common trailing half of the
// stateless and sessionful paths.
func (v *Verifier) approveSePCRLog(log Log, composite tpm.Digest) (string, error) {
	var value tpm.Digest
	for _, e := range log {
		value = tpm.ExtendDigest(value, e.Measurement)
	}
	if value != composite {
		return "", ErrLogMismatch
	}
	// A killed PAL's register contains the SKILL marker; its chain will
	// not match an approved-PAL-only log, but defend explicitly anyway.
	for _, e := range log {
		if e.Measurement == tpm.SKillMarker {
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

// VerifyBatchedQuote validates one entry of a batch quote without session
// state: AIK certificate chain, the batch's single RSA signature over the
// Merkle root, the entry's inclusion proof, and the sePCR log chain. The
// per-job nonce is consumed last, so a failed verification (including a
// batch that dies mid-assembly) never burns it.
func (v *Verifier) VerifyBatchedQuote(cert *AIKCert, q *tpm.BatchQuote, entry int, log Log, nonce []byte) (string, error) {
	if q == nil {
		return "", errors.New("attest: nil batch quote")
	}
	if err := v.verifyCertMemo(cert); err != nil {
		return "", err
	}
	if err := v.verifyBatchSigMemo(cert.AIK, q); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	name, err := v.verifyBatchEntry(q, entry, log, nonce)
	if err != nil {
		return "", err
	}
	if err := v.consumeNonce(nonce); err != nil {
		return "", err
	}
	return name, nil
}

// verifyBatchSigMemo is tpm.VerifyBatchQuote's signature check with the
// verifier's success memo: the root signature is shared by every entry of
// the batch, so N jobs verifying the same batch pay one RSA verify.
// Structural checks (count/entries agreement) are repeated per call; only
// the signature is memoized.
func (v *Verifier) verifyBatchSigMemo(aik *rsa.PublicKey, q *tpm.BatchQuote) error {
	if q.Count == 0 || len(q.Entries) == 0 {
		return tpm.ErrEmptyBatch
	}
	if len(q.Entries) != q.Count {
		return fmt.Errorf("attest: batch count %d but %d entries", q.Count, len(q.Entries))
	}
	signed := tpm.BatchSignedDigest(q.Root, q.Count, q.Nonce)
	key := string(aik.N.Bytes()) + "|batch|" + string(signed[:]) + "|" + string(q.Signature)
	v.mu.Lock()
	if v.verifiedSigs[key] {
		v.memoHits++
		v.mu.Unlock()
		return nil
	}
	v.memoMisses++
	v.mu.Unlock()
	if err := tpm.VerifyBatchSignature(aik, q); err != nil {
		return err
	}
	v.mu.Lock()
	if len(v.verifiedSigs) >= nonceWindow {
		v.verifiedSigs = map[string]bool{}
	}
	v.verifiedSigs[key] = true
	v.mu.Unlock()
	return nil
}

// Session is a resumed verification channel to one platform: the AIK cert
// chain and the TPM's session grant were verified once at open time, and
// every batch since is authenticated by HMAC under the grant key. A
// Session is safe for concurrent use.
type Session struct {
	v    *Verifier
	cert *AIKCert
	id   uint64
	key  tpm.Digest

	mu sync.Mutex
	// seen memoizes HMAC-authenticated batch digests (bounded like the
	// verifier's memo tables); batches counts distinct batches admitted,
	// for amortization accounting.
	seen    map[tpm.Digest]bool
	batches uint64
}

// NewSession opens a verification session from a TPM session grant: it
// verifies the AIK certificate chain (the expensive once-per-session
// work), checks the grant signature binding {ID, key} to the AIK and to
// the caller's nonce, and consumes the nonce — last, so a bad grant
// doesn't burn it. The returned session trusts grant.Key for HMAC
// authentication of batches.
func (v *Verifier) NewSession(cert *AIKCert, grant *tpm.QuoteSession, nonce []byte) (*Session, error) {
	if grant == nil {
		return nil, errors.New("attest: nil session grant")
	}
	if err := v.verifyCertMemo(cert); err != nil {
		return nil, err
	}
	if string(grant.Nonce) != string(nonce) {
		return nil, ErrWrongNonce
	}
	if err := tpm.VerifySessionGrant(cert.AIK, grant); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadGrant, err)
	}
	if err := v.consumeNonce(nonce); err != nil {
		return nil, err
	}
	return &Session{
		v:    v,
		cert: cert,
		id:   grant.ID,
		key:  grant.Key,
		seen: map[tpm.Digest]bool{},
	}, nil
}

// PlatformID names the platform the session is bound to.
func (s *Session) PlatformID() string { return s.cert.PlatformID }

// Batches reports how many distinct batches the session has authenticated.
func (s *Session) Batches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// VerifyBatchedQuote validates one entry of a batch quote over the
// session's HMAC channel: no RSA anywhere on this path. The batch must be
// bound to this session (SessionID) and carry a valid MAC under the
// session key over the batch's signed digest; then the entry verifies
// exactly as in the stateless path, with the per-job nonce consumed last.
func (s *Session) VerifyBatchedQuote(q *tpm.BatchQuote, entry int, log Log, nonce []byte) (string, error) {
	if q == nil {
		return "", errors.New("attest: nil batch quote")
	}
	if q.SessionID != s.id {
		return "", ErrWrongSession
	}
	if q.Count == 0 || len(q.Entries) == 0 {
		return "", tpm.ErrEmptyBatch
	}
	if len(q.Entries) != q.Count {
		return "", fmt.Errorf("attest: batch count %d but %d entries", q.Count, len(q.Entries))
	}
	signed := tpm.BatchSignedDigest(q.Root, q.Count, q.Nonce)
	s.mu.Lock()
	known := s.seen[signed]
	s.mu.Unlock()
	if !known {
		if !hmac.Equal(q.SessionMAC, tpm.SessionMAC(s.key, signed)) {
			return "", ErrStaleSession
		}
		s.mu.Lock()
		if !s.seen[signed] {
			if len(s.seen) >= nonceWindow {
				s.seen = map[tpm.Digest]bool{}
			}
			s.seen[signed] = true
			s.batches++
		}
		s.mu.Unlock()
	}
	name, err := s.v.verifyBatchEntry(q, entry, log, nonce)
	if err != nil {
		return "", err
	}
	if err := s.v.consumeNonce(nonce); err != nil {
		return "", err
	}
	return name, nil
}
