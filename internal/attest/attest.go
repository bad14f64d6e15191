// Package attest implements the external-verification side of the paper's
// execution model (§3.1): the Privacy CA that certifies a TPM's Attestation
// Identity Key, the event log a verifier replays, and the verifier itself,
// which decides — from a quote and nothing else on the platform — whether a
// specific PAL really executed under hardware protection.
//
// The package checks evidence through internal/evidence and never imports
// the TPM simulator, so a relying party trusts only this package, evidence,
// merkle and sim (for the CA's seeded key); `make tcb-loc` counts them.
package attest

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/sim"
)

// Event is one entry of the measurement log software keeps alongside the
// TPM's PCRs (§2.1.1).
type Event struct {
	// PCR is the register the measurement was extended into.
	PCR int
	// Description says what was measured ("PAL: rootkit-detector v3").
	Description string
	// Measurement is the SHA-1 the TPM received.
	Measurement evidence.Digest
}

// Log is an ordered measurement log.
type Log []Event

// Replay folds the log into final register values, starting from the
// post-late-launch state (dynamic PCRs zero). A verifier compares the
// result against quoted values: matching values prove the log is complete
// and untampered, because PCRs are append-only.
func (l Log) Replay() map[int]evidence.Digest {
	out := map[int]evidence.Digest{}
	for _, e := range l {
		out[e.PCR] = evidence.ExtendDigest(out[e.PCR], e.Measurement)
	}
	return out
}

// AIKCert binds an AIK public key to a platform identity, signed by a
// Privacy CA (§2.1.1).
type AIKCert struct {
	// PlatformID names the certified platform.
	PlatformID string
	// AIK is the certified public key.
	AIK *rsa.PublicKey
	// Signature is the CA's signature over the certificate body.
	Signature []byte
}

// certDigest is the signed message of an AIK certificate:
// SHA1("AIK-CERT" || len(id) || id || len(N) || N || E). PlatformID and N
// are length-framed, as BatchLeaf frames its fields; unframed, the CA's
// signature over ("plat", N) would also cover PlatformID "plat"+N[:1] with
// modulus N[1:].
func certDigest(platformID string, aik *rsa.PublicKey) []byte {
	n := aik.N.Bytes()
	b := make([]byte, 0, len("AIK-CERT")+4+len(platformID)+4+len(n)+4)
	b = append(b, "AIK-CERT"...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(platformID)))
	b = append(b, platformID...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(n)))
	b = append(b, n...)
	b = binary.BigEndian.AppendUint32(b, uint32(aik.E))
	d := sha1.Sum(b)
	return d[:]
}

// PrivacyCA issues AIK certificates. Verifiers trust its public key.
type PrivacyCA struct {
	key *rsa.PrivateKey
}

// CA keys are cached per (seed, bits): within a process the same seed
// always names the same CA, so independently constructed verifier and
// platform sides share a trust anchor. (rsa.GenerateKey consumes its
// randomness source unpredictably, so the cache — not the stream — is what
// provides the determinism.)
var (
	caCacheMu sync.Mutex
	caCache   = map[[2]uint64]*rsa.PrivateKey{}
)

// NewPrivacyCA creates a CA with a per-seed (process-lifetime) key pair.
func NewPrivacyCA(seed uint64, bits int) (*PrivacyCA, error) {
	if bits == 0 {
		bits = 2048
	}
	caCacheMu.Lock()
	defer caCacheMu.Unlock()
	ck := [2]uint64{seed, uint64(bits)}
	if key, ok := caCache[ck]; ok {
		return &PrivacyCA{key: key}, nil
	}
	key, err := rsa.GenerateKey(sim.NewRNG(seed^0x50434100), bits)
	if err != nil {
		return nil, fmt.Errorf("attest: CA key: %w", err)
	}
	caCache[ck] = key
	return &PrivacyCA{key: key}, nil
}

// Public returns the CA verification key.
func (ca *PrivacyCA) Public() *rsa.PublicKey { return &ca.key.PublicKey }

// Certify issues an AIK certificate. A real Privacy CA first validates the
// TPM's endorsement credentials; the simulation trusts its caller to hand
// it genuine AIKs, which is the same trust boundary.
func (ca *PrivacyCA) Certify(platformID string, aik *rsa.PublicKey) (*AIKCert, error) {
	sig, err := rsa.SignPKCS1v15(nil, ca.key, crypto.SHA1, certDigest(platformID, aik))
	if err != nil {
		return nil, fmt.Errorf("attest: certify: %w", err)
	}
	return &AIKCert{PlatformID: platformID, AIK: aik, Signature: sig}, nil
}

// VerifyCert checks an AIK certificate against a CA public key.
func VerifyCert(caPub *rsa.PublicKey, cert *AIKCert) error {
	if cert == nil || cert.AIK == nil {
		return errors.New("attest: nil certificate")
	}
	if err := rsa.VerifyPKCS1v15(caPub, crypto.SHA1,
		certDigest(cert.PlatformID, cert.AIK), cert.Signature); err != nil {
		return fmt.Errorf("attest: AIK certificate invalid: %w", err)
	}
	return nil
}

// Verifier is the external party of §3.1: it trusts a Privacy CA and a set
// of known-good PAL measurements, and nothing on the attesting platform.
//
// A Verifier is safe for concurrent use: a single verifier instance can
// serve many challenge/verify exchanges at once (the palsvc worker pool and
// concurrent attestd clients rely on this). It keeps no verification
// cache: every signature it accepts was checked by crypto/rsa on that
// call, and a batch's one signature is shared by its entries by structure
// (AuthenticateBatch, then Batch.VerifyEntry), not by memo.
type Verifier struct {
	caPub *rsa.PublicKey

	mu sync.Mutex
	// known maps PAL measurement -> human-readable name.
	known map[evidence.Digest]string
	// nonceCur and noncePrev provide replay protection as a rotating
	// two-generation window (see consumeNonce): membership in either
	// generation is a replay; inserts go to nonceCur; when nonceCur
	// reaches nonceWindow entries it becomes noncePrev and a fresh
	// generation starts. Total footprint is bounded by 2*nonceWindow
	// entries however long the verifier lives.
	nonceCur  map[string]bool
	noncePrev map[string]bool
	// replays counts rejected replay attempts (see NonceReplays).
	replays uint64
}

// nonceWindow bounds each replay-window generation. Two generations deep,
// the verifier always detects a replay of any of the last nonceWindow
// nonces, and of up to 2*nonceWindow depending on rotation phase. Nonces
// older than that are outside the detection horizon — acceptable because
// nonces are verifier-chosen and verified promptly; a challenge is not a
// bearer token with a shelf life.
const nonceWindow = 4096

// NewVerifier builds a verifier trusting the given CA.
func NewVerifier(caPub *rsa.PublicKey) *Verifier {
	return &Verifier{
		caPub:    caPub,
		known:    map[evidence.Digest]string{},
		nonceCur: map[string]bool{},
	}
}

// Approve registers a PAL image hash as known-good. Verifiers approve
// code, not platforms: any platform may run an approved PAL.
func (v *Verifier) Approve(name string, palMeasurement evidence.Digest) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.known[palMeasurement] = name
}

// consumeNonce atomically checks freshness and marks the nonce used. It is
// called only after all other validation passed, so a failed verification
// never burns a nonce. The used set is a rotating two-generation window:
// a long-running verifier holds at most 2*nonceWindow entries instead of
// one per nonce ever seen.
func (v *Verifier) consumeNonce(nonce []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := string(nonce)
	if v.nonceCur[n] || v.noncePrev[n] {
		v.replays++
		return ErrNonceReplay
	}
	if len(v.nonceCur) >= nonceWindow {
		v.noncePrev = v.nonceCur
		v.nonceCur = make(map[string]bool, nonceWindow)
	}
	v.nonceCur[n] = true
	return nil
}

// NonceWindowSize reports how many nonces the replay window currently
// holds across both generations. It can never exceed 2*nonceWindow — the
// soak asserts exactly that to pin the bounded-memory fix.
func (v *Verifier) NonceWindowSize() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.nonceCur) + len(v.noncePrev)
}

// NonceWindowBound is the maximum NonceWindowSize can reach.
const NonceWindowBound = 2 * nonceWindow

// NonceReplays counts rejected replay attempts over the verifier's
// lifetime — the soak asserts it stays zero under an honest workload.
func (v *Verifier) NonceReplays() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.replays
}

// lookup returns the approved name for a measurement.
func (v *Verifier) lookup(m evidence.Digest) (string, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	name, ok := v.known[m]
	return name, ok
}

// Verification errors.
var (
	ErrUnknownPAL   = errors.New("attest: quoted measurement is not an approved PAL")
	ErrNonceReplay  = errors.New("attest: nonce already used")
	ErrWrongNonce   = errors.New("attest: quote nonce does not match challenge")
	ErrNotLaunched  = errors.New("attest: PCR17 indicates no late launch occurred (reboot value)")
	ErrLogMismatch  = errors.New("attest: event log does not replay to quoted composite")
	ErrBadSignature = errors.New("attest: quote signature invalid")
)

// VerifyPALQuote validates the complete SEA attestation chain for a quote
// over PCR 17 (and optionally 18): certificate, signature, nonce freshness,
// and that the quoted composite equals a late launch of an approved PAL.
// It returns the approved PAL's name.
//
// sel must be the selection the quote covers; log must contain the
// measurement events the platform claims (for the simple SEA flow this is
// one event: the PAL into PCR 17, plus the ACMod and PAL on Intel).
func (v *Verifier) VerifyPALQuote(cert *AIKCert, q *evidence.Quote, log Log, nonce []byte) (string, error) {
	if err := VerifyCert(v.caPub, cert); err != nil {
		return "", err
	}
	if err := evidence.VerifyQuote(cert.AIK, q); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if string(q.Nonce) != string(nonce) {
		return "", ErrWrongNonce
	}
	if err := q.Selection.Check(); err != nil {
		return "", err
	}

	// Replay the log and reconstruct the composite.
	finals := log.Replay()
	// The reboot value of a dynamic PCR is all-ones; a log claiming no
	// events for PCR17 can never match a genuine late launch.
	if _, ok := finals[evidence.FirstDynamicPCR]; !ok {
		return "", ErrNotLaunched
	}
	vals := make([]evidence.Digest, len(q.Selection))
	for i, idx := range q.Selection {
		vals[i] = finals[idx]
	}
	if evidence.CompositeDigest(q.Selection, vals) != q.Composite {
		return "", ErrLogMismatch
	}

	// The first event extended into the freshly reset PCR 17 is the
	// late-launch measurement — the PAL on AMD, the ACMod on Intel
	// (where the PAL lands in PCR 18). Accept whichever dynamic PCR's
	// root is an approved PAL.
	name, err := v.rootApproved(log, q.Selection)
	if err != nil {
		return "", err
	}
	if err := v.consumeNonce(nonce); err != nil {
		return "", err
	}
	return name, nil
}

// rootApproved finds, for each selected PCR, the first event extended into
// it and reports the first one naming an approved PAL. Later events are
// inputs the PAL chose to extend and carry no code identity.
func (v *Verifier) rootApproved(log Log, sel evidence.Selection) (string, error) {
	seen := map[int]bool{}
	for _, e := range log {
		if seen[e.PCR] {
			continue
		}
		seen[e.PCR] = true
		inSel := false
		for _, idx := range sel {
			if idx == e.PCR {
				inSel = true
			}
		}
		if !inSel {
			continue
		}
		if name, ok := v.lookup(e.Measurement); ok {
			return name, nil
		}
	}
	return "", ErrUnknownPAL
}
