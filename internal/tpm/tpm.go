// Package tpm implements the software Trusted Platform Module the
// simulation platform exposes over its LPC bus.
//
// The implementation covers the TPM v1.2 subset the paper exercises —
// static and dynamic PCRs with locality-gated reset, Extend/PCRRead, the
// TPM_HASH_START / TPM_HASH_DATA / TPM_HASH_END sequence driven by late
// launch, Seal/Unseal bound to PCR composites (real 2048-bit RSA under a
// hybrid AES-GCM envelope), Quote (real RSA signatures by an Attestation
// Identity Key), and GetRandom — plus the paper's proposed secure-execution
// PCRs (sePCRs) with their Exclusive/Quote/Free life cycle (§5.4).
//
// Cryptographic behaviour is real (hash chains verify, quotes check against
// the AIK, unsealing under the wrong PCR values fails); *latency* comes from
// per-vendor timing profiles calibrated to Figure 3 of the paper and is
// charged to the platform's virtual clock.
package tpm

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha1"
	"errors"
	"fmt"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/sim"
)

// The evidence formats live in internal/evidence, so a verifier can check
// them without linking the simulator. The chip produces them under their
// historical names; these are aliases, not copies, so the gob and JSON
// encodings are unchanged.
type (
	Digest       = evidence.Digest
	Selection    = evidence.Selection
	Quote        = evidence.Quote
	BatchEntry   = evidence.BatchEntry
	BatchQuote   = evidence.BatchQuote
	QuoteSession = evidence.QuoteSession
)

// DigestSize is the size of a PCR and of every measurement (SHA-1).
const DigestSize = sha1.Size

// Errors returned by TPM commands.
var (
	ErrBadPCR        = errors.New("tpm: PCR index out of range")
	ErrLocality      = errors.New("tpm: command not permitted at current locality")
	ErrNotHashing    = errors.New("tpm: no TPM_HASH_START in progress")
	ErrAlreadyHashed = errors.New("tpm: TPM_HASH_START already in progress")
	ErrPCRMismatch   = errors.New("tpm: PCR values do not match sealed blob")
	ErrBadBlob       = errors.New("tpm: malformed sealed blob")
	ErrNoSePCR       = errors.New("tpm: no free sePCR available")
	ErrSePCRState    = errors.New("tpm: sePCR in wrong state for command")
	ErrSePCRHandle   = errors.New("tpm: invalid sePCR handle")
)

// TPM is one TPM chip instance.
type TPM struct {
	clock   *sim.Clock
	bus     *lpc.Bus
	profile Profile
	seed    uint64
	rng     sim.RNG

	pcrs [evidence.NumPCRs]Digest

	srk *rsa.PrivateKey // Storage Root Key (seals)
	aik *rsa.PrivateKey // Attestation Identity Key (quotes)
	// srkFP and aikFP are the keys' crypto-memo identities
	// (keyFingerprint), computed once: the keys never change.
	srkFP, aikFP Digest

	hashing  bool
	hashBuf  []byte
	hashBufP *[]byte // pooled backing for hashBuf while a hash is open
	booted   bool
	extends  int // statistics: number of Extend operations served
	unsealOK int // statistics: successful unseals

	sePCRs []sePCR

	// Quote sessions (batch.go): per-session HMAC keys bound to the AIK
	// by a signed grant. Wiped on Boot, like authorization sessions in
	// real TPMs.
	sessions   map[uint64]Digest
	sessionSeq uint64

	// trace, when set, records a dual-timestamp span per TPM command and
	// a life-cycle span per sePCR state (internal/obs). sepcrLife holds
	// the open life-cycle span of each register.
	trace     *obs.Scope
	sepcrLife []*obs.Span

	// fault, when set, is consulted before every fallible command; nil
	// (the default) costs one pointer check per command.
	fault FaultHook

	// audit, when set, observes trust-relevant state transitions (sePCR
	// life cycle, seal/unseal, late launch) for the tamper-evident audit
	// log; nil (the default) costs one pointer check per transition.
	audit AuditHook
}

// FaultHook intercepts TPM commands for fault injection (internal/chaos).
// It is consulted once per fallible command with the command name, and may
// charge an extra stall against the chip's clock and/or fail the command
// before it takes effect. Cleanup commands — TPM_SEPCR_Free, TPM_SEPCR_Kill,
// ReleaseSePCR — are never intercepted, so recovery paths cannot be made to
// leak registers.
type FaultHook interface {
	TPMCommand(name string) (stall time.Duration, err error)
}

// SetFault installs (or with nil removes) the chip's fault hook.
func (t *TPM) SetFault(h FaultHook) { t.fault = h }

// inject consults the fault hook for one command. A returned stall is
// charged to the virtual clock whether or not the command also fails —
// a glitching chip is slow first, broken second.
func (t *TPM) inject(name string) error {
	if t.fault == nil {
		return nil
	}
	stall, err := t.fault.TPMCommand(name)
	if stall > 0 {
		t.clock.Advance(stall)
	}
	if err != nil {
		return fmt.Errorf("tpm: %s: %w", name, err)
	}
	return nil
}

// SetTrace wires an observability scope into the chip: every command span
// and sePCR life-cycle transition is recorded against it. A nil scope
// disables tracing (the default).
func (t *TPM) SetTrace(s *obs.Scope) {
	t.trace = s
	if s != nil && t.sepcrLife == nil {
		t.sepcrLife = make([]*obs.Span, len(t.sePCRs))
	}
}

// cmdSpan opens a span for one TPM command; endCmd closes it, noting the
// error if the command failed. Both are no-ops without a scope.
func (t *TPM) cmdSpan(name string) *obs.Span { return t.trace.Start(name, "tpm") }

func (t *TPM) endCmd(sp *obs.Span, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Attr("error", err.Error())
	}
	t.trace.End(sp)
}

// Config configures a TPM instance.
type Config struct {
	// Profile selects the vendor timing model. Zero value means free
	// (zero-latency) operations, useful for functional tests.
	Profile Profile
	// Seed makes all TPM-internal randomness (GetRandom output, key
	// generation, timing jitter) reproducible.
	Seed uint64
	// KeyBits sets the RSA modulus size for the SRK and AIK. 0 means
	// 2048, the size the paper's TPMs use. Tests may choose 1024 or 512
	// for speed; key generation results are cached per (seed, bits).
	KeyBits int
	// NumSePCRs is how many secure-execution PCRs to provision. 0 means
	// none: a stock 2007 TPM. The paper's recommendation sizes this to
	// the desired concurrent-PAL limit.
	NumSePCRs int
}

// New creates a TPM attached to the given clock and bus, performs the
// equivalent of a power-on (TPM_Startup(ST_CLEAR)), and generates its keys.
func New(clock *sim.Clock, bus *lpc.Bus, cfg Config) (*TPM, error) {
	bits := cfg.KeyBits
	if bits == 0 {
		bits = 2048
	}
	srk, aik, err := keysForSeed(cfg.Seed, bits)
	if err != nil {
		return nil, fmt.Errorf("tpm: key generation: %w", err)
	}
	t := &TPM{
		clock:   clock,
		bus:     bus,
		profile: cfg.Profile,
		seed:    cfg.Seed,
		srk:     srk,
		aik:     aik,
		srkFP:   keyFingerprint(&srk.PublicKey),
		aikFP:   keyFingerprint(&aik.PublicKey),
		sePCRs:  make([]sePCR, cfg.NumSePCRs),
	}
	t.Boot()
	return t, nil
}

// Boot performs the power-on PCR initialization: static PCRs reset to zero,
// dynamic PCRs to all-ones (-1), so a verifier can distinguish "rebooted"
// from "dynamically reset" (§2.1.3).
func (t *TPM) Boot() {
	// Power-on also restarts the chip's deterministic RNG from its seed:
	// a rebooted simulated TPM replays the exact randomness stream of its
	// first boot. This is what makes replay deterministic — and lets the
	// experiments reboot and reuse a machine bit-identically to building
	// a fresh one. (The seed is domain-separated from key generation.)
	// The generator is held by value and overwritten in place, so a
	// reboot allocates nothing.
	t.rng = *sim.NewRNG(t.seed ^ 0x7049_4d53_494d_5450)
	for i := range t.pcrs {
		if i >= evidence.FirstDynamicPCR {
			for j := range t.pcrs[i] {
				t.pcrs[i][j] = 0xff
			}
		} else {
			t.pcrs[i] = Digest{}
		}
	}
	t.hashing = false
	t.releaseHashBuf()
	t.booted = true
	for i := range t.sePCRs {
		t.sePCRs[i] = sePCR{state: SePCRFree}
	}
	// Power-on abandons any open sePCR life-cycle spans unrecorded, and
	// wipes quote sessions — a rebooted chip cannot MAC for keys minted
	// before the reboot.
	for i := range t.sepcrLife {
		t.sepcrLife[i] = nil
	}
	t.sessions = nil
}

// Profile returns the timing profile.
func (t *TPM) Profile() Profile { return t.profile }

// AIKPublic returns the public half of the Attestation Identity Key, which
// a Privacy CA certifies and verifiers use to check quotes.
func (t *TPM) AIKPublic() *rsa.PublicKey { return &t.aik.PublicKey }

// SRKPublic returns the public half of the Storage Root Key.
func (t *TPM) SRKPublic() *rsa.PublicKey { return &t.srk.PublicKey }

// charge advances virtual time by d plus profile jitter, never negative.
func (t *TPM) charge(d, jitter time.Duration) {
	if d <= 0 && jitter <= 0 {
		return
	}
	total := d
	if jitter > 0 {
		total += time.Duration(float64(jitter) * t.rng.NormFloat64())
	}
	if total < 0 {
		total = 0
	}
	t.clock.Advance(total)
}

// busCommand charges LPC framing for a command exchange if a bus is wired.
func (t *TPM) busCommand(req, resp int) {
	if t.bus != nil {
		t.bus.Command(req, resp)
	}
}

// PCRValue returns the current value of a PCR without charging time (a
// debug/verifier view, not a TPM command).
func (t *TPM) PCRValue(idx int) (Digest, error) {
	if idx < 0 || idx >= evidence.NumPCRs {
		return Digest{}, fmt.Errorf("%w: %d", ErrBadPCR, idx)
	}
	return t.pcrs[idx], nil
}

// PCRRead executes TPM_PCRRead: returns the PCR value and charges the
// (small) command latency.
func (t *TPM) PCRRead(idx int) (Digest, error) {
	v, err := t.PCRValue(idx)
	if err != nil {
		return Digest{}, err
	}
	t.busCommand(14, 30)
	t.charge(t.profile.ReadLatency, 0)
	return v, nil
}

// Extend executes TPM_Extend: pcr <- SHA1(pcr || measurement), the
// append-only accumulation of §2.1.1.
func (t *TPM) Extend(idx int, measurement Digest) (Digest, error) {
	if idx < 0 || idx >= evidence.NumPCRs {
		return Digest{}, fmt.Errorf("%w: %d", ErrBadPCR, idx)
	}
	if err := t.inject("TPM_Extend"); err != nil {
		return Digest{}, err
	}
	sp := t.cmdSpan("TPM_Extend").AttrInt("pcr", idx)
	t.pcrs[idx] = evidence.ExtendDigest(t.pcrs[idx], measurement)
	t.extends++
	t.busCommand(34, 30)
	t.charge(t.profile.ExtendLatency, t.profile.Jitter)
	t.endCmd(sp, nil)
	return t.pcrs[idx], nil
}

// Extends returns how many TPM_Extend commands the chip has served.
func (t *TPM) Extends() int { return t.extends }

// ExtendMicrocode performs the semantic PCR extension issued from late
// launch microcode (the ACMod's PCR 18 extension during SENTER). Its
// latency is part of the calibrated launch constants rather than the
// vendor's TPM_Extend profile, so no separate time is charged here.
func (t *TPM) ExtendMicrocode(idx int, measurement Digest) (Digest, error) {
	if idx < 0 || idx >= evidence.NumPCRs {
		return Digest{}, fmt.Errorf("%w: %d", ErrBadPCR, idx)
	}
	t.pcrs[idx] = evidence.ExtendDigest(t.pcrs[idx], measurement)
	return t.pcrs[idx], nil
}

// HashStart executes TPM_HASH_START. Only the CPU may issue it, which the
// bus encodes as locality 4; software cannot reset PCR 17 (§2.1.3). The
// dynamic PCRs reset to zero and the hash buffer opens.
func (t *TPM) HashStart() error {
	if t.bus != nil && t.bus.Locality() != 4 {
		return fmt.Errorf("%w: TPM_HASH_START needs locality 4, have %d",
			ErrLocality, t.bus.Locality())
	}
	if t.hashing {
		return ErrAlreadyHashed
	}
	for i := evidence.FirstDynamicPCR; i < evidence.NumPCRs; i++ {
		t.pcrs[i] = Digest{}
	}
	t.hashing = true
	if t.hashBufP == nil {
		t.hashBufP = hashBufPool.Get().(*[]byte)
	}
	t.hashBuf = (*t.hashBufP)[:0]
	return nil
}

// releaseHashBuf returns the pooled TPM_HASH_DATA buffer, if held.
func (t *TPM) releaseHashBuf() {
	if t.hashBufP != nil {
		*t.hashBufP = t.hashBuf[:0]
		hashBufPool.Put(t.hashBufP)
		t.hashBufP = nil
	}
	t.hashBuf = nil
}

// HashData executes TPM_HASH_DATA, appending bytes to the open hash: the
// chip keeps its own copy and measures exactly what it was sent. A launch
// may send the SLB in pieces. The LPC transfer cost is charged by the
// caller (CPU microcode) with one Bus.TransferHash over the whole SLB,
// since the long-wait behaviour lives on the bus.
func (t *TPM) HashData(b []byte) error {
	if !t.hashing {
		return ErrNotHashing
	}
	t.hashBuf = append(t.hashBuf, b...)
	return nil
}

// HashEnd executes TPM_HASH_END: the buffered bytes are measured and the
// digest extended into PCR 17. It returns the measurement together with
// the resulting PCR 17 value. The digest comes from the measurement cache
// (MeasureImage), which checks the buffered bytes themselves, so no caller
// can hand the chip a digest for bytes it did not receive.
func (t *TPM) HashEnd() (measurement, pcr17 Digest, err error) {
	if !t.hashing {
		return Digest{}, Digest{}, ErrNotHashing
	}
	t.hashing = false
	measurement = MeasureImage(t.hashBuf)
	t.releaseHashBuf()
	t.pcrs[evidence.FirstDynamicPCR] = evidence.ExtendDigest(Digest{}, measurement)
	t.auditEvent("late_launch", -1, t.pcrs[evidence.FirstDynamicPCR])
	return measurement, t.pcrs[evidence.FirstDynamicPCR], nil
}

// GetRandom executes TPM_GetRandom, returning n bytes from the TPM's RNG.
func (t *TPM) GetRandom(n int) ([]byte, error) {
	if n < 0 {
		return nil, errors.New("tpm: negative GetRandom length")
	}
	if err := t.inject("TPM_GetRandom"); err != nil {
		return nil, err
	}
	sp := t.cmdSpan("TPM_GetRandom").AttrInt("bytes", n)
	out := make([]byte, n)
	t.rng.Fill(out)
	t.busCommand(14, 10+n)
	t.charge(t.profile.RandomBase+time.Duration(n)*t.profile.RandomPerByte,
		t.profile.Jitter)
	t.endCmd(sp, nil)
	return out, nil
}

// Composite computes the TPM_COMPOSITE_HASH over the selected PCRs: a
// SHA-1 over the encoded selection and the concatenated register values.
func (t *TPM) Composite(sel Selection) (Digest, error) {
	vals := make([]Digest, len(sel))
	for i, idx := range sel {
		if idx < 0 || idx >= evidence.NumPCRs {
			return Digest{}, fmt.Errorf("%w: %d", ErrBadPCR, idx)
		}
		vals[i] = t.pcrs[idx]
	}
	return evidence.CompositeDigest(sel, vals), nil
}

// equalDigest is constant-time-ish comparison; timing attacks are out of
// scope (§3.2) but bytes.Equal reads naturally here.
func equalDigest(a, b Digest) bool { return bytes.Equal(a[:], b[:]) }
