package tpm

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"io"
	"sync"
	"unsafe"

	"minimaltcb/internal/evidence"
)

// This file implements the measurement and crypto memoization layer.
//
// Two observations make it sound. First, the multi-tenant service relaunches
// the *same* PAL image over and over (palsvc's image cache hands every job
// the identical Image.Bytes slice), so the SHA-1 over the image is a pure
// function of a slice that never changes — it can be computed once and
// replayed, while the TPM still charges the profile's virtual hash latency
// every launch. Second, all TPM-internal randomness comes from a seeded
// deterministic RNG, so experiment sweeps and benchmark iterations replay
// byte-identical RSA operations; the modular exponentiation is a pure
// function of (key, input) and its result can be cached without changing a
// single output bit. Virtual-clock charges are applied by the callers
// exactly as before in both the hit and miss cases — memoization removes
// *simulator* cost only (see docs/PERFORMANCE.md).
//
// All caches are bounded: above a fixed entry count they are emptied, so a
// long-lived service with ever-fresh nonces degrades to cache misses rather
// than unbounded growth.

// memoLimit bounds each memo table; crossing it empties the table.
const memoLimit = 4096

// ---- Measurement memoization -----------------------------------------

// measureKey identifies a byte slice by backing-array identity. Holding the
// data pointer in the key pins the backing array, so an address can never be
// recycled for different bytes while its entry is live.
type measureKey struct {
	ptr *byte
	n   int
}

var measureMemo struct {
	sync.Mutex
	m map[measureKey]Digest
}

// MeasureMemoized hashes b into a measurement, returning a cached digest
// when the identical slice (same backing array and length) was measured
// before. hit reports whether the cache supplied the digest, so callers can
// expose it on trace spans (measure_cache=hit|miss).
//
// Only use this with slices that are never mutated after first measurement
// (PAL image bytes); the cache keys on identity, not content, and would
// return stale digests for a mutated slice. Mutable or transient buffers
// must use Measure.
func MeasureMemoized(b []byte) (d Digest, hit bool) {
	if len(b) == 0 {
		return evidence.Measure(b), false
	}
	k := measureKey{ptr: unsafe.SliceData(b), n: len(b)}
	measureMemo.Lock()
	d, hit = measureMemo.m[k]
	measureMemo.Unlock()
	if hit {
		return d, true
	}
	d = evidence.Measure(b)
	measureMemo.Lock()
	if measureMemo.m == nil || len(measureMemo.m) >= memoLimit {
		measureMemo.m = make(map[measureKey]Digest)
	}
	measureMemo.m[k] = d
	measureMemo.Unlock()
	return d, false
}

// ---- Deterministic RSA memoization -----------------------------------

// cryptoKey identifies one deterministic private/public-key operation: the
// op code, the key (by public-key fingerprint), and a SHA-1 over the
// operation's inputs.
//
// The key field used to be uintptr(unsafe.Pointer(key)). That was unsound
// once AIKs became re-mintable (PR9's per-epoch re-mint): after a key is
// garbage-collected its address can be recycled for a *different* key, and
// the stale cache entry would alias the new key's operations — key B
// returning a signature that key A minted. A fingerprint of the public
// material can't be recycled.
type cryptoKey struct {
	op  byte
	key Digest
	sum Digest
}

// keyFingerprint condenses an RSA public key into a cache identity. Both
// halves of a key pair share the fingerprint; the op code keeps private-
// and public-key operations from colliding.
func keyFingerprint(pub *rsa.PublicKey) Digest {
	var ebuf [8]byte
	binary.BigEndian.PutUint64(ebuf[:], uint64(pub.E))
	return sumParts([]byte("RSAPUB"), pub.N.Bytes(), ebuf[:])
}

const (
	opOAEPDecrypt = iota
	opOAEPEncrypt
	opSign
)

var cryptoMemo struct {
	sync.Mutex
	m map[cryptoKey][]byte
}

func cryptoLookup(k cryptoKey) ([]byte, bool) {
	cryptoMemo.Lock()
	v, ok := cryptoMemo.m[k]
	cryptoMemo.Unlock()
	return v, ok
}

func cryptoStore(k cryptoKey, v []byte) {
	cryptoMemo.Lock()
	if cryptoMemo.m == nil || len(cryptoMemo.m) >= memoLimit {
		cryptoMemo.m = make(map[cryptoKey][]byte)
	}
	cryptoMemo.m[k] = v
	cryptoMemo.Unlock()
}

// sumParts hashes the concatenation of the given parts.
func sumParts(parts ...[]byte) Digest {
	h := sha1.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// memoDecryptOAEP is rsa.DecryptOAEP with result caching. OAEP decryption
// is a pure function of (key, ciphertext, label).
func memoDecryptOAEP(priv *rsa.PrivateKey, ciphertext, label []byte) ([]byte, error) {
	k := cryptoKey{op: opOAEPDecrypt, key: keyFingerprint(&priv.PublicKey), sum: sumParts(ciphertext, label)}
	if v, ok := cryptoLookup(k); ok {
		return v, nil
	}
	pt, err := rsa.DecryptOAEP(sha1.New(), nil, priv, ciphertext, label)
	if err != nil {
		return nil, err
	}
	cryptoStore(k, pt)
	return pt, nil
}

// detStream is a deterministic byte stream expanded from a seed by SHA-1 in
// counter mode. memoEncryptOAEP feeds it to rsa.EncryptOAEP so the OAEP
// padding is a pure function of the pre-drawn seed, whatever read pattern
// the rsa package uses.
type detStream struct {
	seed Digest
	buf  []byte
	ctr  uint32
}

func (s *detStream) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(s.buf) == 0 {
			block := sumParts(s.seed[:], []byte{byte(s.ctr), byte(s.ctr >> 8), byte(s.ctr >> 16), byte(s.ctr >> 24)})
			s.ctr++
			s.buf = block[:]
		}
		c := copy(p, s.buf)
		s.buf = s.buf[c:]
		p = p[c:]
	}
	return n, nil
}

var _ io.Reader = (*detStream)(nil)

// memoEncryptOAEP is rsa.EncryptOAEP with the randomness made explicit: the
// OAEP seed entropy is always drawn from rng first (one Digest worth), so
// the RNG stream advances identically whether the result comes from the
// cache or a live encryption, and the ciphertext is a pure function of
// (key, seed, plaintext, label).
func memoEncryptOAEP(rng io.Reader, pub *rsa.PublicKey, plaintext, label []byte) ([]byte, error) {
	var seed Digest
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, err
	}
	k := cryptoKey{op: opOAEPEncrypt, key: keyFingerprint(pub), sum: sumParts(seed[:], plaintext, label)}
	if v, ok := cryptoLookup(k); ok {
		return v, nil
	}
	ct, err := rsa.EncryptOAEP(sha1.New(), &detStream{seed: seed}, pub, plaintext, label)
	if err != nil {
		return nil, err
	}
	cryptoStore(k, ct)
	return ct, nil
}

// memoSignPKCS1v15 is rsa.SignPKCS1v15 with result caching; PKCS#1 v1.5
// signatures are deterministic.
func memoSignPKCS1v15(priv *rsa.PrivateKey, digest Digest) ([]byte, error) {
	k := cryptoKey{op: opSign, key: keyFingerprint(&priv.PublicKey), sum: digest}
	if v, ok := cryptoLookup(k); ok {
		return v, nil
	}
	sig, err := rsa.SignPKCS1v15(nil, priv, crypto.SHA1, digest[:])
	if err != nil {
		return nil, err
	}
	cryptoStore(k, sig)
	return sig, nil
}

// ---- AEAD and scratch pooling ----------------------------------------

// aeadMemo caches the expanded AES-GCM state per 256-bit key; the seeded
// RNG replays the same session keys across deterministic runs, and GCM
// instances are stateless and safe for concurrent use.
var aeadMemo struct {
	sync.Mutex
	m map[[32]byte]cipher.AEAD
}

func aeadFor(key [32]byte) (cipher.AEAD, error) {
	aeadMemo.Lock()
	g, ok := aeadMemo.m[key]
	aeadMemo.Unlock()
	if ok {
		return g, nil
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	g, err = cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	aeadMemo.Lock()
	if aeadMemo.m == nil || len(aeadMemo.m) >= memoLimit {
		aeadMemo.m = make(map[[32]byte]cipher.AEAD)
	}
	aeadMemo.m[key] = g
	aeadMemo.Unlock()
	return g, nil
}

// scratchPool recycles small append buffers used for AAD construction and
// quote messages; the contents never outlive a single TPM command.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func getScratch() *[]byte  { return scratchPool.Get().(*[]byte) }
func putScratch(b *[]byte) { *b = (*b)[:0]; scratchPool.Put(b) }

// hashBufPool recycles the TPM_HASH_DATA accumulation buffer across
// HashStart/HashEnd sequences and across TPM instances; an SLB is at most
// 64 KB, so steady state holds one buffer per concurrent launch.
var hashBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}
