package tpm

import (
	"bytes"
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"io"
	"sync"

	"minimaltcb/internal/evidence"
)

// This file implements the measurement cache and the crypto memoization
// layer.
//
// Two observations make them sound. First, late launch measures the same
// few images over and over — the service relaunches each tenant's PAL, and
// experiment sweeps relaunch one PAL per trial — so the SHA-1 over an
// image can be served from a table of recently measured bytes, as long as
// every hit compares the full content; the launch microcode still charges
// the profile's virtual transfer and hash latency on every launch. Second,
// all TPM-internal randomness comes from a seeded deterministic RNG, so
// experiment sweeps and benchmark iterations replay byte-identical RSA
// operations; the modular exponentiation is a pure function of
// (key, input) and its result can be cached without changing a single
// output bit. Virtual-clock charges are applied by the callers exactly as
// before in both the hit and miss cases — caching removes *simulator* cost
// only (see docs/PERFORMANCE.md).
//
// All caches are bounded: the measurement cache evicts round-robin, and the
// memo tables are emptied above a fixed entry count, so a long-lived
// service with ever-fresh nonces degrades to cache misses rather than
// unbounded growth.

// memoLimit bounds each memo table; crossing it empties the table.
const memoLimit = 4096

// ---- Measurement cache -----------------------------------------------

// MeasureCacheEntries is the number of slots in the measurement cache. It
// is fully associative with round-robin eviction: a latency sweep launches
// a handful of distinct image sizes in rotation, and a direct-mapped table
// would let two sizes sharing a slot evict each other on every pass.
const MeasureCacheEntries = 16

// measureCache is process-global: the service's replicas and the
// experiments' lab machines launch the same images, and a per-chip cache
// would copy and hash each image again for every machine. The digest is a
// pure function of the bytes and a content compare guards every hit, so
// sharing cannot leak state between machines.
var measureCache struct {
	sync.Mutex
	next         int
	hits, misses uint64
	entries      [MeasureCacheEntries]struct {
		img  []byte // private copy of the measured bytes; nil when unused
		meas Digest
	}
}

// MeasureImage returns the measurement (SHA-1) of the concatenation of
// parts. Recently measured images are served from the measurement cache,
// which every late launch shares: SKINIT through TPM_HASH_END, and SKINIT
// without a TPM, SENTER's on-CPU hash and SLAUNCH directly over views of
// the SLB in memory (mem.Memory.Views). A hit compares every byte of every
// part against a private copy — no address, slice identity or
// caller-supplied digest is trusted — so a rewritten image is always
// measured afresh. No part is retained, and the parts must not change
// during the call. A miss on a single part allocates nothing once its
// cache slot has grown to the image's size; a miss on several parts joins
// them into a new copy.
func MeasureImage(parts ...[]byte) Digest {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	mc := &measureCache
	mc.Lock()
	for i := range mc.entries {
		e := &mc.entries[i]
		if e.img != nil && len(e.img) == n && equalParts(e.img, parts) {
			d := e.meas
			mc.hits++
			mc.Unlock()
			return d
		}
	}
	mc.misses++
	mc.Unlock()
	// Hash outside the lock. joined is never a part, so storing it below
	// retains none of the caller's memory.
	var d Digest
	var joined []byte
	if len(parts) == 1 {
		d = evidence.Measure(parts[0])
	} else {
		joined = make([]byte, 0, n)
		for _, p := range parts {
			joined = append(joined, p...)
		}
		d = evidence.Measure(joined)
	}
	mc.Lock()
	e := &mc.entries[mc.next]
	mc.next = (mc.next + 1) % MeasureCacheEntries
	if joined != nil {
		e.img = joined
	} else {
		e.img = append(e.img[:0], parts[0]...)
	}
	e.meas = d
	mc.Unlock()
	return d
}

// equalParts reports whether img, whose length the caller has checked
// against the parts' total, is their concatenation.
func equalParts(img []byte, parts [][]byte) bool {
	for _, p := range parts {
		if !bytes.Equal(img[:len(p)], p) {
			return false
		}
		img = img[len(p):]
	}
	return true
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
// and public-key operations from colliding. A TPM's SRK and AIK never
// change, so New computes their fingerprints once and every memoized
// operation takes the key's fingerprint alongside the key.
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
	m            map[cryptoKey][]byte
	hits, misses uint64
}

func cryptoLookup(k cryptoKey) ([]byte, bool) {
	cryptoMemo.Lock()
	v, ok := cryptoMemo.m[k]
	if ok {
		cryptoMemo.hits++
	} else {
		cryptoMemo.misses++
	}
	cryptoMemo.Unlock()
	return v, ok
}

// CacheCounts are the lifetime hit and miss counts of the process-global
// measurement cache (MeasureImage) and deterministic-crypto memo. Every
// machine in the process shares both, so the counts are process-wide.
type CacheCounts struct {
	MeasureHits, MeasureMisses uint64
	CryptoHits, CryptoMisses   uint64
}

// CacheStats returns the caches' counts so far.
func CacheStats() CacheCounts {
	var c CacheCounts
	measureCache.Lock()
	c.MeasureHits, c.MeasureMisses = measureCache.hits, measureCache.misses
	measureCache.Unlock()
	cryptoMemo.Lock()
	c.CryptoHits, c.CryptoMisses = cryptoMemo.hits, cryptoMemo.misses
	cryptoMemo.Unlock()
	return c
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
// is a pure function of (key, ciphertext, label); fp is the key's
// keyFingerprint.
func memoDecryptOAEP(priv *rsa.PrivateKey, fp Digest, ciphertext, label []byte) ([]byte, error) {
	k := cryptoKey{op: opOAEPDecrypt, key: fp, sum: sumParts(ciphertext, label)}
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
// (key, seed, plaintext, label). fp is the key's keyFingerprint.
func memoEncryptOAEP(rng io.Reader, pub *rsa.PublicKey, fp Digest, plaintext, label []byte) ([]byte, error) {
	var seed Digest
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, err
	}
	k := cryptoKey{op: opOAEPEncrypt, key: fp, sum: sumParts(seed[:], plaintext, label)}
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
// signatures are deterministic. fp is the key's keyFingerprint.
func memoSignPKCS1v15(priv *rsa.PrivateKey, fp, digest Digest) ([]byte, error) {
	k := cryptoKey{op: opSign, key: fp, sum: digest}
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
