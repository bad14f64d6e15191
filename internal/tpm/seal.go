package tpm

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Sealed-blob wire format (all integers little-endian):
//
//	magic   [4]byte  "SEAL"
//	mode    uint8    0 = PCR selection, 1 = sePCR (§5.4.4)
//	nsel    uint8    number of selected PCR indices (mode 0)
//	sel     [nsel]byte
//	release [20]byte composite digest required at unseal
//	eklen   uint16   RSA-encrypted AES key length
//	ek      [eklen]byte
//	nonce   [12]byte GCM nonce
//	ct      rest     AES-256-GCM ciphertext of the payload
//
// The RSA layer uses OAEP under the SRK, so only this TPM can recover the
// AES key; the AES-GCM layer carries arbitrary-size payloads (a real TPM
// seals small blobs, but PAL state in the paper's PAL Use flow can be
// larger, and TPM v1.2 implementations wrap larger data the same way).
const sealMagic = "SEAL"

const (
	sealModePCR   = 0
	sealModeSePCR = 1
)

// Seal encrypts data so that it can only be unsealed by this TPM while the
// selected PCRs hold their current values (§2.1.2).
func (t *TPM) Seal(sel Selection, data []byte) ([]byte, error) {
	release, err := t.Composite(sel)
	if err != nil {
		return nil, err
	}
	selBytes := make([]byte, len(sel))
	for i, idx := range sel {
		selBytes[i] = byte(idx)
	}
	sp := t.cmdSpan("TPM_Seal").Attr("mode", "pcr").AttrInt("bytes", len(data))
	blob, err := t.sealBlob(sealModePCR, selBytes, release, data)
	if err != nil {
		t.endCmd(sp, err)
		return nil, err
	}
	t.busCommand(64+len(data), len(blob))
	t.charge(t.sealCost(len(data)), t.profile.Jitter)
	t.endCmd(sp, nil)
	return blob, nil
}

// sealCost models Seal latency as a base plus a per-KB term; the paper's
// Broadcom numbers (11.39 ms minimal, 20.01 ms for PAL Gen's payload)
// indicate payload-size dependence.
func (t *TPM) sealCost(n int) time.Duration {
	return t.profile.SealBase + time.Duration(n)*t.profile.SealPerKB/1024
}

// Unseal decrypts a sealed blob, provided the PCRs it names currently hold
// the values recorded at seal time. The dominant cost is the private-key
// RSA operation (§4.2).
func (t *TPM) Unseal(blob []byte) ([]byte, error) {
	mode, selBytes, release, ekey, nonce, ct, err := parseBlob(blob)
	if err != nil {
		return nil, err
	}
	if mode != sealModePCR {
		return nil, fmt.Errorf("%w: blob sealed to an sePCR; use UnsealSePCR", ErrBadBlob)
	}
	sel := make(Selection, len(selBytes))
	for i, b := range selBytes {
		sel[i] = int(b)
	}
	now, err := t.Composite(sel)
	if err != nil {
		return nil, err
	}
	// Latency is charged even for a failed unseal: the TPM performs the
	// RSA decryption before it can compare the release policy.
	sp := t.cmdSpan("TPM_Unseal").Attr("mode", "pcr")
	t.busCommand(len(blob), 64)
	t.charge(t.profile.UnsealLatency, t.profile.Jitter)
	if !equalDigest(now, release) {
		err := fmt.Errorf("%w: composite %x, sealed to %x", ErrPCRMismatch, now, release)
		t.endCmd(sp, err)
		return nil, err
	}
	pt, err := t.openBlob(mode, selBytes, release, ekey, nonce, ct)
	if err != nil {
		t.endCmd(sp, err)
		return nil, err
	}
	t.unsealOK++
	t.endCmd(sp, nil)
	return pt, nil
}

// Unseals returns the number of successful unseal operations served.
func (t *TPM) Unseals() int { return t.unsealOK }

// buildAAD assembles the GCM additional data binding a blob to its release
// policy, appending into dst (a pooled scratch buffer).
func buildAAD(dst []byte, mode byte, selBytes []byte, release Digest) []byte {
	dst = append(dst[:0], mode)
	dst = append(dst, selBytes...)
	return append(dst, release[:]...)
}

// sealLabel is the OAEP label binding the key envelope to the seal command.
var sealLabel = []byte("TPM_SEAL")

// sealBlob builds the hybrid envelope. The AES-GCM state is cached per
// session key and the SRK encryption memoized (memo.go); the RNG draws —
// session key, nonce, OAEP seed — happen unconditionally so the stream
// stays aligned with an un-memoized execution.
func (t *TPM) sealBlob(mode byte, selBytes []byte, release Digest, data []byte) ([]byte, error) {
	var aesKey [32]byte
	t.rng.Fill(aesKey[:])
	gcm, err := aeadFor(aesKey)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	t.rng.Fill(nonce)
	// Bind the ciphertext to the release policy via GCM additional data.
	aadBuf := getScratch()
	aad := buildAAD(*aadBuf, mode, selBytes, release)
	ct := gcm.Seal(nil, nonce, data, aad)
	putScratch(aadBuf)

	ekey, err := memoEncryptOAEP(&t.rng, &t.srk.PublicKey, t.srkFP, aesKey[:], sealLabel)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, 4+1+1+len(selBytes)+DigestSize+2+len(ekey)+len(nonce)+len(ct))
	out = append(out, sealMagic...)
	out = append(out, mode, byte(len(selBytes)))
	out = append(out, selBytes...)
	out = append(out, release[:]...)
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(ekey)))
	out = append(out, l[:]...)
	out = append(out, ekey...)
	out = append(out, nonce...)
	out = append(out, ct...)
	return out, nil
}

// openBlob reverses sealBlob's crypto given parsed fields. The caller has
// already validated the release policy; GCM authentication over the AAD
// (the blob header) still protects integrity of the stored blob itself.
func (t *TPM) openBlob(mode byte, selBytes []byte, release Digest, ekey, nonce, ct []byte) ([]byte, error) {
	aesKey, err := memoDecryptOAEP(t.srk, t.srkFP, ekey, sealLabel)
	if err != nil {
		return nil, fmt.Errorf("%w: SRK decrypt failed: %v", ErrBadBlob, err)
	}
	if len(aesKey) != 32 {
		return nil, fmt.Errorf("%w: bad session key length %d", ErrBadBlob, len(aesKey))
	}
	gcm, err := aeadFor([32]byte(aesKey))
	if err != nil {
		return nil, err
	}
	aadBuf := getScratch()
	defer putScratch(aadBuf)
	pt, err := gcm.Open(nil, nonce, ct, buildAAD(*aadBuf, mode, selBytes, release))
	if err != nil {
		return nil, fmt.Errorf("%w: payload authentication failed: %v", ErrBadBlob, err)
	}
	return pt, nil
}

func parseBlob(blob []byte) (mode byte, selBytes []byte, release Digest, ekey, nonce, ct []byte, err error) {
	fail := func(msg string) (byte, []byte, Digest, []byte, []byte, []byte, error) {
		return 0, nil, Digest{}, nil, nil, nil, fmt.Errorf("%w: %s", ErrBadBlob, msg)
	}
	if len(blob) < 6 || string(blob[:4]) != sealMagic {
		return fail("bad magic")
	}
	mode = blob[4]
	nsel := int(blob[5])
	p := 6
	if len(blob) < p+nsel+DigestSize+2 {
		return fail("truncated header")
	}
	selBytes = blob[p : p+nsel]
	p += nsel
	copy(release[:], blob[p:p+DigestSize])
	p += DigestSize
	eklen := int(binary.LittleEndian.Uint16(blob[p:]))
	p += 2
	if len(blob) < p+eklen+12 {
		return fail("truncated key/nonce")
	}
	ekey = blob[p : p+eklen]
	p += eklen
	nonce = blob[p : p+12]
	p += 12
	ct = blob[p:]
	return mode, selBytes, release, ekey, nonce, ct, nil
}
