package attest

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"testing"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/merkle"
)

// The fields of a batch bundle that the verifier must bind, one per fuzz
// input. An sePCR log binds only its events' measurements, so an event's
// PCR and Description are not among them. Integers are flipped in the
// four bytes BatchLeaf and BatchSignedDigest encode them with.
const (
	fieldRoot = iota
	fieldCount
	fieldBatchNonce
	fieldSignature // bound on the stateless path only
	fieldSessionID // bound on the session path only
	fieldSessionMAC
	fieldHandle // this and the rest belong to entry 1
	fieldComposite
	fieldEntryNonce
	fieldIndex
	fieldProof
	fieldLog
	numFields
)

// fuzzBundle is a genuine three-entry batch built with no TPM: a test CA
// certifies a 1024-bit test AIK, which signs the Merkle root and a session
// grant whose key MACs the batch.
type fuzzBundle struct {
	ca     *PrivacyCA
	cert   *AIKCert
	q      *evidence.BatchQuote
	logs   []Log
	nonces [][]byte
	grant  *evidence.QuoteSession
}

func newFuzzBundle(tb testing.TB) *fuzzBundle {
	ca, err := NewPrivacyCA(1, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	aik, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	cert, err := ca.Certify("fuzz-platform", &aik.PublicKey)
	if err != nil {
		tb.Fatal(err)
	}
	sign := func(d evidence.Digest) []byte {
		sig, err := rsa.SignPKCS1v15(nil, aik, crypto.SHA1, d[:])
		if err != nil {
			tb.Fatal(err)
		}
		return sig
	}
	b := &fuzzBundle{ca: ca, cert: cert, q: &evidence.BatchQuote{Count: 3, Nonce: []byte("batch-nonce")}}
	leaves := make([]merkle.Hash, b.q.Count)
	for i := range leaves {
		log := Log{
			{PCR: -1, Description: "PAL", Measurement: evidence.Measure([]byte(fmt.Sprintf("pal-%d", i)))},
			{PCR: -1, Description: "input", Measurement: evidence.Measure([]byte(fmt.Sprintf("input-%d", i)))},
		}
		var composite evidence.Digest
		for _, e := range log {
			composite = evidence.ExtendDigest(composite, e.Measurement)
		}
		nonce := []byte(fmt.Sprintf("job-nonce-%d", i))
		e := evidence.BatchEntry{Handle: 2 + i, Composite: composite, Nonce: nonce, Index: i}
		leaves[i] = evidence.BatchLeaf(e.Handle, e.Composite, e.Nonce)
		b.q.Entries = append(b.q.Entries, e)
		b.logs = append(b.logs, log)
		b.nonces = append(b.nonces, nonce)
	}
	b.q.Root = merkle.Root(leaves)
	for i := range b.q.Entries {
		b.q.Entries[i].Proof = merkle.InclusionProof(leaves, i)
	}
	signed := evidence.BatchSignedDigest(b.q.Root, b.q.Count, b.q.Nonce)
	b.q.Signature = sign(signed)

	b.grant = &evidence.QuoteSession{ID: 7, Nonce: []byte("grant-nonce")}
	copy(b.grant.Key[:], "fuzz session key....")
	b.grant.Sig = sign(evidence.SessionGrantDigest(b.grant.ID, b.grant.Key, b.grant.Nonce))
	b.q.SessionID = b.grant.ID
	b.q.SessionMAC = evidence.SessionMAC(b.grant.Key, signed)
	return b
}

// mutated returns a deep copy of the batch and entry 1's log with one byte
// of one field XORed with x (x == 0 changes nothing).
func (b *fuzzBundle) mutated(field int, off int, x byte) (*evidence.BatchQuote, Log) {
	q := *b.q
	q.Nonce = append([]byte(nil), q.Nonce...)
	q.Signature = append([]byte(nil), q.Signature...)
	q.SessionMAC = append([]byte(nil), q.SessionMAC...)
	q.Entries = append([]evidence.BatchEntry(nil), q.Entries...)
	e := &q.Entries[1]
	e.Nonce = append([]byte(nil), e.Nonce...)
	e.Proof = append([]merkle.Hash(nil), e.Proof...)
	log := append(Log(nil), b.logs[1]...)

	flip := func(p []byte) { p[off%len(p)] ^= x }
	flipInt := func(v *int) { *v ^= int(x) << (8 * (off % 4)) }
	switch field {
	case fieldRoot:
		flip(q.Root[:])
	case fieldCount:
		flipInt(&q.Count)
	case fieldBatchNonce:
		flip(q.Nonce)
	case fieldSignature:
		flip(q.Signature)
	case fieldSessionID:
		q.SessionID ^= uint64(x) << (8 * (off % 8))
	case fieldSessionMAC:
		flip(q.SessionMAC)
	case fieldHandle:
		flipInt(&e.Handle)
	case fieldComposite:
		flip(e.Composite[:])
	case fieldEntryNonce:
		flip(e.Nonce)
	case fieldIndex:
		flipInt(&e.Index)
	case fieldProof:
		p := off % (len(e.Proof) * len(merkle.Hash{}))
		e.Proof[p/len(merkle.Hash{})][p%len(merkle.Hash{})] ^= x
	case fieldLog:
		p := off % (len(log) * len(evidence.Digest{}))
		log[p/len(evidence.Digest{})].Measurement[p%len(evidence.Digest{})] ^= x
	}
	return &q, log
}

// verifier returns a fresh verifier trusting the bundle's CA and PALs.
func (b *fuzzBundle) verifier() *Verifier {
	v := NewVerifier(b.ca.Public())
	for i := range b.logs {
		v.Approve(fmt.Sprintf("pal-%d", i), b.logs[i][0].Measurement)
	}
	return v
}

// FuzzVerifyBatchedQuote flips one byte of one bound field of a genuine
// batch bundle and checks entry 1 on both verification paths, each with a
// fresh verifier: a changed byte must be rejected, an unchanged bundle
// accepted. The seeds cover every field, so `go test` runs them all.
func FuzzVerifyBatchedQuote(f *testing.F) {
	b := newFuzzBundle(f)
	for field := 0; field < numFields; field++ {
		f.Add(uint8(field), uint16(field), byte(0x01))
		f.Add(uint8(field), uint16(3), byte(0x80))
	}
	f.Add(uint8(fieldRoot), uint16(0), byte(0))
	f.Fuzz(func(t *testing.T, field8 uint8, off16 uint16, x byte) {
		field, off := int(field8)%numFields, int(off16)
		q, log := b.mutated(field, off, x)
		check := func(path string, name string, err error) {
			switch {
			case x != 0 && err == nil:
				t.Fatalf("%s path accepted entry 1 with field %d byte %d ^ %#x", path, field, off, x)
			case x == 0 && err != nil:
				t.Fatalf("%s path rejected the genuine bundle: %v", path, err)
			case x == 0 && name != "pal-1":
				t.Fatalf("%s path approved entry 1 as %q, want pal-1", path, name)
			}
		}
		if field != fieldSessionID && field != fieldSessionMAC {
			name, err := b.verifier().VerifyBatchedQuote(b.cert, q, 1, log, b.nonces[1])
			check("stateless", name, err)
		}
		if field != fieldSignature {
			s, err := b.verifier().NewSession(b.cert, b.grant, b.grant.Nonce)
			if err != nil {
				t.Fatal(err)
			}
			name, err := s.VerifyBatchedQuote(q, 1, log, b.nonces[1])
			check("session", name, err)
		}
	})
}
