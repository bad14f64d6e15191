// Distributed computing with attested workers — the deployment story
// behind the paper's factoring application (§4.1): a coordinator farms
// candidate ranges out to worker machines it does not trust, and accepts a
// worker's answer only if a TPM quote proves (a) the genuine worker PAL
// produced it and (b) the reported result is the one the PAL extended into
// its register. A worker whose OS lies about the result is caught by log
// replay against the quote.
//
// Workers are full simulated platforms answering over the remote
// attestation protocol (internal/attest) on the loopback.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"net"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/core"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sksm"
)

const (
	semiP = 5087
	semiQ = 5101
	// semiN is the number to factor.
	semiN = semiP * semiQ
)

// workerPAL searches [start, start+span) for a divisor of N. It extends
// its 8-byte result record (found flag + divisor) into its sePCR before
// outputting it, making the result part of the attestation.
func workerPAL() string {
	return fmt.Sprintf(`
	ldi	r0, inbuf
	ldi	r1, 8
	svc	7		; input: [start:4][span:4]
	ldi	r1, inbuf
	load	r5, [r1]	; r5 = candidate
	load	r6, [r1+4]	; r6 = remaining
	ldi	r4, %d		; N low
	lui	r4, %d		; N high
loop:
	ldi	r2, 0
	cmp	r6, r2
	jz	notfound
	mov	r0, r4
	remu	r0, r5
	ldi	r2, 0
	cmp	r0, r2
	jz	found
	addi	r5, 2
	addi	r6, -1
	jmp	loop
found:
	ldi	r1, result
	ldi	r2, 1
	store	r2, [r1]
	store	r5, [r1+4]
	jmp	report
notfound:
	ldi	r1, result
	ldi	r2, 0
	store	r2, [r1]
	store	r2, [r1+4]
report:
	ldi	r0, result
	ldi	r1, 8
	svc	2		; extend the result into the sePCR: now attested
	ldi	r0, result
	ldi	r1, 8
	svc	6		; and output it for the (untrusted) worker OS
	ldi	r0, 0
	svc	0
result:	.space 8
inbuf:	.space 8
stack:	.space 64
`, semiN&0xffff, semiN>>16)
}

// worker is one remote platform: it runs the range PAL under recommended
// hardware and serves the evidence for its most recent run.
type worker struct {
	id   int
	sys  *core.System
	p    *core.PAL
	addr string
}

// newWorker boots a worker platform and starts its attestation endpoint.
func newWorker(id int, p *core.PAL) (*worker, error) {
	prof := platform.Recommended(platform.HPdc5750(), 2)
	prof.Seed = uint64(100 + id) // distinct TPM/AIK per worker
	sys, err := core.NewSystem(prof)
	if err != nil {
		return nil, err
	}
	return &worker{id: id, sys: sys, p: p}, nil
}

// runAndServe executes the range [start, start+span) and serves exactly
// one attestation challenge for the run. lie makes the worker's OS tamper
// with the reported output (the attack the quote catches).
func (w *worker) runAndServe(start, span uint32, lie bool) (result []byte, respond attest.Responder, err error) {
	input := make([]byte, 8)
	binary.LittleEndian.PutUint32(input[0:4], start)
	binary.LittleEndian.PutUint32(input[4:8], span)

	mg := w.sys.SKSM
	secb, err := mg.NewSECB(w.p.Image, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	secb.Input = input
	core1 := w.sys.Machine.CPUs[1]
	if err := mg.RunToCompletion(core1, secb); err != nil {
		return nil, nil, err
	}
	result = append([]byte(nil), secb.Output...)
	if lie {
		// The compromised worker OS claims it found a factor.
		binary.LittleEndian.PutUint32(result[0:4], 1)
		binary.LittleEndian.PutUint32(result[4:8], 1235)
	}

	logEntries := attest.Log{
		{PCR: -1, Description: w.p.Name, Measurement: w.p.Measurement()},
		{PCR: -1, Description: "result", Measurement: evidence.Measure(result)},
	}
	// The run is attested as a batch of one: the coordinator's job nonce
	// is bound into the single leaf.
	responder := func(ch attest.Challenge) (*attest.Evidence, error) {
		q, err := mg.QuoteBatchAfterExit([]*sksm.SECB{secb}, ch.JobNonces, ch.Nonce, 0)
		if err != nil {
			return nil, err
		}
		return &attest.Evidence{Cert: w.sys.Cert, Batch: q, Logs: []attest.Log{logEntries}}, nil
	}
	return result, responder, nil
}

// coordinator verifies one worker's answer end to end.
func verifyWorker(w *worker, result []byte, respond attest.Responder, nonce []byte, v *attest.Verifier) error {
	client, server := net.Pipe()
	go attest.ServeOne(server, respond)
	names, err := v.ChallengeAndVerifyBatch(client, nil, nonce, []int{0}, [][]byte{nonce})
	if err != nil {
		return err
	}
	if names[0] != w.p.Name {
		return fmt.Errorf("attested name %q", names[0])
	}
	return nil
}

func main() {
	p, err := core.CompilePAL("range-worker", workerPAL())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factoring N = %d with attested remote workers; PAL measurement %x\n\n",
		semiN, p.Measurement())

	// The coordinator trusts each worker's Privacy CA (in this demo each
	// platform has its own CA; a real deployment shares one).
	const workers = 4
	const span = 1300
	var factor uint32
	for id := 0; id < workers; id++ {
		w, err := newWorker(id, p)
		if err != nil {
			log.Fatal(err)
		}
		start := uint32(3 + 2*span*uint32(id))
		result, respond, err := w.runAndServe(start, span, false)
		if err != nil {
			log.Fatal(err)
		}
		v := attest.NewVerifier(w.sys.CA.Public())
		v.Approve(p.Name, p.Measurement())
		nonce := []byte(fmt.Sprintf("work-unit-%d", id))
		if err := verifyWorker(w, result, respond, nonce, v); err != nil {
			log.Fatalf("worker %d attestation failed: %v", id, err)
		}
		found := binary.LittleEndian.Uint32(result[0:4]) == 1
		div := binary.LittleEndian.Uint32(result[4:8])
		fmt.Printf("worker %d: range [%d, +%d odd candidates): found=%v div=%d — attested ✓\n",
			id, start, span, found, div)
		if found {
			factor = div
		}
	}
	if factor != semiP && factor != semiQ {
		log.Fatalf("no worker found a factor (got %d)", factor)
	}
	fmt.Printf("\nfactor %d accepted: quote proves the genuine PAL computed it\n\n", factor)

	// The attack: a worker whose OS forges the result. The quote covers
	// what the PAL really extended, so log replay fails.
	w, err := newWorker(99, p)
	if err != nil {
		log.Fatal(err)
	}
	result, respond, err := w.runAndServe(3, 10, true)
	if err != nil {
		log.Fatal(err)
	}
	_ = result
	v := attest.NewVerifier(w.sys.CA.Public())
	v.Approve(p.Name, p.Measurement())
	if err := verifyWorker(w, result, respond, []byte("lying-unit"), v); err == nil {
		log.Fatal("SECURITY FAILURE: forged result attested")
	}
	fmt.Println("lying worker: forged result REJECTED (log does not replay to the quote)")
}
