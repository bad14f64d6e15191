// Rootkit detector example (§4.1): a PAL checksums the (simulated) kernel
// text it is handed and extends its verdict into the dynamic PCR, so an
// external verifier learns — from the quote alone — that the genuine
// detector ran AND what it concluded. A compromised OS can refuse to run
// the detector, but it cannot forge a "clean" verdict.
package main

import (
	"fmt"
	"log"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/core"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
)

// kernelTextSize is the size of the simulated kernel text section.
const kernelTextSize = 8192

// fnv1a mirrors the PAL's checksum so the golden value can be baked into
// the detector at build time.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, v := range b {
		h ^= uint32(v)
		h *= 16777619
	}
	return h
}

// detectorSource builds the PAL with the golden checksum embedded: the
// expected hash is part of the measured image, so an attacker cannot swap
// in a different baseline without changing the PAL's attested identity.
func detectorSource(golden uint32) string {
	return fmt.Sprintf(`
	ldi	r0, inbuf
	ldi	r1, %d
	svc	7		; read kernel text; r0 = length
	mov	r4, r0
	ldi	r5, 0x9dc5	; FNV-1a basis
	lui	r5, 0x811c
	ldi	r0, inbuf
hash:	ldi	r2, 0
	cmp	r4, r2
	jz	done
	loadb	r2, [r0]
	xor	r5, r2
	ldi	r2, 0x0193
	lui	r2, 0x0100
	mul	r5, r2
	addi	r0, 1
	addi	r4, -1
	jmp	hash
done:
	ldi	r3, %d		; golden checksum (low)
	lui	r3, %d		; golden checksum (high)
	ldi	r1, verdict
	cmp	r5, r3
	jz	clean
	ldi	r2, 1		; 1 = INFECTED
	storeb	r2, [r1]
	jmp	report
clean:
	ldi	r2, 0		; 0 = clean
	storeb	r2, [r1]
report:
	ldi	r0, verdict	; extend the verdict into PCR 17: it becomes
	ldi	r1, 1		; part of the attestation, unforgeable by the OS
	svc	2
	ldi	r0, verdict
	ldi	r1, 1
	svc	6		; also output it for the local caller
	ldi	r0, 0
	svc	0
verdict: .byte 0
	.align 4
inbuf:	.space %d
stack:	.space 64
`, kernelTextSize, golden&0xffff, golden>>16, kernelTextSize)
}

// check runs the detector over kernelText and verifies the attested
// verdict end to end. It returns the verdict byte.
func check(sys *core.System, det *core.PAL, kernelText []byte, nonce []byte) (byte, error) {
	res, err := sys.RunLegacy(det, kernelText)
	if err != nil {
		return 0, err
	}
	if len(res.Output) != 1 {
		return 0, fmt.Errorf("detector output %x", res.Output)
	}
	verdict := res.Output[0]

	// External verification: quote PCR 17 and replay the claimed log.
	q, _, err := sys.SEA.Quote(nonce)
	if err != nil {
		return 0, err
	}
	logEntries := attest.Log{
		{PCR: 17, Description: det.Name, Measurement: det.Measurement()},
		{PCR: 17, Description: "verdict", Measurement: evidence.Measure([]byte{verdict})},
	}
	sys.Verifier.Approve(det.Name, det.Measurement())
	if _, err := sys.Verifier.VerifyPALQuote(sys.Cert, q, logEntries, nonce); err != nil {
		return 0, fmt.Errorf("attestation failed: %w", err)
	}
	return verdict, nil
}

func main() {
	sys, err := core.NewSystem(platform.HPdc5750())
	if err != nil {
		log.Fatal(err)
	}

	// The "kernel text": deterministic bytes standing in for vmlinux.
	kernel := make([]byte, kernelTextSize)
	sim.NewRNG(0xfeed).Fill(kernel)
	golden := fnv1a(kernel)
	det, err := core.CompilePAL("rootkit-detector", detectorSource(golden))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector built: golden checksum %08x baked into a %d-byte PAL\n",
		golden, det.Image.Len())

	verdict, err := check(sys, det, kernel, []byte("scan-1"))
	if err != nil {
		log.Fatal(err)
	}
	if verdict != 0 {
		log.Fatal("pristine kernel flagged as infected")
	}
	fmt.Println("scan 1: kernel clean (verdict attested via PCR 17)")

	// The adversary patches a syscall handler.
	kernel[0x1234] ^= 0x90
	verdict, err = check(sys, det, kernel, []byte("scan-2"))
	if err != nil {
		log.Fatal(err)
	}
	if verdict != 1 {
		log.Fatal("rootkit not detected")
	}
	fmt.Println("scan 2: KERNEL MODIFIED — rootkit detected, verdict attested")

	// A forged "clean" verdict cannot verify: the quote covers the real
	// extension, so a log claiming verdict 0 fails replay.
	q, _, err := sys.SEA.Quote([]byte("scan-3"))
	if err != nil {
		log.Fatal(err)
	}
	forged := attest.Log{
		{PCR: 17, Description: det.Name, Measurement: det.Measurement()},
		{PCR: 17, Description: "verdict", Measurement: evidence.Measure([]byte{0})},
	}
	if _, err := sys.Verifier.VerifyPALQuote(sys.Cert, q, forged, []byte("scan-3")); err == nil {
		log.Fatal("SECURITY FAILURE: forged clean verdict verified")
	}
	fmt.Println("forged 'clean' log rejected by the verifier")
}
