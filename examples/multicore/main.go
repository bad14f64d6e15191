// Multicore PAL example (§6 "Multicore PALs"): a single PAL runs on two
// cores at once. The untrusted OS joins a second core to the executing PAL
// — the join operation adds the core to the memory controller's
// access-control entries for the PAL's pages — and the two cores split a
// checksum over shared PAL memory, synchronizing through flags in that
// memory. Unjoined cores and DMA devices remain locked out throughout.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/core"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
)

const dataSize = 4096
const half = dataSize / 2

// multicorePAL: the first core through the entry claims the owner role,
// reads the input into shared memory and sums the first half; the joined
// worker sums the second half; the owner combines and outputs. Each core
// gets its own stack.
var multicorePAL = fmt.Sprintf(`
	ldi	r1, role
	load	r0, [r1]
	ldi	r2, 0
	cmp	r0, r2
	jnz	worker

	; ---- owner path ----
	ldi	r0, 1
	store	r0, [r1]	; claim the owner role
	ldi	r7, stack0_top
	ldi	r0, data
	ldi	r1, %d
	svc	7		; read the input block
	ldi	r0, data
	ldi	r1, %d
	call	sum
	ldi	r1, sum0
	store	r5, [r1]
	ldi	r0, done0
	ldi	r2, 1
	store	r2, [r0]
wait:	ldi	r0, done1	; spin until the worker posts its half
	load	r2, [r0]
	ldi	r3, 1
	cmp	r2, r3
	jnz	wait
	ldi	r1, sum0
	load	r0, [r1]
	ldi	r1, sum1
	load	r2, [r1]
	add	r0, r2
	ldi	r1, out
	store	r0, [r1]
	ldi	r0, out
	ldi	r1, 4
	svc	6
	ldi	r0, 0
	svc	0

	; ---- worker path (joined core) ----
worker:
	ldi	r7, stack1_top
waitin:	ldi	r0, done0	; wait for the owner to finish reading input
	load	r2, [r0]
	ldi	r3, 1
	cmp	r2, r3
	jnz	waitin
	ldi	r0, data
	ldi	r2, %d
	add	r0, r2
	ldi	r1, %d
	call	sum
	ldi	r1, sum1
	store	r5, [r1]
	ldi	r0, done1
	ldi	r2, 1
	store	r2, [r0]
park:	jmp	park		; worker parks until the OS stops scheduling it

sum:	; r5 = sum of r1 bytes at r0; clobbers r2
	ldi	r5, 0
sloop:	ldi	r2, 0
	cmp	r1, r2
	jz	sdone
	loadb	r2, [r0]
	add	r5, r2
	addi	r0, 1
	addi	r1, -1
	jmp	sloop
sdone:	ret

role:	.word 0
done0:	.word 0
done1:	.word 0
sum0:	.word 0
sum1:	.word 0
out:	.word 0
data:	.space %d
stack0:	.space 128
stack0_top:
stack1:	.space 128
stack1_top:
`, dataSize, half, half, half, dataSize)

func main() {
	prof := platform.Recommended(platform.HPdc5750(), 2)
	prof.NumCPUs = 4
	sys, err := core.NewSystem(prof)
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.CompilePAL("multicore-sum", multicorePAL)
	if err != nil {
		log.Fatal(err)
	}

	// Input block with a known checksum.
	input := make([]byte, dataSize)
	sim.NewRNG(0xabcd).Fill(input)
	var want uint32
	for _, b := range input {
		want += uint32(b)
	}

	mg := sys.SKSM
	secb, err := mg.NewSECB(p.Image, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	secb.Input = input

	owner := sys.Machine.CPUs[1]
	worker := sys.Machine.CPUs[2]
	if err := mg.SLAUNCH(owner, secb); err != nil {
		log.Fatal(err)
	}
	if err := mg.Join(worker, secb); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PAL launched on CPU%d; CPU%d joined via the memory controller\n",
		owner.ID, worker.ID)

	// While the PAL runs on two cores, everything else stays locked out.
	if _, err := sys.Machine.Chipset.CPURead(3, secb.Region.Base, 16); err == nil {
		log.Fatal("SECURITY FAILURE: unjoined core read the PAL")
	}
	nic := chipset.NewDevice("nic", sys.Machine.Chipset)
	if _, err := nic.Read(secb.Region.Base, 16); err == nil {
		log.Fatal("SECURITY FAILURE: DMA read the multicore PAL")
	}
	fmt.Println("unjoined core and DMA device refused by the access-control table")

	// Interleave the two cores in time slices until the owner exits.
	const quantum = 20 * time.Microsecond
	done := false
	for rounds := 0; !done; rounds++ {
		if rounds > 10000 {
			log.Fatal("PAL did not converge")
		}
		reason, err := owner.Run(quantum)
		if err != nil {
			log.Fatalf("owner fault: %v", err)
		}
		if reason == cpu.StopHalt {
			done = true
			break
		}
		if _, err := worker.Run(quantum); err != nil {
			log.Fatalf("worker fault: %v", err)
		}
	}

	got := binary.LittleEndian.Uint32(secb.Output[:4])
	fmt.Printf("two-core checksum = %d (host reference %d)\n", got, want)
	if got != want {
		log.Fatal("checksum mismatch")
	}

	// Tear down: worker leaves, owner SFREEs, attestation still works.
	if err := mg.Leave(worker, secb); err != nil {
		log.Fatal(err)
	}
	if err := mg.SFREE(owner, secb); err != nil {
		log.Fatal(err)
	}
	nonce := []byte("multicore-nonce")
	q, err := mg.QuoteBatchAfterExit([]*sksm.SECB{secb}, [][]byte{nonce}, nonce, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sePCR quote generated over the multicore PAL (%d-byte signature)\n",
		len(q.Signature))
}
