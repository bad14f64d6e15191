// Threat-model suite: each test is one capability §3.2 grants the
// adversary, driven end to end against the platform. The per-package tests
// check mechanisms; these check the paper's security story.
package main

import (
	"encoding/binary"
	"errors"
	"testing"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/audit"
	"minimaltcb/internal/chipset"
	"minimaltcb/internal/core"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/merkle"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

const victimPAL = `
	ldi	r0, key
	ldi	r1, 32
	svc	5		; generate a secret
	ldi	r0, key
	ldi	r1, 32
	ldi	r2, blob
	svc	3		; seal it to this code
	mov	r1, r0
	ldi	r0, blob
	svc	6
	; wipe before exit
	ldi	r0, key
	ldi	r1, 0
	ldi	r2, 32
w:	storeb	r1, [r0]
	addi	r0, 1
	addi	r2, -1
	ldi	r3, 0
	cmp	r2, r3
	jnz	w
	ldi	r0, 0
	svc	0
key:	.space 32
blob:	.space 1024
stack:	.space 64
`

// Capability: "he can invoke the SKINIT or SENTER instruction with
// arguments of its choosing". The attacker late launches his own code and
// hands it the victim's sealed blob: the TPM measured *his* code, so the
// unseal policy refuses, and any attestation he produces names his code.
func TestAttackerControlledLateLaunch(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.HPdc5750()))
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := core.CompilePAL("victim", victimPAL)
	res, err := sys.RunLegacy(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := res.Output

	attacker, _ := core.CompilePAL("attacker", `
		ldi	r0, blob
		ldi	r1, 1024
		svc	7
		mov	r1, r0
		ldi	r0, blob
		ldi	r2, out
		svc	4		; try to unseal the victim's secret
		mov	r0, r1		; exit status = unseal status
		svc	0
	blob:	.space 1024
	out:	.space 64
	stack:	.space 32
	`)
	ares, err := sys.RunLegacy(attacker, blob)
	if err != nil {
		t.Fatal(err)
	}
	if ares.ExitStatus == 0 {
		t.Fatal("attacker's late launch unsealed the victim's secret")
	}

	// The attestation of the attacker's session cannot be passed off as
	// the victim: the quoted PCR17 holds the attacker's measurement.
	nonce := []byte("tm nonce 1")
	q, _, err := sys.SEA.Quote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	sys.Verifier.Approve(victim.Name, victim.Measurement())
	forgedLog := attest.Log{{PCR: 17, Description: "victim", Measurement: victim.Measurement()}}
	if _, err := sys.Verifier.VerifyPALQuote(sys.Cert, q, forgedLog, nonce); err == nil {
		t.Fatal("attacker session attested as the victim")
	}
}

// Capability: ring-0 code on another core while a PAL executes
// (recommended hardware; on 2007 hardware the whole platform is halted).
func TestRing0NeighborDuringExecution(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.Recommended(platform.HPdc5750(), 2)))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := core.CompilePAL("target", "svc 1\nldi r0, 0\nsvc 0")
	secb, err := sys.SKSM.NewSECB(p.Image, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	core1 := sys.Machine.CPUs[1]
	if err := sys.SKSM.SLAUNCH(core1, secb); err != nil {
		t.Fatal(err)
	}
	// While executing: the "OS" on core 0 probes PAL memory and the SECB.
	cs := sys.Machine.Chipset
	if _, err := cs.CPURead(0, secb.Region.Base, 64); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("OS read executing PAL: %v", err)
	}
	if err := cs.CPUWrite(0, secb.Region.Base+8, []byte{0xcc}); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("OS patched executing PAL code: %v", err)
	}
	if _, err := cs.CPURead(0, secb.SECBRegion.Base, 16); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("OS read the SECB: %v", err)
	}
	// Drive it to completion and clean up.
	if _, err := core1.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.SKSM.Suspend(core1, secb); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SKSM.RunSlice(core1, secb); err != nil {
		t.Fatal(err)
	}
}

// Capability: "a DMA-capable Ethernet card with access to the PCI bus".
func TestDMACardAgainstBothArchitectures(t *testing.T) {
	// 2007 hardware: DEV protects the measured SLB during the session.
	sys, err := core.NewSystem(fast(platform.HPdc5750()))
	if err != nil {
		t.Fatal(err)
	}
	nic := chipset.NewDevice("pci-nic", sys.Machine.Chipset)
	p, _ := core.CompilePAL("dev-covered", "ldi r0, 0\nsvc 0")
	region, err := sys.Kernel.PlaceImage(p.Image.Bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Machine.LateLaunch(sys.Machine.BootCPU(), region.Base); err != nil {
		t.Fatal(err)
	}
	if _, err := nic.Read(region.Base, 32); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("DMA into DEV-protected SLB: %v", err)
	}
	sys.Machine.Chipset.SetDEVRegion(region, false)
	sys.Kernel.ReleaseRegion(region)

	// Recommended hardware: the access-control table covers executing
	// and suspended PALs alike (exercised in TestDMAAttackDuringSession).
}

// Capability: the OS, or a DMA-capable NIC it drives, rewrites an approved
// PAL's pages after placing them and before SLAUNCH. SLAUNCH measures the
// pages once it has protected them, so the sePCR names the attacker's code
// and the quote fails verification against the approved PAL; an honest run
// of the same PAL still verifies.
func TestRewriteBeforeSLAUNCH(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.Recommended(platform.HPdc5750(), 2)))
	if err != nil {
		t.Fatal(err)
	}
	approved, _ := core.CompilePAL("approved", "ldi r0, 0\nsvc 0")
	evil, _ := core.CompilePAL("evil", `
	ldi	r0, msg
	ldi	r1, 4
	svc	6
	ldi	r0, 0
	svc	0
msg:	.ascii "EVIL"
`)
	nic := chipset.NewDevice("pci-nic", sys.Machine.Chipset)
	for _, tc := range []struct {
		name    string
		rewrite func(base uint32, b []byte) error
	}{
		{"honest", nil},
		{"os", sys.Machine.Chipset.Memory().WriteRaw},
		{"dma", nic.Write},
	} {
		secb, err := sys.SKSM.NewSECB(approved.Image, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tc.rewrite != nil {
			if err := tc.rewrite(secb.Region.Base, evil.Image.Bytes); err != nil {
				t.Fatalf("%s: rewrite: %v", tc.name, err)
			}
		}
		if err := sys.SKSM.RunToCompletion(sys.PALCore(), secb); err != nil {
			t.Fatal(err)
		}
		nonce := []byte("tm nonce rewrite " + tc.name)
		batch, err := sys.SKSM.QuoteBatchAfterExit([]*sksm.SECB{secb}, [][]byte{nonce}, nonce, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SKSM.Release(secb); err != nil {
			t.Fatal(err)
		}
		res := &core.Result{
			Batch: batch,
			Log:   attest.Log{{PCR: -1, Description: approved.Name, Measurement: approved.Measurement()}},
		}
		_, verr := sys.VerifyRecommended(approved, res, nonce)
		switch {
		case tc.rewrite == nil && verr != nil:
			t.Fatalf("honest run failed verification: %v", verr)
		case tc.rewrite != nil && string(secb.Output) != "EVIL":
			t.Fatalf("%s: output %q, want the attacker's EVIL", tc.name, secb.Output)
		case tc.rewrite != nil && verr == nil:
			t.Fatalf("%s: the attacker's run verified as the approved PAL", tc.name)
		}
	}
}

// osCores is a recommended HP dc5750 with a third core: the victim PAL
// runs on CPU1, the OS on CPU0 and its own PAL on CPU2.
func osCores(t *testing.T) *core.System {
	t.Helper()
	p := fast(platform.Recommended(platform.HPdc5750(), 2))
	p.NumCPUs = 3
	sys, err := core.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// forgedSavedState is a SECB page's saved-state block (sksm's layout) as
// the OS would write it: the magic, registers, PC and a sePCR handle.
func forgedSavedState(regs [8]uint32, pc uint32, handle int) []byte {
	b := make([]byte, 64)
	copy(b, "SECB")
	for i, r := range regs {
		binary.LittleEndian.PutUint32(b[4+4*i:], r)
	}
	binary.LittleEndian.PutUint32(b[36:], pc)
	binary.LittleEndian.PutUint32(b[60:], uint32(int32(handle)))
	return b
}

// Capability: the OS controls every SECB field and every ALL page. It
// forges a resume: its own SECB, over pages it can still write, claims
// Suspend and the measured flag, and its control page holds a saved state
// the OS wrote — its own code's entry and a suspended victim's sePCR. Only
// a suspend leaves a PAL's pages NONE, so SLAUNCH refuses to resume pages
// that are not, and the OS's unmeasured code never runs under the
// victim's register (§5.3.1, Fig. 5(b)). The victim still resumes.
func TestForgedResumeOverOSPages(t *testing.T) {
	sys := osCores(t)
	mg, cs := sys.SKSM, sys.Machine.Chipset
	victim, err := mg.NewSECB(pal.MustBuild(`
	ldi	r0, secret
	ldi	r1, 9
	ldi	r2, blob
	svc	3		; seal TOPSECRET to this PAL
	mov	r1, r0
	ldi	r0, blob
	svc	6		; the OS stores the blob
	svc	1		; yield
	ldi	r0, 0
	svc	0
secret:	.ascii "TOPSECRET"
blob:	.space 1024
stack:	.space 64
`), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	core1 := sys.Machine.CPUs[1]
	if _, err := mg.RunSlice(core1, victim); err != nil {
		t.Fatal(err)
	}
	blob := victim.Output
	if victim.State != sksm.StateSuspend || len(blob) == 0 {
		t.Fatalf("victim %v with a %d-byte blob, want suspended with its sealed secret", victim.State, len(blob))
	}

	// The OS's code unseals [r0, r0+r1) into [r2] and outputs it.
	evil := pal.MustBuild(`
	svc	4
	mov	r1, r0
	mov	r0, r2
	svc	6
	ldi	r0, 0
	svc	0
`)
	forged, err := mg.NewSECB(evil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := uint32((len(evil.Bytes) + mem.PageSize - 1) / mem.PageSize * mem.PageSize)
	if err := cs.CPUWrite(0, forged.Region.Base+data, blob); err != nil {
		t.Fatal(err)
	}
	block := forgedSavedState([8]uint32{data, uint32(len(blob)), data + 2048}, uint32(evil.Entry), victim.SePCRHandle)
	if err := cs.CPUWrite(0, forged.SECBRegion.Base, block); err != nil {
		t.Fatal(err)
	}
	forged.State, forged.MeasuredFlag, forged.OwnerCPU = sksm.StateSuspend, true, victim.OwnerCPU

	_, err = mg.RunSlice(sys.Machine.CPUs[2], forged)
	if !errors.Is(err, sksm.ErrLaunchFailed) {
		t.Fatalf("forged resume over the OS's own pages: %v (output %q), want a refused launch", err, forged.Output)
	}
	if len(forged.Output) != 0 {
		t.Fatalf("the OS's code ran and output %q", forged.Output)
	}
	if err := mg.RunToCompletion(core1, victim); err != nil {
		t.Fatalf("the victim cannot resume after the forged attempt: %v", err)
	}
}

// Capability: the OS controls every SECB field. It names a suspended
// victim's pages — NONE, holding the victim's secret and saved registers —
// in a SECB of its own and first-launches it. The victim's code would exit
// at once on no input, and SFREE would hand every page back in ALL, secret
// and all. A first launch may claim only ALL pages (Fig. 5(b)), so SLAUNCH
// refuses, the pages stay NONE, and the victim still resumes.
func TestFirstLaunchOverSuspendedPAL(t *testing.T) {
	sys := osCores(t)
	mg, cs := sys.SKSM, sys.Machine.Chipset
	victim, err := mg.NewSECB(pal.MustBuild(`
	ldi	r0, buf
	ldi	r1, 16
	svc	7		; read input
	ldi	r1, 0
	cmp	r0, r1
	jz	done		; no input, nothing to do
	ldi	r0, secret
	ldi	r1, 32
	svc	5		; a TPM-random secret
	svc	1		; yield with the secret in its pages
	ldi	r0, secret
	ldi	r1, 0
	ldi	r2, 32
w:	storeb	r1, [r0]
	addi	r0, 1
	addi	r2, -1
	ldi	r3, 0
	cmp	r2, r3
	jnz	w
done:	ldi	r0, 0
	svc	0
buf:	.space 16
secret:	.space 32
stack:	.space 64
`), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim.Input = []byte("go")
	core1 := sys.Machine.CPUs[1]
	if _, err := mg.RunSlice(core1, victim); err != nil {
		t.Fatal(err)
	}
	if victim.State != sksm.StateSuspend {
		t.Fatalf("victim %v, want suspended", victim.State)
	}

	forged := &sksm.SECB{Region: victim.Region, SECBRegion: victim.SECBRegion, SePCRHandle: -1, OwnerCPU: -1}
	_, err = mg.RunSlice(sys.Machine.CPUs[2], forged)
	if !errors.Is(err, sksm.ErrLaunchFailed) {
		t.Fatalf("first launch over a suspended PAL's pages: %v (SECB %v), want a refused launch", err, forged.State)
	}
	if st, err := cs.RegionState(mem.Region{Base: victim.SECBRegion.Base, Size: victim.SECBRegion.Size + victim.Region.Size}); err != nil || st != mem.AccessNone {
		t.Fatalf("victim pages %v (%v) after the attempt, want NONE", st, err)
	}
	if _, err := cs.CPURead(0, victim.Region.Base, victim.Region.Size); !errors.Is(err, mem.ErrDenied) {
		t.Fatalf("OS read the suspended victim's pages: %v", err)
	}
	if err := mg.RunToCompletion(core1, victim); err != nil {
		t.Fatalf("the victim cannot resume after the attempt: %v", err)
	}
}

// Capability: the OS holds the batch quote between the TPM's command and
// its signing step (palsvc signs after dropping the machine lock). The
// signing step signs the digest the TPM computed, never one the OS
// supplies: a root the OS rewrites in between, here to a tree over a
// composite it chose, gets a signature over the TPM's own root, and the
// verifier rejects the quote. The two steps give the OS no AIK signing
// oracle.
func TestQuoteRewrittenBeforeSigning(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.Recommended(platform.HPdc5750(), 2)))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := core.CompilePAL("approved", "ldi r0, 0\nsvc 0")
	for _, rewrite := range []bool{false, true} {
		secb, err := sys.SKSM.NewSECB(p.Image, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SKSM.RunToCompletion(sys.PALCore(), secb); err != nil {
			t.Fatal(err)
		}
		nonce := []byte("tm nonce honest signing")
		if rewrite {
			nonce = []byte("tm nonce rewritten root")
		}
		q, sign, err := sys.SKSM.QuoteBatchAfterExitUnsigned([]*sksm.SECB{secb}, [][]byte{nonce}, nonce, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SKSM.Release(secb); err != nil {
			t.Fatal(err)
		}
		if rewrite {
			e := &q.Entries[0]
			e.Composite = evidence.Measure([]byte("a composite the OS chose"))
			q.Root = merkle.Root([]merkle.Hash{evidence.BatchLeaf(e.Handle, e.Composite, e.Nonce)})
		}
		if err := sign(); err != nil {
			t.Fatal(err)
		}
		_, aerr := sys.Verifier.AuthenticateBatch(sys.Cert, q)
		switch {
		case !rewrite && aerr != nil:
			t.Fatalf("honest two-step quote rejected: %v", aerr)
		case rewrite && aerr == nil:
			t.Fatal("a root rewritten before the signing step was signed and accepted")
		}
	}
}

// Capability: the OS can issue every command the TPM exposes, the audit
// log's head signing included. Audit tree heads are signed with the quote
// AIK, so that command must sign audit heads only: a "head" that is a
// batch quote's signed message would give the OS an AIK signature over a
// Merkle root of its choosing, and with it an attestation that the
// approved PAL ran when nothing ran at all.
func TestAuditHeadSigningIsNoQuoteOracle(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.Recommended(platform.HPdc5750(), 2)))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := core.CompilePAL("approved", "ldi r0, 0\nsvc 0")
	sys.Verifier.Approve(p.Name, p.Measurement())
	log := attest.Log{{PCR: -1, Description: p.Name, Measurement: p.Measurement()}}
	jobNonce, batchNonce := []byte("tm nonce forged job"), []byte("tm nonce forged batch")
	e := evidence.BatchEntry{Composite: evidence.ExtendDigest(evidence.Digest{}, p.Measurement()), Nonce: jobNonce}
	root := merkle.Root([]merkle.Hash{evidence.BatchLeaf(e.Handle, e.Composite, e.Nonce)})
	msg := append([]byte("QBAT"), root[:]...)
	msg = binary.BigEndian.AppendUint32(msg, 1)
	msg = append(msg, batchNonce...)
	chip := sys.Machine.TPM()
	sig, err := chip.SignAuditHead(msg)
	if err == nil {
		q := &tpm.BatchQuote{Root: root, Count: 1, Nonce: batchNonce, Signature: sig, Entries: []evidence.BatchEntry{e}}
		if name, verr := sys.Verifier.VerifyBatchedQuote(sys.Cert, q, 0, log, jobNonce); verr == nil {
			t.Fatalf("a batch quote signed as an audit head verified as %q with no PAL run", name)
		}
	}
	if !errors.Is(err, tpm.ErrNotAuditHead) {
		t.Fatalf("signing a batch quote's message as an audit head: err = %v, want ErrNotAuditHead", err)
	}
	// A genuine head is still signed, and verifies.
	head := audit.TreeHead{Size: 1, Root: root, Node: "tm"}
	if head.Sig, err = chip.SignAuditHead(head.SigningMessage()); err != nil {
		t.Fatal(err)
	}
	if err := head.VerifySignature(chip.AIKPublic()); err != nil {
		t.Fatal(err)
	}
}

// Capability: power cycling. A reboot resets the dynamic PCRs to -1 so a
// verifier can tell nothing was launched, and sealed state only returns
// after a genuine relaunch of the same code.
func TestPowerCycling(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.HPdc5750()))
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := core.CompilePAL("victim", victimPAL)
	res, err := sys.RunLegacy(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := res.Output

	chip := sys.Machine.TPM()
	chip.Boot() // power cycle

	// Post-reboot, PCR17 is -1: direct unseal fails.
	if _, err := chip.Unseal(blob); err == nil {
		t.Fatal("sealed state released after reboot without a launch")
	}
	// A quote straight after reboot cannot claim a launch happened.
	nonce := []byte("tm nonce reboot")
	q, err := chip.QuoteCommand(tpm.Selection{17}, nonce)
	if err != nil {
		t.Fatal(err)
	}
	sys.Verifier.Approve(victim.Name, victim.Measurement())
	log := attest.Log{{PCR: 17, Description: "victim", Measurement: victim.Measurement()}}
	if _, err := sys.Verifier.VerifyPALQuote(sys.Cert, q, log, nonce); err == nil {
		t.Fatal("reboot-state quote verified as a launch")
	}

	// Genuine relaunch of the same code: the secret flows again. Consume
	// the blob with a PAL Use-style unseal via a fresh session.
	consumer, _ := core.CompilePAL("victim", victimPAL) // same bytes
	if _, err := sys.RunLegacy(consumer, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := chip.Unseal(blob); err != nil {
		t.Fatalf("same code cannot unseal after relaunch: %v", err)
	}
}

// Capability: replaying a previously captured attestation. Nonce tracking
// in the verifier forces freshness.
func TestQuoteReplay(t *testing.T) {
	sys, err := core.NewSystem(fast(platform.HPdc5750()))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := core.CompilePAL("fresh", "ldi r0, 0\nsvc 0")
	if _, err := sys.RunLegacy(p, nil); err != nil {
		t.Fatal(err)
	}
	nonce := []byte("tm nonce replay")
	q, _, err := sys.SEA.Quote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	sys.Verifier.Approve(p.Name, p.Measurement())
	log := attest.Log{{PCR: 17, Description: p.Name, Measurement: p.Measurement()}}
	if _, err := sys.Verifier.VerifyPALQuote(sys.Cert, q, log, nonce); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Verifier.VerifyPALQuote(sys.Cert, q, log, nonce); !errors.Is(err, attest.ErrNonceReplay) {
		t.Fatalf("replayed quote: %v", err)
	}
}
