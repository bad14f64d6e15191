// Command attestd runs the remote-attestation loop between a simulated
// platform and an external verifier over TCP.
//
// Usage:
//
//	attestd serve -addr 127.0.0.1:7070 [-pal file.pal]
//	    Build an HP dc5750, late launch the PAL (a built-in echo PAL by
//	    default, or assembler source from -pal), and answer attestation
//	    challenges on the given address. Prints the trust anchors a
//	    verifier needs (CA key fingerprint, PAL measurement).
//
//	attestd verify -addr 127.0.0.1:7070
//	    Connect as a verifier that shares the demo trust anchors and
//	    print the verified PAL name.
//
//	attestd demo
//	    Run both sides in one process over the loopback.
//
//	attestd batch [-jobs N]
//	    Run the batched, sessionful exchange in one process over the
//	    loopback: N sePCRs parked in the Quote state, one AIK signature
//	    over a Merkle batch quote covering all of them, then a second
//	    round resumed over the session's HMAC channel with zero RSA.
package main

import (
	"crypto/rsa"
	"crypto/sha1"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/audit"
	"minimaltcb/internal/core"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

const defaultPAL = `
	ldi	r0, msg
	ldi	r1, 22
	svc	6
	ldi	r0, 0
	svc	0
msg:	.ascii "attested PAL was here!"
`

// demoSeed fixes the platform seed so `serve` and `verify` in separate
// processes share the Privacy CA trust anchor.
const demoSeed = 0x5eed

func main() {
	if len(os.Args) < 2 {
		fail(usage())
	}
	sub := os.Args[1]
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen/connect address")
	palFile := fs.String("pal", "", "PAL assembler source file (serve only)")
	anchors := fs.String("anchors", "", "trust-anchors file: written by serve, read by verify")
	timeout := fs.Duration("timeout", attest.DefaultTimeout,
		"per-exchange I/O deadline (0 disables)")
	debugAddr := fs.String("debug", "",
		"debug HTTP listen address for /metrics, /healthz, /debug/trace, /debug/pprof (serve only; \"\" disables)")
	auditDir := fs.String("audit-dir", "",
		"persist a tamper-evident audit log under this directory: serve records challenges (AIK-signed heads), verify records verdicts; cross-check the two with tcbaudit")
	jobs := fs.Int("jobs", 4, "jobs per batch quote (batch only)")
	fs.Parse(os.Args[2:])

	var err error
	switch sub {
	case "serve":
		err = serveDebug(*addr, *palFile, *anchors, *timeout, *debugAddr, *auditDir, nil)
	case "verify":
		err = verify(*addr, *anchors, *timeout, *auditDir)
	case "demo":
		err = demo(*timeout, *auditDir)
	case "batch":
		err = batchDemo(*timeout, *jobs)
	default:
		err = usage()
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "attestd: %v\n", err)
	os.Exit(1)
}

func usage() error {
	return fmt.Errorf("usage: attestd serve [-addr A] [-pal file] | attestd verify [-addr A] | attestd demo | attestd batch [-jobs N]")
}

// buildSystem assembles the shared-seed platform and PAL.
func buildSystem(palFile string) (*core.System, *core.PAL, error) {
	prof := platform.HPdc5750()
	prof.Seed = demoSeed
	sys, err := core.NewSystem(prof)
	if err != nil {
		return nil, nil, err
	}
	src := defaultPAL
	name := "attestd-demo-pal"
	if palFile != "" {
		b, err := os.ReadFile(palFile)
		if err != nil {
			return nil, nil, err
		}
		src = string(b)
		name = palFile
	}
	p, err := core.CompilePAL(name, src)
	if err != nil {
		return nil, nil, err
	}
	return sys, p, nil
}

// anchorsFile is the out-of-band trust material a cross-process verifier
// needs: the Privacy CA's public key and the approved PAL identity.
type anchorsFile struct {
	CAPub   *rsa.PublicKey
	PALName string
	PALMeas tpm.Digest
}

// serve runs the platform side with no debug server. If ready is non-nil
// the bound address is sent on it once listening (used by demo and tests).
func serve(addr, palFile, anchorsPath string, timeout time.Duration, auditDir string, ready chan<- string) error {
	return serveDebug(addr, palFile, anchorsPath, timeout, "", auditDir, ready)
}

// tpmAuditAdapter forwards TPM lifecycle events (late launch, sePCR ops)
// into the platform-side audit log. attestd's legacy profile has no SKSM
// manager to play this role, so the daemon carries its own adapter.
type tpmAuditAdapter struct{ rec *audit.Recorder }

func (a tpmAuditAdapter) TPMAuditEvent(op string, handle int, value tpm.Digest) {
	a.rec.Record(audit.Event{Type: op, Handle: handle, Value: audit.Digest20(value)})
}

// serveDebug is serve plus an optional debug HTTP server: when debugAddr
// is set, every answered challenge is counted and traced (the TPM command
// spans under it come through the machine's obs.Scope), and the /metrics,
// /healthz, /debug/trace and /debug/pprof endpoints are exposed.
func serveDebug(addr, palFile, anchorsPath string, timeout time.Duration, debugAddr, auditDir string, ready chan<- string) error {
	sys, p, err := buildSystem(palFile)
	if err != nil {
		return err
	}

	// The platform-side audit log must exist before RunLegacy so the late
	// launch itself lands on the record; its heads are signed by this
	// platform's AIK.
	var (
		alog *audit.Log
		arec *audit.Recorder
	)
	if auditDir != "" {
		alog, err = audit.Open(audit.Config{Dir: auditDir, Node: "attestd"})
		if err != nil {
			return err
		}
		defer alog.Close()
		alog.SetSigner(sys.Machine.TPM())
		arec = alog.Recorder(sys.Machine.Clock, 0)
		sys.Machine.TPM().SetAuditHook(tpmAuditAdapter{rec: arec})
		fmt.Printf("audit log in %s (AIK-signed heads; verify with tcbaudit -verify -log %s)\n", auditDir, auditDir)
	}

	// A nil tracer/scope/counter no-ops through every call below, so the
	// undebugged path stays unchanged.
	var (
		tracer     *obs.Tracer
		scope      *obs.Scope
		health     *obs.Health
		challenges *obs.Counter
		chErrors   *obs.Counter
		quoteH     *obs.Histogram
	)
	if debugAddr != "" {
		tracer = obs.NewTracer(0)
		reg := obs.NewRegistry()
		health = &obs.Health{}
		scope = obs.NewScope(tracer, sys.Machine.Clock)
		sys.Machine.TPM().SetTrace(scope)
		challenges = reg.Counter("attestd_challenges_total", "Attestation challenges answered.")
		chErrors = reg.Counter("attestd_challenge_errors_total", "Attestation challenges that failed on the platform side.")
		quoteH = reg.Histogram("attestd_quote_duration_seconds",
			"Wall-clock time to produce quote evidence per challenge.", nil)
		obs.RegisterTracerMetrics(reg, tracer)
		alog.BindRegistry(reg)
		srv, err := obs.ListenAndServeDebug(debugAddr, obs.NewDebugMux(reg, tracer, health))
		if err != nil {
			return err
		}
		defer srv.Close()
		defer health.Fail("attestd shutting down")
		fmt.Printf("debug server on http://%s (/metrics /healthz /debug/trace /debug/pprof)\n", srv.Addr())
	}
	if _, err := sys.RunLegacy(p, nil); err != nil {
		return err
	}
	fmt.Printf("platform: %s\n", sys.Machine.Profile.Name)
	fmt.Printf("PAL %q measurement: %x\n", p.Name, p.Measurement())
	fmt.Printf("CA key fingerprint: %x\n", caFingerprint(sys))
	if anchorsPath != "" {
		f, err := os.Create(anchorsPath)
		if err != nil {
			return err
		}
		err = gob.NewEncoder(f).Encode(&anchorsFile{
			CAPub: sys.CA.Public(), PALName: p.Name, PALMeas: p.Measurement(),
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing anchors: %w", err)
		}
		fmt.Printf("trust anchors written to %s\n", anchorsPath)
	}

	log := attest.Log{{PCR: 17, Description: p.Name, Measurement: p.Measurement()}}
	respond := func(ch attest.Challenge) (*attest.Evidence, error) {
		// Adopt the verifier's propagated trace context when the challenge
		// carries one, so this platform's challenge/TPM spans nest in the
		// caller's distributed trace; otherwise root a local trace.
		ctx := tracer.NewTrace()
		if id, err := obs.ParseTraceID(ch.TraceID); err == nil && !id.IsZero() {
			ctx = obs.Context{Trace: id, Span: ch.ParentSpan}
		}
		sp := tracer.StartSpan(ctx, "challenge", "attest")
		prev := scope.Swap(sp.Context())
		t0 := time.Now()
		q, _, err := sys.SEA.Quote(ch.Nonce)
		quoteH.Observe(time.Since(t0).Seconds())
		scope.Swap(prev)
		challenges.Inc()
		if err != nil {
			chErrors.Inc()
			arec.Record(audit.Event{
				Type: audit.EventChallenge, Handle: -1,
				Trace: ctx.Trace, Detail: err.Error(),
			})
			alog.Sync()
			sp.Attr("error", err.Error()).End()
			return nil, err
		}
		arec.Record(audit.Event{
			Type: audit.EventChallenge, Handle: -1,
			Trace: ctx.Trace, Value: audit.Digest20(q.Composite),
		})
		// Seal a signed head per answered challenge: the challenge that
		// just went out is immediately provable, even though serve never
		// returns (and so never reaches Close) in steady state.
		alog.Sync()
		sp.End()
		return &attest.Evidence{Cert: sys.Cert, Quote: q, Log: log}, nil
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("answering attestation challenges on %s\n", l.Addr())
	if ready != nil {
		ready <- l.Addr().String()
	}
	return attest.Serve(l, respond, attest.WithTimeout(timeout))
}

func caFingerprint(sys *core.System) []byte {
	sum := sha1.Sum(sys.CA.Public().N.Bytes())
	return sum[:8]
}

// verify runs the verifier side. Trust anchors come from -anchors when
// given (cross-process), otherwise from rebuilding the shared-seed system
// in this process (the demo path). With -audit-dir, the verdict lands in
// a verifier-side audit log sharing a trace ID with the platform's
// challenge record, so tcbaudit can cross-check the two ends.
func verify(addr, anchorsPath string, timeout time.Duration, auditDir string) error {
	var (
		alog *audit.Log
		arec *audit.Recorder
	)
	if auditDir != "" {
		var err error
		alog, err = audit.Open(audit.Config{Dir: auditDir, Node: "attestd-verifier"})
		if err != nil {
			return err
		}
		defer alog.Close()
		arec = alog.Recorder(nil, -1)
	}
	var v *attest.Verifier
	if anchorsPath != "" {
		f, err := os.Open(anchorsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		var a anchorsFile
		if err := gob.NewDecoder(f).Decode(&a); err != nil {
			return fmt.Errorf("reading anchors: %w", err)
		}
		v = attest.NewVerifier(a.CAPub)
		v.Approve(a.PALName, a.PALMeas)
	} else {
		sys, p, err := buildSystem("")
		if err != nil {
			return err
		}
		v = attest.NewVerifier(sys.CA.Public())
		v.Approve(p.Name, p.Measurement())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	nonce := []byte(fmt.Sprintf("attestd-nonce-%d", os.Getpid()))
	opts := []attest.Option{attest.WithTimeout(timeout)}
	var trace obs.TraceID
	if arec != nil {
		// Mint a trace ID and propagate it on the challenge so the
		// platform's challenge record and this verdict share one ID.
		tr := obs.NewTracer(0)
		tr.SetNode(obs.NewNodeID())
		ctx := tr.NewTrace()
		trace = ctx.Trace
		opts = append(opts, attest.WithTraceContext(trace.String(), ctx.Span))
	}
	name, err := v.ChallengeAndVerify(conn, nonce, opts...)
	if err != nil {
		arec.Record(audit.Event{
			Type: audit.EventVerifyFail, Handle: -1,
			Trace: trace, Detail: err.Error(),
		})
		var te *attest.TimeoutError
		if errors.As(err, &te) {
			return fmt.Errorf("attestation TIMED OUT (%s after %v): %w", te.Op, te.Limit, err)
		}
		return fmt.Errorf("attestation REJECTED: %w", err)
	}
	arec.Record(audit.Event{
		Type: audit.EventVerifyOK, Handle: -1,
		Trace: trace, Detail: name,
	})
	fmt.Printf("attestation verified: platform ran %q under late launch\n", name)
	return nil
}

// batchDemo runs the batched, sessionful exchange end to end in one
// process: a chip with `jobs` registers parked in the Quote state answers
// batch challenges over the loopback. Round one opens a session — the AIK
// certificate chain and the TPM's signed session grant are verified once.
// Round two resumes the session: the batch is admitted over the HMAC
// channel with zero RSA operations on either side, which is the steady
// state palservd's batcher runs in.
func batchDemo(timeout time.Duration, jobs int) error {
	if jobs < 1 {
		return fmt.Errorf("batch: -jobs must be >= 1, got %d", jobs)
	}
	clock := sim.NewClock()
	// A sePCR quote consumes the register, so each round needs its own
	// set: 2*jobs registers, the first half for the opening batch, the
	// second for the resumed one.
	chip, err := tpm.New(clock, lpc.NewBus(clock, lpc.FullSpeed()),
		tpm.Config{KeyBits: 1024, Seed: demoSeed, NumSePCRs: 2 * jobs})
	if err != nil {
		return err
	}
	ca, err := attest.NewPrivacyCA(demoSeed, 1024)
	if err != nil {
		return err
	}
	cert, err := ca.Certify("attestd-batch", chip.AIKPublic())
	if err != nil {
		return err
	}
	v := attest.NewVerifier(ca.Public())

	// Park one register per job in the Quote state: allocate with the
	// PAL's measurement, then release execute access so only quoting
	// remains — exactly the state palservd leaves registers in between a
	// PAL's exit and its batched quote.
	handles := make([]int, 2*jobs)
	logs := map[int]attest.Log{}
	for i := 0; i < 2*jobs; i++ {
		name := fmt.Sprintf("batch-pal-%d", i)
		meas := evidence.Measure([]byte(name))
		v.Approve(name, meas)
		h, err := chip.AllocateSePCR(i, meas)
		if err != nil {
			return err
		}
		if err := chip.ReleaseSePCR(h, i); err != nil {
			return err
		}
		handles[i] = h
		logs[h] = attest.Log{{PCR: -1, Description: name, Measurement: meas}}
	}

	// The platform remembers the session it opened and keeps MACing
	// later batches under it — that is what lets the verifier resume
	// without re-checking the certificate chain.
	var sessionID uint64
	respond := func(ch attest.Challenge) (*attest.Evidence, error) {
		if !ch.Batch {
			return nil, errors.New("batch demo answers batch challenges only")
		}
		ev := &attest.Evidence{Cert: cert}
		if ch.OpenSession {
			grant, err := chip.OpenQuoteSession(ch.Nonce)
			if err != nil {
				return nil, err
			}
			ev.Grant = grant
			sessionID = grant.ID
		}
		reqs := make([]tpm.BatchRequest, len(ch.Handles))
		for i, h := range ch.Handles {
			reqs[i] = tpm.BatchRequest{Handle: h, Nonce: ch.JobNonces[i]}
		}
		q, err := chip.QuoteSePCRBatch(reqs, ch.Nonce, sessionID)
		if err != nil {
			return nil, err
		}
		ev.Batch = q
		ev.Logs = make([]attest.Log, len(ch.Handles))
		for i, h := range ch.Handles {
			ev.Logs[i] = logs[h]
		}
		return ev, nil
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go func() { _ = attest.Serve(l, respond, attest.WithTimeout(timeout)) }()
	round := func(n int) [][]byte {
		out := make([][]byte, jobs)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("batch-r%d-job-%d-%d", n, i, os.Getpid()))
		}
		return out
	}
	opts := []attest.Option{attest.WithTimeout(timeout)}

	// Round 1: open the session. One AIK signature covers the whole batch
	// (the Merkle root), one more covers the session grant.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	first, second := handles[:jobs], handles[jobs:]
	sess, ev, err := v.OpenRemoteSession(conn, []byte(fmt.Sprintf("open-%d", os.Getpid())),
		first, round(1), opts...)
	if err != nil {
		return fmt.Errorf("batched attestation REJECTED: %w", err)
	}
	b, err := v.AuthenticateBatch(cert, ev.Batch)
	if err != nil {
		return fmt.Errorf("batch signature REJECTED: %w", err)
	}
	names := make([]string, jobs)
	for i := range first {
		name, err := b.VerifyEntry(i, logs[first[i]], round(1)[i])
		if err != nil {
			return fmt.Errorf("inclusion proof for job %d REJECTED: %w", i, err)
		}
		names[i] = name
	}
	fmt.Printf("platform %q: batch of %d verified with one AIK quote signature\n",
		sess.PlatformID(), jobs)
	fmt.Printf("  merkle root %x covers jobs %v\n", ev.Batch.Root[:8], names)

	// Round 2: resume. The grant is not re-sent and no RSA runs — the
	// batch is admitted over the session's HMAC channel.
	conn2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	names2, err := v.ChallengeAndVerifyBatch(conn2, sess, []byte(fmt.Sprintf("resume-%d", os.Getpid())),
		second, round(2), opts...)
	if err != nil {
		return fmt.Errorf("session resume REJECTED: %w", err)
	}
	fmt.Printf("session resumed: batch of %d verified over HMAC, zero RSA (batches admitted on this session: %d)\n",
		len(names2), sess.Batches())
	fmt.Println("batch demo complete")
	return nil
}

// demo runs both halves over the loopback. With -audit-dir, the platform
// and verifier logs land in <dir>/platform and <dir>/verifier.
func demo(timeout time.Duration, auditDir string) error {
	serveDir, verifyDir := "", ""
	if auditDir != "" {
		serveDir = auditDir + "/platform"
		verifyDir = auditDir + "/verifier"
	}
	ready := make(chan string, 1)
	errs := make(chan error, 1)
	go func() { errs <- serve("127.0.0.1:0", "", "", timeout, serveDir, ready) }()
	select {
	case addr := <-ready:
		if err := verify(addr, "", timeout, verifyDir); err != nil {
			return err
		}
		fmt.Println("demo complete")
		return nil
	case err := <-errs:
		return err
	}
}
