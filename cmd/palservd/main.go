// Command palservd fronts internal/palsvc with a TCP server: a
// multi-tenant PAL-execution service whose admission control is bounded by
// the simulated platform's sePCR bank (§5.6 of the paper).
//
// Usage:
//
//	palservd [-addr 127.0.0.1:7080] [-machines N] [-sepcrs K] ...
//	    Serve the length-prefixed JSON job protocol (see
//	    internal/palsvc/wire.go) until killed.
//
//	palservd -loadgen [-clients N] [-rate R] [-duration D] [-addr A]
//	    Load-generator mode: hammer a palservd at -addr, or — when -addr
//	    is left at its default — self-host a server in-process first.
//	    Prints throughput and p50/p95/p99 end-to-end latency, then the
//	    server-side metrics snapshot.
//
//	palservd ... -chaos-profile soak[,k=v...] [-chaos-seed N]
//	    Either mode under deterministic fault injection (see
//	    docs/RESILIENCE.md). The seed is printed at startup so any run
//	    replays exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"minimaltcb/internal/chaos"
	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/platform"
)

// defaultPAL is what loadgen submits when no -pal file is given: it echoes
// its input through the attested channel.
const defaultPAL = `
	ldi r0, buf
	ldi r1, 32
	svc 7
	mov r1, r0
	ldi r0, buf
	svc 6
	ldi r0, 0
	svc 0
buf:	.ascii "--------------------------------"
`

func main() {
	var (
		addr        = flag.String("addr", "", "listen address (serve) or target address (loadgen); default 127.0.0.1:7080 / self-hosted")
		machines    = flag.Int("machines", 1, "platform replicas")
		sePCRs      = flag.Int("sepcrs", 8, "sePCR bank size per replica")
		workers     = flag.Int("workers", 0, "worker-pool size (0 = 2x total bank)")
		queueDepth  = flag.Int("queue", 64, "submission-queue depth")
		quantum     = flag.Duration("quantum", 0, "SLAUNCH preemption quantum, virtual time (0 = run to completion)")
		keyBits     = flag.Int("keybits", 1024, "RSA modulus size for the simulated TPM/CA")
		seed        = flag.Uint64("seed", 42, "platform randomness seed")
		deadline    = flag.Duration("deadline", 0, "default per-job deadline (0 = none)")
		connTimeout = flag.Duration("conn-timeout", 30*time.Second, "per-request connection deadline (0 = none)")
		reject      = flag.Bool("reject", false, "reject (not queue) jobs when the sePCR bank is exhausted")
		batchSize   = flag.Int("quote-batch", 0, "batch up to N completed jobs per attestation quote (one AIK signature per batch, verified over a per-machine session); 0 or 1 attests each job as a batch of one")

		chaosProfile = flag.String("chaos-profile", "", "fault-injection profile: off|light|heavy|tpm|storm|soak, optionally with k=v overrides (e.g. \"soak,tpm_fail=0.1\"); \"\" disables chaos")
		chaosSeed    = flag.Uint64("chaos-seed", 0, "fault-injection seed (0 = derive from time; the chosen seed is printed so any run can be replayed)")

		loadgen    = flag.Bool("loadgen", false, "run the load generator instead of serving")
		clients    = flag.Int("clients", 4, "loadgen: concurrent client connections (open-loop: connection-pool size)")
		rate       = flag.Float64("rate", 0, "loadgen: aggregate requests/second (0 = unpaced)")
		openLoop   = flag.Bool("open-loop", false, "loadgen: fixed-arrival-rate mode (requires -rate); latency counts from the scheduled arrival")
		tenants    = flag.Int("tenants", 1, "loadgen: distinct tenants to split the load across (each gets its own image, so cluster routing spreads them)")
		tenantRate = flag.Float64("tenant-rate", 0, "loadgen: per-tenant arrival-rate cap in open-loop mode (0 = rate/tenants)")
		duration   = flag.Duration("duration", 2*time.Second, "loadgen: run length")
		palFile    = flag.String("pal", "", "loadgen: PAL assembler source file (default: built-in echo PAL)")
		noAttest   = flag.Bool("no-attest", false, "loadgen: skip quote generation and verification")

		debugAddr   = flag.String("debug", "", "debug HTTP listen address for /metrics, /healthz, /debug/trace, /debug/pprof (\"\" disables)")
		trace       = flag.Bool("trace", false, "record execution traces (implied by -debug or -trace-out)")
		traceBuf    = flag.Int("trace-buf", 0, "trace recorder ring capacity (0 = default 8192)")
		traceOut    = flag.String("trace-out", "", "write the trace dump to this file on exit (self-hosted loadgen only)")
		traceFormat = flag.String("trace-format", "chrome", "trace dump format: chrome (Perfetto-loadable) or jsonl")
		profile     = flag.Bool("profile", false, "record the exact virtual-cycle profile (served at /debug/profile; implied by -profile-out)")
		profileOut  = flag.String("profile-out", "", "write the profile JSON (tcbprof input) to this file on exit (self-hosted loadgen only)")
		crashDir    = flag.String("crash-dir", "", "persist fault flight-recorder bundles to <dir>/crashes.jsonl")
		auditDir    = flag.String("audit-dir", "", "persist the tamper-evident attestation audit log (Merkle tree + AIK-signed heads) under this directory; query/verify with tcbaudit")

		sloObjective = flag.Float64("slo-objective", 0.99, "SLO good-request objective for per-tenant burn-rate accounting")
		sloTarget    = flag.Duration("slo-target", 250*time.Millisecond, "SLO latency target: slower successes count against the error budget (<0 disables)")
	)
	flag.Parse()

	dbg := debugOpts{
		addr: *debugAddr, trace: *trace, traceBuf: *traceBuf,
		traceOut: *traceOut, traceFormat: *traceFormat,
		profile: *profile, profileOut: *profileOut, crashDir: *crashDir,
		sloObjective: *sloObjective, sloTarget: *sloTarget,
		auditDir: *auditDir,
	}
	svcCfg := serviceConfig(*machines, *sePCRs, *workers, *queueDepth,
		*quantum, *keyBits, *seed, *deadline, *reject)
	svcCfg.Batch = palsvc.BatchPolicy{MaxSize: *batchSize}
	if err := applyChaos(&svcCfg, *chaosProfile, *chaosSeed); err != nil {
		fmt.Fprintf(os.Stderr, "palservd: %v\n", err)
		os.Exit(2)
	}
	var err error
	if *loadgen {
		err = runLoadgen(loadgenOpts{
			addr: *addr, clients: *clients, rate: *rate, duration: *duration,
			openLoop: *openLoop, tenants: *tenants, tenantRate: *tenantRate,
			palFile: *palFile, noAttest: *noAttest,
			svc:         svcCfg,
			connTimeout: *connTimeout,
			debug:       dbg,
		})
	} else {
		listen := *addr
		if listen == "" {
			listen = "127.0.0.1:7080"
		}
		err = runServer(listen, *connTimeout, svcCfg, dbg, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "palservd: %v\n", err)
		os.Exit(1)
	}
}

func serviceConfig(machines, sePCRs, workers, queueDepth int,
	quantum time.Duration, keyBits int, seed uint64,
	deadline time.Duration, reject bool) palsvc.Config {
	prof := platform.Recommended(platform.HPdc5750(), sePCRs)
	prof.KeyBits = keyBits
	prof.Seed = seed
	cfg := palsvc.Config{
		Profile:         prof,
		Machines:        machines,
		Workers:         workers,
		QueueDepth:      queueDepth,
		Quantum:         quantum,
		DefaultDeadline: deadline,
	}
	if reject {
		cfg.Admission = palsvc.AdmitReject
	}
	return cfg
}

// applyChaos parses -chaos-profile/-chaos-seed into the service config. A
// non-trivial profile also enables the supervisor defaults (retry with
// backoff, replica quarantine) — injecting faults without supervision would
// just measure how fast jobs can fail. The effective seed is always
// printed: replaying any run, including one that derived its seed from the
// clock, only takes passing that number back via -chaos-seed.
func applyChaos(cfg *palsvc.Config, profile string, seed uint64) error {
	if profile == "" {
		return nil
	}
	p, err := chaos.ParseProfile(profile)
	if err != nil {
		return err
	}
	if !p.Enabled() {
		return nil
	}
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	cfg.Chaos = chaos.New(seed, p)
	cfg.Retry = palsvc.DefaultRetryPolicy()
	cfg.Supervisor = palsvc.DefaultSupervisorPolicy()
	fmt.Printf("palservd: chaos profile [%v] seed %d (replay with -chaos-profile %q -chaos-seed %d)\n",
		p, seed, profile, seed)
	return nil
}

// runServer builds the service and serves until the listener dies. If ready
// is non-nil the bound address is sent once listening (tests and loadgen
// self-hosting use it).
func runServer(addr string, connTimeout time.Duration, cfg palsvc.Config, dbg debugOpts, ready chan<- string) error {
	d := newDebugStack(dbg)
	if err := d.openAudit(dbg.auditDir, "palservd"); err != nil {
		return err
	}
	defer d.closeAudit()
	d.apply(&cfg)
	s, err := palsvc.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := d.serve(dbg.addr, s); err != nil {
		return err
	}
	defer d.shutdown("palservd shutting down")
	defer func() { _ = d.writeProfile(dbg.profileOut, s) }()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("palservd: %d machine(s) x %d sePCRs (bank %d), queue depth %d\n",
		cfg.Machines, cfg.Profile.NumSePCRs, s.Bank(), cfg.QueueDepth)
	fmt.Printf("palservd: serving PAL jobs on %s\n", l.Addr())
	if ready != nil {
		ready <- l.Addr().String()
	}
	stopping := shutdownOnSignal(l, "palservd")
	err = s.Serve(l, connTimeout)
	if stopping.Load() {
		return nil
	}
	return err
}

// shutdownOnSignal closes l on SIGINT/SIGTERM so the blocking Serve
// returns and the deferred closers run — in particular the audit log's
// Close, whose final signed head must cover the whole tail. Without this
// the process dies mid-segment and every event since the last periodic
// head is unprovable.
func shutdownOnSignal(l net.Listener, name string) *atomic.Bool {
	var stopping atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		stopping.Store(true)
		fmt.Printf("%s: %v — shutting down\n", name, sig)
		l.Close()
	}()
	return &stopping
}

type loadgenOpts struct {
	addr        string
	clients     int
	rate        float64
	openLoop    bool
	tenants     int
	tenantRate  float64
	duration    time.Duration
	palFile     string
	noAttest    bool
	svc         palsvc.Config
	connTimeout time.Duration
	debug       debugOpts
}

// runLoadgen drives palsvc.RunLoad, self-hosting a server when no target
// address is given.
func runLoadgen(o loadgenOpts) error {
	src := defaultPAL
	name := "loadgen-echo"
	if o.palFile != "" {
		b, err := os.ReadFile(o.palFile)
		if err != nil {
			return err
		}
		src, name = string(b), o.palFile
	}

	target := o.addr
	var hosted *palsvc.Service
	d := newDebugStack(o.debug)
	if target == "" {
		// Tracing and metrics live server-side: they only capture
		// anything when the server is hosted in this process.
		if err := d.openAudit(o.debug.auditDir, "palservd"); err != nil {
			return err
		}
		defer d.closeAudit()
		d.apply(&o.svc)
		s, err := palsvc.New(o.svc)
		if err != nil {
			return err
		}
		hosted = s
		defer s.Close()
		if err := d.serve(o.debug.addr, s); err != nil {
			return err
		}
		defer d.shutdown("loadgen finished")
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		go func() { _ = s.Serve(l, o.connTimeout) }()
		target = l.Addr().String()
		fmt.Printf("palservd: self-hosted server on %s (bank %d)\n", target, s.Bank())
	}

	fmt.Printf("palservd: loadgen %d client(s) against %s for %v\n",
		o.clients, target, o.duration)
	rep, err := palsvc.RunLoad(palsvc.LoadConfig{
		Addr:        target,
		Clients:     o.clients,
		Rate:        o.rate,
		OpenLoop:    o.openLoop,
		Tenants:     o.tenants,
		TenantRate:  o.tenantRate,
		DialTimeout: o.connTimeout,
		Duration:    o.duration,
		Name:        name,
		Source:      src,
		Input:       []byte("loadgen"),
		NoAttest:    o.noAttest,
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)

	// Server-side view: either from the self-hosted service or over the
	// wire from the remote one.
	var stats *palsvc.Metrics
	if hosted != nil {
		m := hosted.Metrics()
		stats = &m
	} else if cl, err := palsvc.Dial(target, o.connTimeout); err == nil {
		defer cl.Close()
		stats, _ = cl.Stats()
	}
	if stats != nil {
		out, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("server metrics:\n%s\n", out)
	}

	// Capacity runs double as profiling runs: append the per-tenant
	// virtual-cycle totals and hottest basic blocks to the report.
	if hosted != nil && d.profiler != nil {
		if p := hosted.Profile(); p != nil {
			fmt.Println("virtual-cycle profile:")
			p.WriteSummary(os.Stdout, 3)
		}
		if err := d.writeProfile(o.debug.profileOut, hosted); err != nil {
			return err
		}
	}
	return d.writeTrace(o.debug.traceOut, o.debug.traceFormat)
}
