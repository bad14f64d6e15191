package main

import (
	"fmt"
	"time"

	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
)

// The deployment matches the palservd and palrouter defaults: the
// recommended HP dc5750 with an 8-register sePCR bank, 1024-bit keys,
// platform seed 42 (backend i of a fleet uses 42+i), one replica per
// backend, and every other palsvc.Config field at its zero value unless a
// workload sets it. None of it is taken from flags.
const (
	sePCRs       = 8
	keyBits      = 1024
	platformSeed = 42

	// conns is the connection budget of every service workload: the
	// benchmark host has two CPUs, so load comes from one pacer goroutine
	// feeding at most two connections.
	conns = 2

	// fleet is the number of backends behind the router in every service
	// workload.
	fleet = 2

	// dialTimeout bounds each client's dial, ping handshake and round trip.
	dialTimeout = 10 * time.Second
	// serveTimeout is the per-request connection deadline on the service
	// and router listeners (the palservd/palrouter -conn-timeout default).
	serveTimeout = 30 * time.Second
)

// workload is one fixed traffic mix. Everything a run depends on lives here;
// flags only pick the workload, the seed and the run length.
type workload struct {
	name string
	why  string
	// paper marks paper-regen: in-process experiment regeneration, no
	// service and no wire. Every other workload is client → cluster.Router
	// → fleet palsvc backends.
	paper    bool
	batch    palsvc.BatchPolicy
	tenants  int
	noAttest bool
	// closedOps is the workload's closed-loop throughput (ops/s), the
	// median of ten runs on a 2-CPU Xeon host. It sizes the warm-up and the
	// closed loop, which run a fixed number of ops: what the system keeps
	// (stage samples, memo tables) grows with the jobs it has served, so
	// every later phase and the final heap reading then follow the same
	// number of them.
	closedOps float64
	// rate is the open-loop arrival rate (arrivals/s), a constant so every
	// commit is measured at the same offered load: about 45% of closedOps
	// (noattest-routed 38%; at 19% its p50 was higher, 0.21 against 0.18ms,
	// as the CPUs idle between arrivals and each request waits for one to
	// wake).
	rate float64
	// seedPool is paper-regen's count of experiment seeds per run.
	seedPool int
}

// The benchmark host has two vCPUs shared with other tenants, and its speed
// for RSA arithmetic swings far more than for other code (over the same
// 16-second windows a single-thread RSA signing loop's rate spread 11.5%
// between its quartiles, a JSON and SHA-256 loop's 6.5%). A workload whose
// jobs are mostly one RSA signature (one-shot quotes) or whose latency is a
// preempted multi-millisecond PAL therefore spread past any bound from run to
// run; the three below stayed within theirs (see the package doc).
var workloads = []*workload{
	{
		name:      "attest-batched-routed",
		why:       "fleet path: router hop to 2 backends, Merkle batch quotes verified over HMAC sessions, so quote and verify are exercised",
		batch:     palsvc.BatchPolicy{MaxSize: 8},
		tenants:   16,
		closedOps: 1000,
		rate:      450,
	},
	{
		name:      "noattest-routed",
		why:       "quote and verify bypassed, so wire codec, router hop and queue dominate; 64 images overflow the 16-entry launch cache",
		tenants:   64,
		noAttest:  true,
		closedOps: 15800,
		rate:      6000,
	},
	{
		name:      "paper-regen",
		why:       "in-process regeneration of every paper table and figure: SEA, seal/unseal, late launch and the memos; no service, no wire",
		paper:     true,
		closedOps: 860,
		seedPool:  4,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// backendConfig is backend i's service configuration.
func (w *workload) backendConfig(i int) palsvc.Config {
	prof := platform.Recommended(platform.HPdc5750(), sePCRs)
	prof.KeyBits = keyBits
	prof.Seed = platformSeed + uint64(i)
	return palsvc.Config{Profile: prof, Batch: w.batch}
}

// echoSource is the palservd loadgen PAL: it echoes up to 32 input bytes.
const echoSource = `
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

// tenantName and tenantSource give tenant t its own name and its own image:
// the source is extended with unreachable named data, so the measurement
// the quote binds and the router hashes differs per tenant.
func (w *workload) tenantName(t int) string { return fmt.Sprintf("%s-t%d", w.name, t) }

func (w *workload) tenantSource(t int) string {
	return fmt.Sprintf("%s\ntenant%d:\t.ascii %q\n", echoSource, t, fmt.Sprintf("t%d", t))
}

// arrival is one generated request and the output it must produce.
type arrival struct {
	index  int
	tenant int
	req    palsvc.WireRequest
	want   []byte
}

// Stream salts keep the phases' inputs independent of each other.
const (
	saltWarmup uint64 = iota + 1
	saltClosed
	saltOpen
	saltPaper
	saltSystem
)

// stream is a workload's seeded arrival sequence: arrival i of a stream is a
// pure function of (seed, salt, i), so any prefix can be regenerated — the
// traced replay walks the same first arrivals the open loop sent. Tenants
// come in rounds: each round of len(names) arrivals is a seeded shuffle of
// every tenant, so each arrival's tenant is drawn from the seed while every
// tenant, and so every backend, gets the same share of a whole number of
// rounds whatever the seed. (With independent draws the backends' shares
// move with the seed, and with them the sizes of what each backend keeps.)
type stream struct {
	w     *workload
	seed  uint64
	salt  uint64
	names []string
	srcs  []string
}

func newStream(w *workload, seed, salt uint64) *stream {
	s := &stream{w: w, seed: seed, salt: salt}
	for t := 0; t < w.tenants; t++ {
		s.names = append(s.names, w.tenantName(t))
		s.srcs = append(s.srcs, w.tenantSource(t))
	}
	return s
}

// derive folds values into one well-mixed 64-bit seed.
func derive(vals ...uint64) uint64 {
	var acc uint64
	for _, v := range vals {
		acc = sim.NewRNG(acc ^ v).Uint64()
	}
	return acc
}

func (s *stream) at(i int) *arrival {
	n := len(s.names)
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	shuffle := sim.NewRNG(derive(s.seed, s.salt, roundTag, uint64(i/n)))
	for k := n - 1; k > 0; k-- {
		j := shuffle.Intn(k + 1)
		perm[k], perm[j] = perm[j], perm[k]
	}
	return s.forTenant(i, perm[i%n], sim.NewRNG(derive(s.seed, s.salt, uint64(i))))
}

// roundTag keeps the round shuffles' seeds apart from the arrivals'.
const roundTag = 0x726f756e64

// once is the warm-up arrival that runs tenant t's image for the first
// time.
func (s *stream) once(t int) *arrival {
	return s.forTenant(t, t, sim.NewRNG(derive(s.seed, s.salt, ^uint64(t))))
}

// forTenant builds arrival i for tenant t, drawing its input from r.
func (s *stream) forTenant(i, t int, r *sim.RNG) *arrival {
	a := &arrival{index: i, tenant: t}
	a.req.Input = make([]byte, 32)
	r.Fill(a.req.Input)
	a.want = a.req.Input
	a.req.Name = s.names[t]
	a.req.Tenant = s.names[t]
	a.req.Source = s.srcs[t]
	a.req.NoAttest = s.w.noAttest
	return a
}
