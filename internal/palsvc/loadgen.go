package palsvc

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"minimaltcb/internal/sim"
)

// LoadConfig drives the built-in load generator. Two arrival models are
// supported:
//
//   - closed loop (default): Clients connections each submit back-to-back,
//     optionally paced so the aggregate rate approximates Rate. Offered load
//     sinks when the server slows down — fine for capacity probing, wrong
//     for latency measurement under overload.
//   - open loop (OpenLoop=true, requires Rate > 0): arrivals fire on a fixed
//     schedule regardless of how the server is doing, the model a
//     million-client fleet actually presents. Requests draw connections from
//     a pool of Clients reused connections; latency is measured from the
//     scheduled arrival, so time spent waiting for a free connection counts
//     against the server, exactly as a tenant would experience it.
//
// Tenants > 1 splits the workload into that many distinct tenants, each with
// its own name, its own source variant (so cluster routing by image
// measurement spreads them across shards instead of pinning every request to
// one), and — in open-loop mode — its own arrival pacer: per-tenant rate
// shaping is TenantRate when set, Rate/Tenants otherwise.
type LoadConfig struct {
	// Addr is the palsvc (or palrouter) server to hammer.
	Addr string
	// Clients is the number of concurrent client connections; default 4.
	// In open-loop mode this is the connection-pool size bounding in-flight
	// requests.
	Clients int
	// Rate is the aggregate request rate across all clients in requests
	// per second; <= 0 means submit as fast as responses come back
	// (closed loop only).
	Rate float64
	// OpenLoop switches to fixed-arrival-rate mode; it requires Rate > 0.
	OpenLoop bool
	// Tenants is the number of distinct tenants the load is split across;
	// <= 1 means a single tenant submitting Name/Source verbatim.
	Tenants int
	// TenantRate, when > 0, caps each tenant's arrival rate in open-loop
	// mode (default Rate/Tenants).
	TenantRate float64
	// DialTimeout bounds each connection's dial+handshake and every round
	// trip (see Dial); 0 keeps the legacy block-forever behaviour.
	DialTimeout time.Duration
	// Duration bounds the run; default 2s.
	Duration time.Duration

	// The job every request submits.
	Name       string
	Source     string
	Input      []byte
	DeadlineMS int64
	NoAttest   bool
}

// BackendLoad is the per-backend slice of a LoadReport, keyed on the
// WireResponse.Backend a routing front-end stamps into each answer.
type BackendLoad struct {
	Sent             int `json:"sent"`
	OK               int `json:"ok"`
	Rejected         int `json:"rejected"`
	DeadlineExceeded int `json:"deadline_exceeded"`
	Failed           int `json:"failed"`
}

// LoadReport summarizes one load-generator run.
type LoadReport struct {
	Clients int
	Tenants int
	Sent    int
	OK      int
	// Rejected counts responses whose retryable bit was set: admission
	// rejections (queue full / bank exhausted / shed) plus jobs whose
	// retry budget the server exhausted on a transient fault — either
	// way, the client is invited to resubmit.
	Rejected int
	// Rejection breakdown by wire code, so a capacity experiment can tell
	// submission backpressure from sePCR-bank exhaustion from fleet-wide
	// quarantine shedding at a glance. (Retry-budget exhaustion carries
	// no admission code and lands in none of the three.)
	RejectedQueueFull int
	RejectedBank      int
	RejectedShed      int
	DeadlineExceeded  int // non-retryable deadline expiries
	Failed            int // non-retryable job errors
	// ConnErrors counts transport-level failures (dial, timeout, torn
	// connection) — the outcomes that mean a request got *no* classified
	// answer. The cluster failover soak asserts this stays zero: a router
	// absorbing a backend death must never surface it to tenants.
	ConnErrors int
	Elapsed    time.Duration
	Throughput float64 // successful jobs per wall-clock second
	Latency    StageStats
	// PerBackend breaks outcomes down by the serving backend for runs
	// pointed at a cluster front-end; empty for a direct palservd run.
	PerBackend map[string]*BackendLoad
	// Slowest holds each tenant's slowest classified requests (slowest
	// first, at most loadSlowestK), each carrying the trace ID the server
	// echoed so the tail is immediately stitchable: paste it into
	// /debug/trace?trace=<id> or `tcbtrace -stitch ... -trace <id>`.
	Slowest map[string][]SlowRequest
}

// loadSlowestK bounds how many slow requests are kept per tenant.
const loadSlowestK = 3

// SlowRequest is one entry in LoadReport.Slowest.
type SlowRequest struct {
	Latency time.Duration `json:"latency_ns"`
	// TraceID is the server-echoed trace of this request ("" when the
	// server traces nothing).
	TraceID string `json:"trace_id,omitempty"`
}

func (r LoadReport) String() string {
	s := fmt.Sprintf(
		"clients=%d tenants=%d sent=%d ok=%d rejected=%d (queue_full=%d bank_exhausted=%d shed=%d) deadline_exceeded=%d failed=%d conn_errors=%d elapsed=%v throughput=%.1f jobs/s\nlatency: %v",
		r.Clients, r.Tenants, r.Sent, r.OK, r.Rejected, r.RejectedQueueFull, r.RejectedBank, r.RejectedShed,
		r.DeadlineExceeded, r.Failed, r.ConnErrors, r.Elapsed, r.Throughput, r.Latency)
	var b strings.Builder
	b.WriteString(s)
	if len(r.PerBackend) > 0 {
		addrs := make([]string, 0, len(r.PerBackend))
		for a := range r.PerBackend {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			bl := r.PerBackend[a]
			fmt.Fprintf(&b, "\nbackend %s: sent=%d ok=%d rejected=%d deadline_exceeded=%d failed=%d",
				a, bl.Sent, bl.OK, bl.Rejected, bl.DeadlineExceeded, bl.Failed)
		}
	}
	if len(r.Slowest) > 0 {
		tenants := make([]string, 0, len(r.Slowest))
		for t := range r.Slowest {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			fmt.Fprintf(&b, "\nslowest [%s]:", t)
			for _, sr := range r.Slowest[t] {
				fmt.Fprintf(&b, " %v", sr.Latency.Round(time.Microsecond))
				if sr.TraceID != "" {
					fmt.Fprintf(&b, " trace=%s", sr.TraceID)
				}
				b.WriteString(";")
			}
		}
	}
	return b.String()
}

// loadState is the shared accumulator all request goroutines report into.
type loadState struct {
	mu  sync.Mutex
	lat sim.Sample
	rep LoadReport
}

// record classifies one finished request. A nil resp with non-nil err is a
// transport failure; everything else got a classified answer and competes
// for the tenant's slowest-k slots (with its echoed trace ID, so the tail
// is stitchable).
func (st *loadState) record(tenant string, resp *WireResponse, err error, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.rep.Sent++
	if err == nil && resp != nil {
		st.noteSlow(tenant, d, resp.TraceID)
	}
	var bl *BackendLoad
	if resp != nil && resp.Backend != "" {
		if st.rep.PerBackend == nil {
			st.rep.PerBackend = make(map[string]*BackendLoad)
		}
		bl = st.rep.PerBackend[resp.Backend]
		if bl == nil {
			bl = &BackendLoad{}
			st.rep.PerBackend[resp.Backend] = bl
		}
		bl.Sent++
	}
	switch {
	case err != nil:
		st.rep.ConnErrors++
	case resp.OK:
		st.rep.OK++
		st.lat.Add(d)
		if bl != nil {
			bl.OK++
		}
	case resp.Retryable:
		st.rep.Rejected++
		switch resp.Code {
		case CodeQueueFull:
			st.rep.RejectedQueueFull++
		case CodeBankExhausted:
			st.rep.RejectedBank++
		case CodeShed:
			st.rep.RejectedShed++
		}
		if bl != nil {
			bl.Rejected++
		}
	case resp.Code == CodeDeadline:
		st.rep.DeadlineExceeded++
		if bl != nil {
			bl.DeadlineExceeded++
		}
	default:
		st.rep.Failed++
		if bl != nil {
			bl.Failed++
		}
	}
}

// noteSlow inserts one classified request into the tenant's slowest-k
// list (slowest first). Called with st.mu held.
func (st *loadState) noteSlow(tenant string, d time.Duration, trace string) {
	if st.rep.Slowest == nil {
		st.rep.Slowest = make(map[string][]SlowRequest)
	}
	l := append(st.rep.Slowest[tenant], SlowRequest{Latency: d, TraceID: trace})
	sort.Slice(l, func(i, j int) bool { return l[i].Latency > l[j].Latency })
	if len(l) > loadSlowestK {
		l = l[:loadSlowestK]
	}
	st.rep.Slowest[tenant] = l
}

// tenantJob derives tenant i's request. Each tenant beyond the first gets a
// distinct name and a source variant extended with unreachable, named data:
// the image (and therefore the measurement the attestation chain binds and a
// cluster router hashes) differs per tenant, so multi-tenant load actually
// exercises placement instead of collapsing onto one shard's cache.
func tenantJob(cfg *LoadConfig, i int) WireRequest {
	req := WireRequest{
		Name:       cfg.Name,
		Source:     cfg.Source,
		Input:      cfg.Input,
		DeadlineMS: cfg.DeadlineMS,
		NoAttest:   cfg.NoAttest,
	}
	if cfg.Tenants > 1 {
		req.Name = fmt.Sprintf("%s-t%d", cfg.Name, i)
		req.Source = fmt.Sprintf("%s\ntenant%d:\t.ascii %q\n", cfg.Source, i, fmt.Sprintf("t%d", i))
	}
	// The explicit tenant identity rides the wire as SLO-accounting
	// baggage on every hop (palsvc and the cluster router both key their
	// burn-rate trackers on it).
	req.Tenant = req.Name
	return req
}

// RunLoad runs the load generator against cfg.Addr and reports aggregate
// throughput and end-to-end request latency (wall-clock, as a tenant sees
// it).
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.OpenLoop && cfg.Rate <= 0 {
		return nil, fmt.Errorf("palsvc: open-loop load requires a positive Rate")
	}
	st := &loadState{}
	st.rep.Clients = cfg.Clients
	st.rep.Tenants = cfg.Tenants
	start := time.Now()
	var err error
	if cfg.OpenLoop {
		err = runOpenLoop(&cfg, st, start)
	} else {
		err = runClosedLoop(&cfg, st, start)
	}
	if err != nil {
		return nil, err
	}
	st.rep.Elapsed = time.Since(start)
	if secs := st.rep.Elapsed.Seconds(); secs > 0 {
		st.rep.Throughput = float64(st.rep.OK) / secs
	}
	st.rep.Latency = stageOf(&st.lat)
	return &st.rep, nil
}

// runClosedLoop is the original model: one goroutine per connection,
// back-to-back requests, optional pacing. Tenants rotate across requests:
// connection i sends tenants i, i+Clients, i+2·Clients, … (mod Tenants), so
// every tenant runs whatever the ratio of connections to tenants.
func runClosedLoop(cfg *LoadConfig, st *loadState, start time.Time) error {
	var pace time.Duration
	if cfg.Rate > 0 {
		pace = time.Duration(float64(cfg.Clients) / cfg.Rate * float64(time.Second))
	}
	stop := start.Add(cfg.Duration)
	reqs := make([]WireRequest, cfg.Tenants)
	for t := range reqs {
		reqs[t] = tenantJob(cfg, t)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		dialErr error
	)
	for i := 0; i < cfg.Clients; i++ {
		cl, err := Dial(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			mu.Lock()
			dialErr = err
			mu.Unlock()
			break
		}
		wg.Add(1)
		go func(cl *Client, next int) {
			defer wg.Done()
			defer cl.Close()
			for time.Now().Before(stop) {
				req := &reqs[next]
				next = (next + cfg.Clients) % len(reqs)
				t0 := time.Now()
				resp, err := cl.Run(req)
				d := time.Since(t0)
				st.record(req.Tenant, resp, err, d)
				if err != nil {
					return // connection-level error: this client is done
				}
				if pace > 0 {
					if sleep := pace - d; sleep > 0 {
						time.Sleep(sleep)
					}
				}
			}
		}(cl, i%len(reqs))
	}
	wg.Wait()
	st.mu.Lock()
	sent := st.rep.Sent
	st.mu.Unlock()
	if dialErr != nil && sent == 0 {
		return fmt.Errorf("palsvc: load generator dial: %w", dialErr)
	}
	return nil
}

// runOpenLoop fires arrivals on a fixed per-tenant schedule and serves them
// from a shared connection pool of cfg.Clients reused connections. An
// arrival that cannot get a connection waits for one — and that wait counts
// in its latency, because its clock starts at the *scheduled* arrival. The
// tenants' pacers are staggered by interval/Tenants, so arrivals interleave
// evenly instead of landing in bursts of Tenants.
func runOpenLoop(cfg *LoadConfig, st *loadState, start time.Time) error {
	perTenant := cfg.TenantRate
	if perTenant <= 0 {
		perTenant = cfg.Rate / float64(cfg.Tenants)
	}
	if perTenant <= 0 {
		return fmt.Errorf("palsvc: open-loop per-tenant rate must be positive")
	}
	interval := time.Duration(float64(time.Second) / perTenant)
	if interval <= 0 {
		interval = time.Microsecond
	}

	// The pool: pre-dialed connections recycled across requests. A
	// connection that suffers a transport error is replaced by a fresh
	// dial on its next checkout, so one torn conn does not shrink the
	// pool for the rest of the run.
	pool := make(chan *Client, cfg.Clients)
	dialed := 0
	for i := 0; i < cfg.Clients; i++ {
		cl, err := Dial(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			if dialed == 0 {
				return fmt.Errorf("palsvc: load generator dial: %w", err)
			}
			break
		}
		dialed++
		pool <- cl
	}
	for i := dialed; i < cfg.Clients; i++ {
		pool <- nil // placeholder: checkout re-dials lazily
	}

	stop := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Tenants; t++ {
		req := tenantJob(cfg, t)
		phase := time.Duration(t) * interval / time.Duration(cfg.Tenants)
		wg.Add(1)
		go func(req WireRequest) {
			defer wg.Done()
			time.Sleep(phase)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			var inflight sync.WaitGroup
			for now := range tick.C {
				if now.After(stop) {
					break
				}
				sched := now
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					cl := <-pool
					if cl == nil {
						var err error
						cl, err = Dial(cfg.Addr, cfg.DialTimeout)
						if err != nil {
							st.record(req.Tenant, nil, err, 0)
							pool <- nil
							return
						}
					}
					resp, err := cl.Run(&req)
					st.record(req.Tenant, resp, err, time.Since(sched))
					if err != nil {
						_ = cl.Close()
						pool <- nil // replaced on next checkout
						return
					}
					pool <- cl
				}()
			}
			inflight.Wait()
		}(req)
	}
	wg.Wait()
	for i := 0; i < cfg.Clients; i++ {
		if cl := <-pool; cl != nil {
			_ = cl.Close()
		}
	}
	return nil
}
