package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/sim"
)

// BackendState is the router's view of one backend, driven by the health
// prober and by request outcomes.
type BackendState int32

const (
	// StateHealthy: in the ring, accepting work.
	StateHealthy BackendState = iota
	// StateSaturated: in the ring — alive and authoritative about its own
	// admission — but its last answer or health probe showed no free
	// capacity, so routed work is likely to be stolen onward. Purely
	// informational (metrics, /debug/cluster); the backend's own admission
	// control remains the source of truth per request.
	StateSaturated
	// StateDraining: drained from the ring because the backend reported
	// fleet-wide quarantine (shed_load on every job). Still probed; rejoins
	// when its replicas recover.
	StateDraining
	// StateDown: drained from the ring after consecutive transport
	// failures (probe or request): the process is wedged, partitioned, or
	// dead. Still probed; rejoins on probe success.
	StateDown
)

func (s BackendState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSaturated:
		return "saturated"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// backend is one palservd replica behind the router: its connection pool,
// prober-maintained health view, and routing counters.
type backend struct {
	addr        string
	poolSize    int
	dialTimeout time.Duration
	reqTimeout  time.Duration

	// pool holds idle, reusable connections. A connection that suffers a
	// transport error is closed rather than returned, so the pool never
	// recycles a torn stream; marking the backend down drains it entirely.
	pool chan *palsvc.Client

	mu          sync.Mutex
	state       BackendState
	consecFails int               // consecutive transport failures (probe or request)
	lastHealth  palsvc.HealthInfo // most recent successful probe
	lastStats   *palsvc.Metrics   // most recent stats snapshot
	lastProbe   time.Time         // when lastHealth was taken
	lat         sim.Window        // router-measured end-to-end latency, this backend

	// Routing counters (atomic: bumped on the request path, read by
	// /metrics scrapes and /debug/cluster).
	routed    atomic.Uint64 // requests answered by this backend as primary
	stolen    atomic.Uint64 // requests answered by this backend as a steal target
	rejects   atomic.Uint64 // admission rejections this backend returned
	transport atomic.Uint64 // transport errors talking to this backend
	batched   atomic.Uint64 // answered run requests attested inside a batch quote
}

func newBackend(addr string, poolSize int, dialTimeout, reqTimeout time.Duration) *backend {
	return &backend{
		addr:        addr,
		poolSize:    poolSize,
		dialTimeout: dialTimeout,
		reqTimeout:  reqTimeout,
		pool:        make(chan *palsvc.Client, poolSize),
	}
}

// get checks out a pooled connection or dials a fresh one. Dialing is
// bounded by the backend's dial timeout and includes the ping handshake, so
// a black-holed backend fails fast instead of hanging the router's worker.
func (b *backend) get() (*palsvc.Client, error) {
	select {
	case c := <-b.pool:
		return c, nil
	default:
	}
	c, err := palsvc.Dial(b.addr, b.dialTimeout)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(b.reqTimeout)
	return c, nil
}

// put returns a healthy connection to the pool, closing it when full.
func (b *backend) put(c *palsvc.Client) {
	select {
	case b.pool <- c:
	default:
		_ = c.Close()
	}
}

// drainPool closes every idle connection — called when the backend goes
// down so later requests do not burn attempts on known-dead streams.
func (b *backend) drainPool() {
	for {
		select {
		case c := <-b.pool:
			_ = c.Close()
		default:
			return
		}
	}
}

// State returns the current state.
func (b *backend) State() BackendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// observe records one answered request's end-to-end latency.
func (b *backend) observe(d time.Duration) {
	b.mu.Lock()
	b.lat.Add(d)
	b.mu.Unlock()
}

// health returns the prober's last successful snapshot and its age.
func (b *backend) health() (palsvc.HealthInfo, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastHealth, b.lastProbe
}

// stats returns the prober's last stats snapshot (nil before the first).
func (b *backend) stats() *palsvc.Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastStats
}
