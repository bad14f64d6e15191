package cluster

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/sim"
)

// metrics is the router's own mutable state: cluster-level routing counters
// and the end-to-end latency distribution measured at the routing layer
// (queue wait inside a backend included — it is what a tenant sees).
type metrics struct {
	mu       sync.Mutex
	routedOK uint64 // answered requests, any backend, OK
	routed   uint64 // answered requests, any backend, any outcome
	stolen   uint64 // answers that came from a steal target, not the primary
	shed     uint64 // cluster-wide shed_load answers
	downed   uint64 // backends drained after transport failures
	drained  uint64 // backends drained on reported fleet-wide quarantine
	rejoined uint64 // backends re-added to the ring after recovery
	lat      sim.Window
}

func (m *metrics) observe(d time.Duration, ok bool) {
	m.mu.Lock()
	m.routed++
	if ok {
		m.routedOK++
	}
	m.lat.Add(d)
	m.mu.Unlock()
}

// latencyOf snapshots a latency window guarded by mu: the window is copied
// under mu and ranked after it is released, so the request path that takes
// mu never waits on a sort.
func latencyOf(mu *sync.Mutex, w *sim.Window) palsvc.StageStats {
	c := new(sim.Window)
	mu.Lock()
	*c = *w
	mu.Unlock()
	return palsvc.StageStatsOf(c)
}

func (m *metrics) incStolen()   { m.mu.Lock(); m.stolen++; m.mu.Unlock() }
func (m *metrics) incShed()     { m.mu.Lock(); m.shed++; m.mu.Unlock() }
func (m *metrics) incDowned()   { m.mu.Lock(); m.downed++; m.mu.Unlock() }
func (m *metrics) incDrained()  { m.mu.Lock(); m.drained++; m.mu.Unlock() }
func (m *metrics) incRejoined() { m.mu.Lock(); m.rejoined++; m.mu.Unlock() }

// BackendSnapshot is one backend's row in the cluster snapshot.
type BackendSnapshot struct {
	Addr        string            `json:"addr"`
	State       string            `json:"state"`
	InRing      bool              `json:"in_ring"`
	ConsecFails int               `json:"consec_fails"`
	LastProbe   time.Time         `json:"last_probe,omitempty"`
	Health      palsvc.HealthInfo `json:"health"`
	Routed      uint64            `json:"routed"`
	Stolen      uint64            `json:"stolen"`
	Rejects     uint64            `json:"rejects"`
	Transport   uint64            `json:"transport_errors"`
	Batched     uint64            `json:"batched,omitempty"`
	Latency     palsvc.StageStats `json:"latency"`
	Stats       *palsvc.Metrics   `json:"stats,omitempty"`
}

// Snapshot is the router's full observable state, served on /debug/cluster.
type Snapshot struct {
	RingMembers []string          `json:"ring_members"`
	Routed      uint64            `json:"routed"`
	RoutedOK    uint64            `json:"routed_ok"`
	Stolen      uint64            `json:"stolen"`
	Shed        uint64            `json:"shed"`
	Downed      uint64            `json:"backends_downed"`
	Drained     uint64            `json:"backends_drained"`
	Rejoined    uint64            `json:"backends_rejoined"`
	Latency     palsvc.StageStats `json:"latency"`
	Backends    []BackendSnapshot `json:"backends"`
	Cluster     palsvc.Metrics    `json:"cluster_stats"`
}

// Snapshot assembles the current cluster view.
func (r *Router) Snapshot() Snapshot {
	m := r.metrics
	m.mu.Lock()
	snap := Snapshot{
		RingMembers: nil,
		Routed:      m.routed,
		RoutedOK:    m.routedOK,
		Stolen:      m.stolen,
		Shed:        m.shed,
		Downed:      m.downed,
		Drained:     m.drained,
		Rejoined:    m.rejoined,
	}
	m.mu.Unlock()
	snap.Latency = latencyOf(&m.mu, &m.lat)
	snap.RingMembers = r.ring.Members()
	for _, b := range r.backends {
		b.mu.Lock()
		bs := BackendSnapshot{
			Addr:        b.addr,
			State:       b.state.String(),
			ConsecFails: b.consecFails,
			LastProbe:   b.lastProbe,
			Health:      b.lastHealth,
			Stats:       b.lastStats,
		}
		b.mu.Unlock()
		bs.Latency = latencyOf(&b.mu, &b.lat)
		bs.InRing = r.ring.Has(b.addr)
		bs.Routed = b.routed.Load()
		bs.Stolen = b.stolen.Load()
		bs.Rejects = b.rejects.Load()
		bs.Transport = b.transport.Load()
		bs.Batched = b.batched.Load()
		snap.Backends = append(snap.Backends, bs)
	}
	snap.Cluster = r.ClusterStats()
	return snap
}

// DebugHandler serves the snapshot as JSON — the /debug/cluster endpoint.
func (r *Router) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// bindRegistry exposes the router's cluster-level instruments: routing and
// resilience counters, per-backend routing counters and state gauges, the
// router-measured end-to-end latency quantiles (the cluster p50/p99 the
// acceptance run reads), and the aggregated per-backend job counters.
// Everything is callback-backed: a scrape reads live values, the request
// path pays nothing extra.
func (r *Router) bindRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := r.metrics
	counter := func(name, help string, read func(*metrics) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(read(m))
		})
	}
	counter("cluster_requests_routed_total", "Run requests answered by some backend.",
		func(m *metrics) uint64 { return m.routed })
	counter("cluster_requests_ok_total", "Run requests answered successfully.",
		func(m *metrics) uint64 { return m.routedOK })
	counter("cluster_requests_stolen_total", "Run requests answered by a steal target after the primary saturated or failed.",
		func(m *metrics) uint64 { return m.stolen })
	counter("cluster_requests_shed_total", "Run requests shed because every placement candidate rejected or was unreachable.",
		func(m *metrics) uint64 { return m.shed })
	counter("cluster_backends_downed_total", "Backends drained from the ring after consecutive transport failures.",
		func(m *metrics) uint64 { return m.downed })
	counter("cluster_backends_drained_total", "Backends drained from the ring after reporting fleet-wide quarantine.",
		func(m *metrics) uint64 { return m.drained })
	counter("cluster_backends_rejoined_total", "Backends re-added to the ring after recovery.",
		func(m *metrics) uint64 { return m.rejoined })

	reg.GaugeFunc("cluster_ring_size", "Backends currently in the consistent-hash ring.",
		func() float64 { return float64(r.ring.Size()) })

	obs.RegisterLatencyQuantiles(reg, "cluster_request_latency_seconds",
		"Router-measured end-to-end request latency, by quantile.",
		func() (p50, p95, p99, max float64) {
			s := latencyOf(&m.mu, &m.lat)
			return s.P50.Seconds(), s.P95.Seconds(), s.P99.Seconds(), s.Max.Seconds()
		})

	for _, b := range r.backends {
		b := b
		lbl := obs.Label{Name: "backend", Value: b.addr}
		reg.CounterFunc("cluster_backend_routed_total",
			"Requests answered by this backend as its primary placement.",
			func() float64 { return float64(b.routed.Load()) }, lbl)
		reg.CounterFunc("cluster_backend_stolen_total",
			"Requests answered by this backend as a work-stealing target.",
			func() float64 { return float64(b.stolen.Load()) }, lbl)
		reg.CounterFunc("cluster_backend_rejects_total",
			"Admission rejections this backend returned.",
			func() float64 { return float64(b.rejects.Load()) }, lbl)
		reg.CounterFunc("cluster_backend_transport_errors_total",
			"Transport failures (dial, timeout, torn connection) against this backend.",
			func() float64 { return float64(b.transport.Load()) }, lbl)
		reg.CounterFunc("cluster_backend_batched_total",
			"Answered run requests this backend attested inside a batch quote.",
			func() float64 { return float64(b.batched.Load()) }, lbl)
		reg.GaugeFunc("cluster_backend_state",
			"Backend state: 0 healthy, 1 saturated, 2 draining, 3 down.",
			func() float64 { return float64(b.State()) }, lbl)
		reg.GaugeFunc("cluster_backend_free_sepcrs",
			"Free sePCRs the backend reported on its last health probe.",
			func() float64 { h, _ := b.health(); return float64(h.FreeSePCRs) }, lbl)
	}

	// Aggregated job counters: the cluster-wide view of the per-backend
	// palsvc metrics, summed at scrape time from the probers' snapshots.
	agg := func(name, help string, read func(*palsvc.Metrics) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			var n uint64
			for _, b := range r.backends {
				if s := b.stats(); s != nil {
					n += read(s)
				}
			}
			return float64(n)
		})
	}
	agg("cluster_jobs_submitted_total", "Jobs submitted across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.Submitted })
	agg("cluster_jobs_completed_total", "Jobs completed across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.Completed })
	agg("cluster_quote_batches_total", "Batch quotes signed across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.QuoteBatches })
	agg("cluster_quote_signs_total", "AIK signatures spent in the quote stage across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.QuoteSigns })
	agg("cluster_jobs_failed_total", "Jobs failed across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.Failed })
	agg("cluster_jobs_retried_total", "Supervisor retries across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.Retried })
	agg("cluster_machine_quarantines_total", "Replica quarantine trips across all backends (prober-sampled).",
		func(m *palsvc.Metrics) uint64 { return m.Quarantines })
}
