package palsvc

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestClosedLoopRunsEveryTenant: with fewer connections than tenants, the
// closed loop still runs every tenant, because tenants rotate across each
// connection's requests instead of being pinned to it.
func TestClosedLoopRunsEveryTenant(t *testing.T) {
	s := newTestService(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l, 10*time.Second) }()

	rep, err := RunLoad(LoadConfig{
		Addr: l.Addr().String(), Clients: 2, Tenants: 4, Duration: 300 * time.Millisecond,
		Name: "echo", Source: echoSource, Input: []byte("hi"), NoAttest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != rep.Sent || rep.OK == 0 {
		t.Fatalf("load did not run cleanly: %v", rep)
	}
	for _, tenant := range []string{"echo-t0", "echo-t1", "echo-t2", "echo-t3"} {
		if len(rep.Slowest[tenant]) == 0 {
			t.Errorf("tenant %s never ran: %v", tenant, rep)
		}
	}
}

// arrivalServer speaks just enough of the wire protocol for the load
// generator: every request gets {"ok":true}, and the arrival time of every
// run request is recorded.
func arrivalServer(t *testing.T) (addr string, arrivals func() []time.Time) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var (
		mu    sync.Mutex
		times []time.Time
	)
	go func() {
		_ = ServeConns(l, 0, func(req *WireRequest) *WireResponse {
			if req.Op == OpRun {
				mu.Lock()
				times = append(times, time.Now())
				mu.Unlock()
			}
			return &WireResponse{OK: true}
		})
	}()
	return l.Addr().String(), func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(times)
	}
}

// TestOpenLoopStaggersTenantPacers: the open loop's per-tenant pacers are
// phase-shifted, so arrivals come evenly spaced at interval/Tenants rather
// than in bursts of Tenants every interval.
func TestOpenLoopStaggersTenantPacers(t *testing.T) {
	addr, arrivals := arrivalServer(t)
	const tenants = 4
	// 40/s over 4 tenants: each tenant every 100ms, one arrival every 25ms.
	rep, err := RunLoad(LoadConfig{
		Addr: addr, Clients: tenants, Tenants: tenants, OpenLoop: true, Rate: 40,
		Duration: 650 * time.Millisecond, Name: "echo", Source: echoSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	at := arrivals()
	if len(at) < 12 || rep.OK != len(at) {
		t.Fatalf("%d arrivals, report %v", len(at), rep)
	}
	slices.SortFunc(at, func(a, b time.Time) int { return a.Compare(b) })
	gaps := make([]time.Duration, len(at)-1)
	for i := range gaps {
		gaps[i] = at[i+1].Sub(at[i])
	}
	slices.Sort(gaps)
	// Lockstep pacers put three of every four gaps at ~0; staggered ones
	// put them all near 25ms. The median tolerates scheduler jitter.
	if med := gaps[len(gaps)/2]; med < 10*time.Millisecond {
		t.Fatalf("median gap between arrivals %v, want ~25ms (gaps %v)", med, gaps)
	}
}
