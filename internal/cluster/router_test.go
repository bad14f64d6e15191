package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/audit"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/palsvc"
)

// TestRouterAffinity pins the tentpole routing property: every submission
// of one image lands on the same backend — the ring's primary for that
// source — so that backend's decode/measure/verify caches take every hit.
func TestRouterAffinity(t *testing.T) {
	sA, lA := startBackend(t, palsvc.Config{})
	sB, lB := startBackend(t, palsvc.Config{})
	reg := obs.NewRegistry()
	r := newTestRouter(t, []string{lA.Addr().String(), lB.Addr().String()},
		func(c *Config) { c.Registry = reg })
	addr := serveRouter(t, r)

	cl, err := palsvc.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	want := r.Placement(helloSource)
	if len(want) != 2 {
		t.Fatalf("placement chain %v, want both backends", want)
	}
	const runs = 6
	for i := 0; i < runs; i++ {
		resp, err := cl.Run(&palsvc.WireRequest{Name: "affine", Source: helloSource})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("run %d failed: %s", i, resp.Err)
		}
		if resp.Backend != want[0] {
			t.Fatalf("run %d served by %s, want primary %s", i, resp.Backend, want[0])
		}
		if string(resp.Output) != "hello" {
			t.Fatalf("run %d output %q", i, resp.Output)
		}
	}

	// The affinity is what keeps one image cache hot: the primary compiled
	// the source once and served the rest from cache; the other backend
	// never saw it.
	primary, other := sA, sB
	if want[0] == lB.Addr().String() {
		primary, other = sB, sA
	}
	pm, om := primary.Metrics(), other.Metrics()
	if pm.CacheMisses != 1 || pm.CacheHits < runs-1 {
		t.Errorf("primary cache hits=%d misses=%d, want %d/1", pm.CacheHits, pm.CacheMisses, runs-1)
	}
	if om.Submitted != 0 {
		t.Errorf("non-primary backend saw %d submissions, want 0", om.Submitted)
	}

	snap := r.Snapshot()
	if snap.Routed != runs || snap.RoutedOK != runs || snap.Stolen != 0 {
		t.Errorf("snapshot routed=%d ok=%d stolen=%d, want %d/%d/0", snap.Routed, snap.RoutedOK, snap.Stolen, runs, runs)
	}

	// The router-measured latency: every answered run in the router's
	// window and in its primary's, none in the other backend's, and the
	// same window behind the /metrics quantiles.
	if l := snap.Latency; l.N != runs || l.P50 <= 0 || l.P50 > l.Max {
		t.Errorf("router latency %v, want %d observations", l, runs)
	}
	for _, b := range snap.Backends {
		n := 0
		if b.Addr == want[0] {
			n = runs
		}
		if b.Latency.N != n {
			t.Errorf("backend %s latency n=%d, want %d", b.Addr, b.Latency.N, n)
		}
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	p99 := fmt.Sprintf(`cluster_request_latency_seconds{quantile="0.99"} %g`, snap.Latency.P99.Seconds())
	if !strings.Contains(text.String(), p99) {
		t.Errorf("/metrics lacks %q", p99)
	}
}

// TestRouterStealsOnSaturation saturates a job's primary shard (bank of one,
// reject admission, register held by a spinner) and checks the router
// transparently re-places the job on the next ring successor instead of
// surfacing the rejection.
func TestRouterStealsOnSaturation(t *testing.T) {
	cfg := palsvc.Config{Profile: testProfile(1), Admission: palsvc.AdmitReject, Quantum: 50 * time.Microsecond}
	sA, lA := startBackend(t, cfg)
	sB, lB := startBackend(t, cfg)
	addrA, addrB := lA.Addr().String(), lB.Addr().String()
	r := newTestRouter(t, []string{addrA, addrB}, nil)
	addr := serveRouter(t, r)

	src := sourceForPrimary(t, r, addrA)

	// Wedge A's only sePCR with a spinner submitted directly; its deadline
	// releases the register once the test is done with it.
	tk, err := sA.Submit(hogJob(1500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "spinner to hold A's register", func() bool {
		return sA.Metrics().SePCROccupancy == 1
	})

	cl, err := palsvc.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Run(&palsvc.WireRequest{Name: "stolen", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("steal run failed: %s (code %s)", resp.Err, resp.Code)
	}
	if resp.Backend != addrB {
		t.Fatalf("served by %s, want steal target %s", resp.Backend, addrB)
	}

	snap := r.Snapshot()
	if snap.Stolen != 1 {
		t.Errorf("snapshot stolen=%d, want 1", snap.Stolen)
	}
	for _, b := range snap.Backends {
		switch b.Addr {
		case addrA:
			if b.Rejects == 0 {
				t.Errorf("primary %s recorded no rejects", addrA)
			}
		case addrB:
			if b.Stolen != 1 {
				t.Errorf("steal target %s stolen=%d, want 1", addrB, b.Stolen)
			}
		}
	}
	if m := sB.Metrics(); m.Completed == 0 {
		t.Error("steal target completed nothing")
	}
	tk.Wait() // deadline-killed; the outcome is the wedge test's concern
}

// TestRouterShedsWhenRingExhausted pins the cluster-wide shed contract:
// only when every placement candidate has rejected does the tenant see a
// rejection, and it is the typed, retryable shed_load regardless of what
// the individual backends answered.
func TestRouterShedsWhenRingExhausted(t *testing.T) {
	cfg := palsvc.Config{Profile: testProfile(1), Admission: palsvc.AdmitReject, Quantum: 50 * time.Microsecond}
	sA, lA := startBackend(t, cfg)
	routerLog, err := audit.Open(audit.Config{Dir: t.TempDir(), Node: "router"})
	if err != nil {
		t.Fatal(err)
	}
	defer routerLog.Close()
	r := newTestRouter(t, []string{lA.Addr().String()}, func(c *Config) {
		c.Audit = routerLog
	})
	addr := serveRouter(t, r)

	tk, err := sA.Submit(hogJob(1500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "spinner to hold the register", func() bool {
		return sA.Metrics().SePCROccupancy == 1
	})

	cl, err := palsvc.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Run(&palsvc.WireRequest{Name: "shed-me", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("run succeeded with the whole ring saturated")
	}
	if !resp.Retryable {
		t.Error("cluster shed not marked retryable")
	}
	if resp.Code != palsvc.CodeShed {
		t.Errorf("shed code %q, want %q (backend said bank_exhausted; the cluster decision rewrites it)", resp.Code, palsvc.CodeShed)
	}
	if resp.Backend != "" {
		t.Errorf("shed response attributed to backend %q, want none", resp.Backend)
	}
	if snap := r.Snapshot(); snap.Shed != 1 {
		t.Errorf("snapshot shed=%d, want 1", snap.Shed)
	}

	// The cluster-wide refusal is a trust decision: it must be on the
	// router's audit record, and the audit wire op must surface it (outer
	// dump) along with the backend's own log (nested).
	shedEvents, _ := routerLog.Select(audit.Query{})
	var sawShed bool
	for _, e := range shedEvents {
		if e.Type == audit.EventRouteShed {
			sawShed = true
		}
	}
	if !sawShed {
		t.Errorf("no %s event in the router audit log (%d events)", audit.EventRouteShed, len(shedEvents))
	}
	dump, err := cl.Audit(&palsvc.WireRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if dump.Node != "router" {
		t.Errorf("audit op outer node %q, want router", dump.Node)
	}
	if len(dump.Nodes) != 0 {
		// The single backend has no audit log configured, so the fleet
		// view carries no nested dumps — reaching it must not error.
		t.Errorf("unexpected nested dumps: %d", len(dump.Nodes))
	}

	tk.Wait() // deadline-killed, register freed

	// Capacity back: the same image now runs — the shed really was
	// retryable.
	waitFor(t, 5*time.Second, "register to free", func() bool {
		return sA.Metrics().SePCROccupancy == 0
	})
	resp, err = cl.Run(&palsvc.WireRequest{Name: "shed-me", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("post-shed retry failed: %s", resp.Err)
	}
}

// TestProberDrainsSheddingBackend feeds the router a backend reporting
// fleet-wide quarantine (PR5's shed signal) and checks the prober drains it
// from the ring, counts its replicas as quarantined cluster-wide, and
// rejoins it when it recovers.
func TestProberDrainsSheddingBackend(t *testing.T) {
	_, lA := startBackend(t, palsvc.Config{})
	stub := startStub(t, &palsvc.HealthInfo{
		Replicas: 2, QuarantinedReplicas: 2, Bank: 8, QueueCap: 64, Shedding: true,
	}, palsvc.Metrics{})
	r := newTestRouter(t, []string{lA.Addr().String(), stub.addr()}, nil)

	waitFor(t, 5*time.Second, "shedding backend to drain", func() bool {
		return !r.Ring().Has(stub.addr())
	})
	if snap := r.Snapshot(); snap.Drained == 0 {
		t.Error("drain not counted")
	}
	h := r.ClusterHealth()
	if h.QuarantinedReplicas < 2 {
		t.Errorf("cluster health quarantined=%d, want the drained backend's 2 replicas counted", h.QuarantinedReplicas)
	}
	if h.Shedding {
		t.Error("cluster marked shedding with a healthy backend still in the ring")
	}

	// Placement must avoid the drained backend entirely.
	for i := 0; i < 32; i++ {
		for _, a := range r.Placement(sourceForPrimary(t, r, lA.Addr().String())) {
			if a == stub.addr() {
				t.Fatal("drained backend still in a placement chain")
			}
		}
	}

	// Recovery: quarantine expired, replicas back.
	stub.setHealth(&palsvc.HealthInfo{Replicas: 2, Bank: 8, QueueCap: 64, FreeSePCRs: 8})
	waitFor(t, 5*time.Second, "recovered backend to rejoin", func() bool {
		return r.Ring().Has(stub.addr())
	})
	if snap := r.Snapshot(); snap.Rejoined == 0 {
		t.Error("rejoin not counted")
	}
}

// TestProberHealthFallbackOldServer points the router (and a bare client)
// at a server that predates the health op: the probe must degrade to the
// stats op instead of failing, and the backend stays in the ring.
func TestProberHealthFallbackOldServer(t *testing.T) {
	stub := startStub(t, nil, palsvc.Metrics{
		QueueDepth: 3, SePCRCapacity: 8, SePCROccupancy: 2,
	})

	// Client-level: Health() synthesizes a degraded HealthInfo from stats.
	cl, err := palsvc.Dial(stub.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Health()
	if err != nil {
		t.Fatalf("health fallback failed: %v", err)
	}
	if !h.Degraded {
		t.Error("fallback HealthInfo not marked degraded")
	}
	if h.QueueDepth != 3 || h.FreeSePCRs != 6 || h.Bank != 8 {
		t.Errorf("fallback health %+v, want queue=3 free=6 bank=8", h)
	}

	// Router-level: the prober keeps the old server in rotation.
	r := newTestRouter(t, []string{stub.addr()}, nil)
	waitFor(t, 5*time.Second, "prober to record a degraded health snapshot", func() bool {
		for _, b := range r.Snapshot().Backends {
			if b.Addr == stub.addr() && b.Health.Degraded {
				return true
			}
		}
		return false
	})
	if !r.Ring().Has(stub.addr()) {
		t.Error("old server drained from the ring despite answering stats")
	}
}

// TestRouterFailsOverDeadBackend kills one backend's network presence and
// checks requests keyed to it are served by the survivor with no
// tenant-visible error, and the dead backend is drained after ProbeFails.
func TestRouterFailsOverDeadBackend(t *testing.T) {
	_, lA := startBackend(t, palsvc.Config{})
	sB, lB := startBackend(t, palsvc.Config{})
	addrA, addrB := lA.Addr().String(), lB.Addr().String()
	r := newTestRouter(t, []string{addrA, addrB}, nil)
	addr := serveRouter(t, r)
	src := sourceForPrimary(t, r, addrA)

	lA.Kill()

	cl, err := palsvc.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Run(&palsvc.WireRequest{Name: "failover", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("failover run rejected: %s (code %s)", resp.Err, resp.Code)
	}
	if resp.Backend != addrB {
		t.Fatalf("served by %s, want survivor %s", resp.Backend, addrB)
	}
	if sB.Metrics().Completed == 0 {
		t.Error("survivor completed nothing")
	}

	waitFor(t, 5*time.Second, "dead backend to leave the ring", func() bool {
		return !r.Ring().Has(addrA)
	})
	snap := r.Snapshot()
	if snap.Downed == 0 {
		t.Error("down transition not counted")
	}
	for _, b := range snap.Backends {
		if b.Addr == addrA && b.State != StateDown.String() {
			t.Errorf("dead backend state %s, want %s", b.State, StateDown)
		}
	}
}

// TestClusterAggregation drives jobs through the router and checks the
// stats and health ops answer with fleet-wide sums.
func TestClusterAggregation(t *testing.T) {
	sA, lA := startBackend(t, palsvc.Config{})
	sB, lB := startBackend(t, palsvc.Config{})
	reg := obs.NewRegistry()
	r := newTestRouter(t, []string{lA.Addr().String(), lB.Addr().String()},
		func(c *Config) { c.Registry = reg })
	addr := serveRouter(t, r)

	cl, err := palsvc.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One image pinned to each backend so both sides contribute.
	for _, src := range []string{
		sourceForPrimary(t, r, lA.Addr().String()),
		sourceForPrimary(t, r, lB.Addr().String()),
	} {
		for i := 0; i < 3; i++ {
			resp, err := cl.Run(&palsvc.WireRequest{Name: "agg", Source: src})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.OK {
				t.Fatalf("run failed: %s", resp.Err)
			}
		}
	}

	wantSub := sA.Metrics().Submitted + sB.Metrics().Submitted
	if wantSub != 6 {
		t.Fatalf("backends submitted %d jobs total, want 6", wantSub)
	}
	// Stats are prober-sampled; wait for a cycle to observe the final state.
	waitFor(t, 5*time.Second, "prober to sample final stats", func() bool {
		m, err := cl.Stats()
		return err == nil && m.Submitted == wantSub
	})
	m, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 6 || m.Submitted != 6 {
		t.Errorf("cluster stats submitted=%d completed=%d, want 6/6", m.Submitted, m.Completed)
	}
	if m.Execute.N != 6 {
		t.Errorf("merged execute stage n=%d, want 6", m.Execute.N)
	}

	h, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Replicas != 2 {
		t.Errorf("cluster health replicas=%d, want 2", h.Replicas)
	}
	if h.Bank != sA.Bank()+sB.Bank() {
		t.Errorf("cluster health bank=%d, want %d", h.Bank, sA.Bank()+sB.Bank())
	}
	if h.Shedding {
		t.Error("cluster health shedding with both backends live")
	}
}

// TestRouterAnswersCoalescedFrames sends a run and a ping to the router in
// one write. The router serves through palsvc's connection loop, whose one
// reader per connection must answer both, in order.
func TestRouterAnswersCoalescedFrames(t *testing.T) {
	_, kl := startBackend(t, palsvc.Config{})
	backend := kl.Addr().String()
	r := newTestRouter(t, []string{backend}, nil)
	conn, err := net.Dial("tcp", serveRouter(t, r))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var frames bytes.Buffer
	for _, req := range []palsvc.WireRequest{
		{Op: palsvc.OpRun, Name: "hello", Source: helloSource},
		{Op: palsvc.OpPing},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := palsvc.WriteFrame(&frames, body); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	var run, ping palsvc.WireResponse
	for _, resp := range []*palsvc.WireResponse{&run, &ping} {
		body, err := palsvc.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, resp); err != nil {
			t.Fatal(err)
		}
	}
	if !run.OK || string(run.Output) != "hello" || run.Backend != backend {
		t.Errorf("first answer %+v, want the run's output from %s", run, backend)
	}
	if !ping.OK || ping.Backend != "" || len(ping.Output) != 0 {
		t.Errorf("second answer %+v, want the router's own ping answer", ping)
	}
}

// TestRouterMixedCodecFleet: a tenant that dialled the router sends run
// frames, the router forwards them as run frames to a backend that
// accepted its handshake offer and as JSON to one that predates run frames,
// and both answer. With stealing off, each answer comes from the backend
// the job was aimed at.
func TestRouterMixedCodecFleet(t *testing.T) {
	_, kl := startBackend(t, palsvc.Config{})
	current := kl.Addr().String()
	legacy := legacyBackend(t)
	r := newTestRouter(t, []string{current, legacy}, func(c *Config) { c.StealDepth = -1 })
	cl, err := palsvc.Dial(serveRouter(t, r), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, tc := range []struct{ backend, output string }{{current, "hello"}, {legacy, "legacy"}} {
		resp, err := cl.Run(&palsvc.WireRequest{Name: "mixed", Source: sourceForPrimary(t, r, tc.backend)})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Backend != tc.backend || string(resp.Output) != tc.output {
			t.Errorf("run aimed at %s answered %+v, want output %q from it", tc.backend, resp, tc.output)
		}
	}
}
