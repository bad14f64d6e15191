package main

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/sim"
)

// fakeBackend speaks the wire protocol and echoes each run request's input.
// Every request passes one lock, so stalling one request stalls them all,
// the way a held machine lock does. It records which tenants each
// connection sent.
type fakeBackend struct {
	l       net.Listener
	mu      sync.Mutex
	n       int
	stallAt int // 1-based run request to stall; 0 = none
	stall   time.Duration
	seen    []map[string]bool // per connection
	wg      sync.WaitGroup
}

func startFake(t *testing.T, stallAt int, stall time.Duration) *fakeBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{l: l, stallAt: stallAt, stall: stall}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			seen := map[string]bool{}
			f.seen = append(f.seen, seen)
			f.mu.Unlock()
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer c.Close()
				f.serve(c, seen)
			}()
		}
	}()
	t.Cleanup(func() { _ = l.Close(); f.wg.Wait() })
	return f
}

func (f *fakeBackend) serve(c net.Conn, seen map[string]bool) {
	for {
		body, err := palsvc.ReadFrame(c)
		if err != nil {
			return
		}
		var req palsvc.WireRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		resp := palsvc.WireResponse{OK: true}
		if req.Op == palsvc.OpRun {
			f.mu.Lock()
			f.n++
			if f.n == f.stallAt {
				time.Sleep(f.stall)
			}
			seen[req.Name] = true
			f.mu.Unlock()
			resp.Output = req.Input
		}
		out, err := json.Marshal(&resp)
		if err != nil {
			return
		}
		if err := palsvc.WriteFrame(c, out); err != nil {
			return
		}
	}
}

// echoArrivals builds n unattested echo arrivals over two tenants.
func echoArrivals(n int) []*arrival {
	out := make([]*arrival, n)
	for i := range out {
		in := []byte(fmt.Sprintf("input-%d", i))
		out[i] = &arrival{index: i, tenant: i % 2, want: in,
			req: palsvc.WireRequest{Name: fmt.Sprintf("t%d", i%2), Source: "src", Input: in}}
	}
	return out
}

// TestOpenLoopCarriesStall stalls the 200th request for 50ms: the arrivals
// scheduled during the stall must carry it in their latency, timed from
// their scheduled send, and in the generator's lateness.
func TestOpenLoopCarriesStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	f := startFake(t, 200, stall)
	const rate = 2000 // one arrival every 500µs
	p, err := openLoop("open", f.l.Addr().String(), conns, rate, echoArrivals(1000), &checker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.OK != 1000 || p.failed() != 0 {
		t.Fatalf("ok=%d failed=%d (%s)", p.OK, p.failed(), p.FirstError)
	}
	// About 100 arrivals fall inside the stall; the one due right after it
	// began waits nearly the whole 50ms, later ones less.
	if max := p.Latency.Max(); max < 40*time.Millisecond {
		t.Errorf("max latency %v: the stall did not reach later arrivals", max)
	}
	// Arrivals due in the first ~45ms of the stall wait more than 5ms:
	// about 9% of the 1000, so the p95 is one of them.
	if p95 := p.Latency.Percentile(95); p95 < 5*time.Millisecond {
		t.Errorf("p95 %v: the arrivals behind the stall did not wait for it", p95)
	}
	late, err := percentile(&p.Late, 99)
	if err != nil {
		t.Fatal(err)
	}
	if late.Value < 30*time.Millisecond {
		t.Errorf("gen.late p99 %v: the generator's lateness does not show the stall", late.Value)
	}
}

// TestOpenLoopOnSchedule checks the pacer keeps its schedule against a
// backend that never stalls.
func TestOpenLoopOnSchedule(t *testing.T) {
	f := startFake(t, 0, 0)
	p, err := openLoop("open", f.l.Addr().String(), conns, 2000, echoArrivals(400), &checker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * time.Millisecond; p.Elapsed < want-10*time.Millisecond {
		t.Errorf("400 arrivals at 2000/s took %v, want about %v", p.Elapsed, want)
	}
	if p50 := p.Late.Percentile(50); p50 > 2*time.Millisecond {
		t.Errorf("median lateness %v", p50)
	}
}

// TestPercentileTail checks that a reported percentile always has at least
// minTail samples beyond it and carries its sample count.
func TestPercentileTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		ok     bool
		beyond int
	}{
		{999, 99, false, 9},
		{1000, 99, true, 10},
		{19, 50, false, 9},
		{20, 50, true, 10},
		{0, 50, false, 0},
	} {
		var s sim.Sample
		for i := 1; i <= tc.n; i++ {
			s.Add(time.Duration(i))
		}
		q, err := percentile(&s, tc.p)
		if (err == nil) != tc.ok || q.N != tc.n || q.Beyond != tc.beyond {
			t.Errorf("p%g of %d: %+v, err %v; want ok=%v beyond=%d", tc.p, tc.n, q, err, tc.ok, tc.beyond)
		}
	}
	r := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(3000)
		var s sim.Sample
		vals := make([]time.Duration, n)
		for i := range vals {
			vals[i] = time.Duration(r.Uint64() >> 1) // distinct with overwhelming odds
			s.Add(vals[i])
		}
		for _, p := range []float64{50, 90, 99, 99.9} {
			q, err := percentile(&s, p)
			if err != nil {
				continue
			}
			above := 0
			for _, v := range vals {
				if v > q.Value {
					above++
				}
			}
			if q.N != n || above != q.Beyond || q.Beyond < minTail {
				t.Fatalf("p%g of %d: %+v but %d samples lie above it", p, n, q, above)
			}
		}
	}
}

// TestWindowedP50 checks that slow windows short of half the phase do not
// move p50_ms, which the whole phase's median would, and that a window too
// small for its median is an error.
func TestWindowedP50(t *testing.T) {
	var p phase
	p.startWindows(time.Now(), 500, 5)
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Duration(100+i) * time.Microsecond
			if w == 1 || w == 3 {
				lat *= 10
			}
			p.OK++
			p.noteOK(time.Now(), lat)
		}
	}
	got, err := p.latencyP50()
	if err != nil {
		t.Fatal(err)
	}
	if want := 149 * time.Microsecond; got != want {
		t.Errorf("windowed p50 %v, want %v", got, want)
	}
	if whole := p.Latency.Percentile(50); whole <= got {
		t.Errorf("whole-phase median %v: the slow windows should have raised it above %v", whole, got)
	}

	var short phase
	short.startWindows(time.Now(), 30, 2)
	for i := 0; i < 30; i++ {
		short.OK++
		short.noteOK(time.Now(), time.Millisecond)
	}
	if _, err := short.latencyP50(); err == nil {
		t.Error("windows of 15 samples: want an error for their medians")
	}
}

// TestTenantsDrawnPerArrival checks that the two connections of a closed
// loop each send every tenant of the workload, that every round of arrivals
// holds each tenant once, and that a seed fixes the stream.
func TestTenantsDrawnPerArrival(t *testing.T) {
	for _, w := range workloads {
		if w.paper {
			continue
		}
		f := startFake(t, 0, 0)
		st := newStream(w, 3, saltClosed)
		echo := func(i int) *arrival {
			a := st.at(i)
			a.want = a.req.Input // the fake backend echoes every PAL
			return a
		}
		p, err := closedLoop("closed", f.l.Addr().String(), conns, 2000, 1, echo, &checker{})
		if err != nil {
			t.Fatal(err)
		}
		if p.failed() != 0 {
			t.Fatalf("%s: %s", w.name, p.FirstError)
		}
		f.mu.Lock()
		if len(f.seen) != conns {
			t.Fatalf("%s: %d connections, want %d", w.name, len(f.seen), conns)
		}
		for c, seen := range f.seen {
			if len(seen) != w.tenants {
				t.Errorf("%s: connection %d sent %d of %d tenants in %d arrivals", w.name, c, len(seen), w.tenants, p.Attempted)
			}
		}
		f.mu.Unlock()

		counts := map[int]int{}
		for i := 0; i < 3*w.tenants; i++ {
			counts[st.at(i).tenant]++
		}
		for tn := 0; tn < w.tenants; tn++ {
			if counts[tn] != 3 {
				t.Errorf("%s: tenant %d drawn %d times in 3 rounds, want 3", w.name, tn, counts[tn])
			}
		}

		again := newStream(w, 3, saltClosed)
		other := newStream(w, 4, saltClosed)
		same, differs := true, false
		for i := 0; i < 64; i++ {
			a, b, c := st.at(i), again.at(i), other.at(i)
			same = same && a.tenant == b.tenant && string(a.req.Input) == string(b.req.Input)
			differs = differs || string(a.req.Input) != string(c.req.Input)
		}
		if !same || !differs {
			t.Errorf("%s: seed 3 repeats=%v, seed 4 differs=%v; want both", w.name, same, differs)
		}
	}
}
