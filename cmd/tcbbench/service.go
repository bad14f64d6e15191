package main

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"minimaltcb/internal/cluster"
	"minimaltcb/internal/palsvc"
)

// sut is the system under test of a service workload: fleet palsvc
// backends behind a cluster.Router, all on loopback TCP and all built from
// the public constructors palservd and palrouter use.
type sut struct {
	w      *workload
	svcs   []*palsvc.Service
	addrs  []string // backend addresses, in backend order
	router *cluster.Router
	front  string // the router's address, which tenants dial
	lns    []net.Listener
	wg     sync.WaitGroup
}

// startSUT builds and serves w's deployment and returns once the front end
// has answered a ping.
func startSUT(w *workload) (*sut, error) {
	lns, err := listenEven(w)
	if err != nil {
		return nil, err
	}
	s := &sut{w: w, lns: lns}
	for i, l := range lns {
		svc, err := palsvc.New(w.backendConfig(i))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		s.svcs = append(s.svcs, svc)
		s.addrs = append(s.addrs, l.Addr().String())
		s.serve(func() error { return svc.Serve(l, serveTimeout) })
	}
	r, err := cluster.New(cluster.Config{Backends: s.addrs})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	s.router = r
	if !evenSplit(w, s.addrs, func(src string) string { return r.Placement(src)[0] }) {
		s.close()
		return nil, errors.New("the router splits the tenants unevenly: its ring differs from the one the ports were chosen on")
	}
	l, err := s.listen()
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = l.Addr().String()
	s.serve(func() error { return r.Serve(l, serveTimeout) })
	// palsvc.Dial's handshake is a ping: the system is up once it returns.
	cl, err := dial(s.front)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("first ping: %w", err)
	}
	_ = cl.Close()
	return s, nil
}

// listenTries bounds the search for an even split; each try makes a backend
// the primary of exactly half the tenants with odds of about 1 in 6
// (16 tenants) or 1 in 14 (64 tenants).
const listenTries = 1000

// listenEven opens one loopback listener per backend, on ports for which the
// router makes every backend the primary of the same number of w's tenants.
// The router's ring hashes backend addresses and the OS picks the ports, so
// on the ports first offered one backend was the primary of anywhere from 2
// to 13 of attest-batched-routed's 16 tenants, and every routed metric moved
// with that split from run to run.
func listenEven(w *workload) ([]net.Listener, error) {
	for try := 0; try < listenTries; try++ {
		var lns []net.Listener
		var addrs []string
		ring := cluster.NewRing(0) // the ring cluster.New builds by default
		for len(lns) < fleet {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeListeners(lns)
				return nil, fmt.Errorf("listen: %w", err)
			}
			lns = append(lns, l)
			addrs = append(addrs, l.Addr().String())
			ring.Add(l.Addr().String())
		}
		if evenSplit(w, addrs, func(src string) string { return ring.Successors(cluster.RouteKey(src), 1)[0] }) {
			return lns, nil
		}
		closeListeners(lns)
	}
	return nil, fmt.Errorf("no even split of %d tenants in %d sets of ports", w.tenants, listenTries)
}

// evenSplit reports whether primary, which maps a tenant's image source to
// its primary backend, gives every backend in addrs the same number of w's
// tenants.
func evenSplit(w *workload, addrs []string, primary func(src string) string) bool {
	share := map[string]int{}
	for t := 0; t < w.tenants; t++ {
		share[primary(w.tenantSource(t))]++
	}
	for _, a := range addrs {
		if share[a] != w.tenants/len(addrs) {
			return false
		}
	}
	return true
}

func closeListeners(lns []net.Listener) {
	for _, l := range lns {
		_ = l.Close()
	}
}

func (s *sut) listen() (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.lns = append(s.lns, l)
	return l, nil
}

// serve runs an accept loop until its listener closes.
func (s *sut) serve(loop func() error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = loop() // returns the listener's close error
	}()
}

// close stops accepting, closes the router (its probers and backend pools)
// and drains every backend.
func (s *sut) close() {
	closeListeners(s.lns)
	s.wg.Wait()
	if s.router != nil {
		s.router.Close()
	}
	for _, svc := range s.svcs {
		svc.Close()
	}
}

// placement maps each tenant to the backends the router may serve it from.
func (s *sut) placement(st *stream) map[int][]string {
	out := make(map[int][]string, len(st.srcs))
	for t, src := range st.srcs {
		out[t] = s.router.Placement(src)
	}
	return out
}

// backendIndex returns the index of the backend at addr.
func (s *sut) backendIndex(addr string) int {
	for i, a := range s.addrs {
		if a == addr {
			return i
		}
	}
	return 0
}

// fleetStats sums the stats op of every backend. MaxSePCROccupancy is the
// largest any one backend reached.
func (s *sut) fleetStats() (*palsvc.Metrics, error) {
	var out palsvc.Metrics
	var errs []error
	for _, addr := range s.addrs {
		cl, err := dial(addr)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		m, err := cl.Stats()
		_ = cl.Close()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out.Completed += m.Completed
		out.Rejected += m.Rejected
		out.Retried += m.Retried
		out.QuoteSigns += m.QuoteSigns
		out.CacheHits += m.CacheHits
		out.CacheMisses += m.CacheMisses
		out.VerifyMemoHits += m.VerifyMemoHits
		out.VerifyMemoMisses += m.VerifyMemoMisses
		out.MaxSePCROccupancy = max(out.MaxSePCROccupancy, m.MaxSePCROccupancy)
	}
	return &out, errors.Join(errs...)
}
