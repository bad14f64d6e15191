package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/sim"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1,000 samples, a p50 at least 20.
const minTail = 10

// quantile is one reported percentile with the sample count behind it.
type quantile struct {
	Value time.Duration `json:"value_ns"`
	N     int           `json:"n"`
	// Beyond is the number of samples strictly above the nearest rank.
	Beyond int `json:"beyond"`
}

// percentile returns the nearest-rank p-th percentile of s, or an error when
// fewer than minTail samples lie beyond it — such a percentile is one
// outlier's value, not a property of the distribution.
func percentile(s *sim.Sample, p float64) (quantile, error) {
	n := s.N()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	q := quantile{N: n, Beyond: max(n-rank, 0)}
	if n == 0 || q.Beyond < minTail {
		return q, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, q.Beyond, minTail)
	}
	q.Value = s.Percentile(p)
	return q, nil
}

// phase is what one load phase attempted and how each attempt ended. Every
// attempt lands in exactly one outcome, so Attempted is their sum.
type phase struct {
	Name      string         `json:"name"`
	Attempted int            `json:"attempted"`
	OK        int            `json:"ok"`
	Rejected  map[string]int `json:"rejected,omitempty"` // by wire code
	Deadline  int            `json:"deadline"`
	Failed    int            `json:"failed"`
	// ConnErrors are transport failures: no classified answer came back.
	ConnErrors int `json:"conn_errors"`
	// CheckFailed counts answers the server reported OK whose output the
	// benchmark found wrong.
	CheckFailed int `json:"check_failed"`
	// FirstError keeps one failure message for the report.
	FirstError string `json:"first_error,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`

	// Latency holds OK requests: back-to-back round trips in a closed loop,
	// time from the scheduled send in an open loop. Late is how long after
	// its scheduled time each open-loop arrival was written to a connection.
	Latency sim.Sample `json:"-"`
	Late    sim.Sample `json:"-"`

	// Server-reported stage fields of OK answers (queue, arbitration and
	// verify are wall clock; execute and quote are virtual time).
	Queue, Arb, Verify sim.Sample `json:"-"`
	ExecNS, QuoteNS    int64      `json:"-"`
	BatchJobs          int        `json:"-"`
	BatchSum           int        `json:"-"`
	PrimaryHits        int        `json:"-"`
	// paluse sums paper-regen's Figure 2 "PAL Use" virtual ms over OK ops.
	paluse float64

	// A phase's throughput and its median latency are medians over windows
	// of equal numbers of OK completions, so a burst of host noise in a few
	// windows does not move them. winBounds are the cumulative OK counts that
	// end each window, winEnds the times they were reached, winLat each
	// window's latencies.
	winStart  time.Time
	winBounds []int
	winEnds   []time.Time
	winLat    []sim.Sample
}

// startWindows splits the first n OK completions after start into k
// windows.
func (p *phase) startWindows(start time.Time, n, k int) {
	k = max(min(k, n), 1)
	p.winStart, p.winBounds, p.winEnds, p.winLat = start, make([]int, k), nil, make([]sim.Sample, k)
	for i := range p.winBounds {
		p.winBounds[i] = n * (i + 1) / k
	}
}

// noteOK records an OK completion with latency lat at t: p.OK counts it.
func (p *phase) noteOK(t time.Time, lat time.Duration) {
	p.Latency.Add(lat)
	i := len(p.winEnds)
	if i >= len(p.winBounds) {
		return
	}
	p.winLat[i].Add(lat)
	if p.OK == p.winBounds[i] {
		p.winEnds = append(p.winEnds, t)
	}
}

// throughput is the median over completed windows of OK completions per
// second.
func (p *phase) throughput() float64 {
	var rates []float64
	prevN, prevT := 0, p.winStart
	for i, t := range p.winEnds {
		if d := t.Sub(prevT).Seconds(); d > 0 {
			rates = append(rates, float64(p.winBounds[i]-prevN)/d)
		}
		prevN, prevT = p.winBounds[i], t
	}
	return median(rates)
}

// latencyP50 is the median over windows of each window's median latency,
// or an error when a window has too few samples for its median.
func (p *phase) latencyP50() (time.Duration, error) {
	var p50s []float64
	for i := range p.winLat {
		q, err := percentile(&p.winLat[i], 50)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", i+1, len(p.winLat), err)
		}
		p50s = append(p50s, float64(q.Value))
	}
	return time.Duration(median(p50s)), nil
}

// median returns the median of xs, 0 for none; it sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// failed is every attempt that did not end OK.
func (p *phase) failed() int { return p.Attempted - p.OK }

func (p *phase) fail(msg string) {
	if p.FirstError == "" {
		p.FirstError = msg
	}
}

// checker validates one answer against what its arrival must produce.
type checker struct {
	attested bool
	// placement maps tenant → the backends Router.Placement allows; nil for
	// answers sent straight from a backend, which stamps no Backend.
	placement map[int][]string
}

// check returns nil when resp is a correct answer to a.
func (c *checker) check(a *arrival, resp *palsvc.WireResponse) error {
	if !bytes.Equal(resp.Output, a.want) {
		return fmt.Errorf("arrival %d (%s): output %x, want %x", a.index, a.req.Name, resp.Output, a.want)
	}
	if c.attested && resp.VerifiedAs != a.req.Name {
		return fmt.Errorf("arrival %d: verified_as %q, want %q", a.index, resp.VerifiedAs, a.req.Name)
	}
	if c.placement != nil && !slices.Contains(c.placement[a.tenant], resp.Backend) {
		return fmt.Errorf("arrival %d: served by %q, placement %v", a.index, resp.Backend, c.placement[a.tenant])
	}
	return nil
}

// record classifies one request that finished at done. Callers serialize
// access.
func (p *phase) record(c *checker, a *arrival, resp *palsvc.WireResponse, err error, lat time.Duration, done time.Time) {
	p.Attempted++
	switch {
	case err != nil:
		p.ConnErrors++
		p.fail(err.Error())
	case resp.OK:
		if cerr := c.check(a, resp); cerr != nil {
			p.CheckFailed++
			p.fail(cerr.Error())
			return
		}
		p.OK++
		p.noteOK(done, lat)
		p.Queue.Add(time.Duration(resp.QueueWaitNS))
		p.Arb.Add(time.Duration(resp.ArbWaitNS))
		p.ExecNS += resp.ExecuteNS
		p.QuoteNS += resp.QuoteGenNS
		if c.attested {
			p.Verify.Add(time.Duration(resp.VerifyNS))
			p.BatchJobs++
			p.BatchSum += max(resp.BatchSize, 1)
		}
		if c.placement != nil && resp.Backend == c.placement[a.tenant][0] {
			p.PrimaryHits++
		}
	case resp.Retryable:
		if p.Rejected == nil {
			p.Rejected = map[string]int{}
		}
		p.Rejected[resp.Code]++
		p.fail(resp.Err)
	case resp.Code == palsvc.CodeDeadline:
		p.Deadline++
		p.fail(resp.Err)
	default:
		p.Failed++
		p.fail(resp.Err)
	}
}

// frameBytes is the size of v as one wire frame: length prefix plus JSON.
func frameBytes(v any) int64 {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return int64(4 + len(b))
}

// dial opens one tenant connection with the deployment's timeouts.
func dial(addr string) (*palsvc.Client, error) { return palsvc.Dial(addr, dialTimeout) }

// closedLoop sends n arrivals over conns connections, each connection
// sending its next request as soon as the previous answer arrives.
// Arrivals are numbered across connections, so every connection draws
// tenants from the whole stream rather than owning one. The phase's
// throughput is the median over windows equal fractions of the n.
func closedLoop(name, addr string, conns, n, windows int, next func(int) *arrival, c *checker) (*phase, error) {
	p := &phase{Name: name}
	clients := make([]*palsvc.Client, conns)
	for i := range clients {
		cl, err := dial(addr)
		if err != nil {
			closeAll(clients)
			return nil, fmt.Errorf("%s: dial: %w", name, err)
		}
		clients[i] = cl
	}
	var (
		mu  sync.Mutex
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	p.startWindows(start, n, windows)
	for i := range clients {
		wg.Add(1)
		go func(cl *palsvc.Client) {
			defer wg.Done()
			for i := int(seq.Add(1) - 1); i < n; i = int(seq.Add(1) - 1) {
				a := next(i)
				t0 := time.Now()
				resp, err := cl.Run(&a.req)
				done := time.Now()
				mu.Lock()
				p.record(c, a, resp, err, done.Sub(t0), done)
				mu.Unlock()
				if err != nil {
					return // the connection is torn; the phase is already failed
				}
			}
		}(clients[i])
	}
	wg.Wait()
	p.Elapsed = time.Since(start)
	closeAll(clients)
	return p, nil
}

// scheduled is one open-loop arrival and the time it was due.
type scheduled struct {
	a   *arrival
	due time.Time
}

// spanHook, when non-nil, is called around every open-loop request with the
// arrival, its due time, and the send and answer times (the traced run
// records spans through it).
type spanHook func(a *arrival, due, sent, done time.Time)

// openLoop sends arrivals[i] at start + i/rate, whatever the server is
// doing, over a pool of conns connections. An arrival that finds every
// connection busy waits for one, and that wait counts: latency runs from
// the scheduled send, and Late records how far behind schedule the write
// went out.
func openLoop(name, addr string, conns int, rate float64, arrivals []*arrival, c *checker, hook spanHook) (*phase, error) {
	p := &phase{Name: name}
	clients := make([]*palsvc.Client, conns)
	for i := range clients {
		cl, err := dial(addr)
		if err != nil {
			closeAll(clients)
			return nil, fmt.Errorf("%s: dial: %w", name, err)
		}
		clients[i] = cl
	}
	// Sized to the number of sends: the pacer never blocks, so its own
	// schedule cannot be held up by a slow server.
	work := make(chan scheduled, len(arrivals))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i := range clients {
		wg.Add(1)
		go func(cl *palsvc.Client) {
			defer wg.Done()
			torn := false
			for s := range work {
				if torn {
					mu.Lock()
					p.record(c, s.a, nil, fmt.Errorf("connection lost earlier"), 0, time.Now())
					mu.Unlock()
					continue
				}
				sent := time.Now()
				resp, err := cl.Run(&s.a.req)
				done := time.Now()
				if hook != nil {
					hook(s.a, s.due, sent, done)
				}
				mu.Lock()
				p.Late.Add(sent.Sub(s.due))
				p.record(c, s.a, resp, err, done.Sub(s.due), done)
				mu.Unlock()
				torn = err != nil
			}
		}(clients[i])
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	// Windows of about a second of arrivals each.
	p.startWindows(start, len(arrivals), int(math.Round(float64(len(arrivals))/rate)))
	for i, a := range arrivals {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			sleep(w)
		}
		work <- scheduled{a: a, due: due}
	}
	close(work)
	wg.Wait()
	p.Elapsed = time.Since(start)
	closeAll(clients)
	return p, nil
}

func closeAll(clients []*palsvc.Client) {
	for _, cl := range clients {
		if cl != nil {
			_ = cl.Close()
		}
	}
}
