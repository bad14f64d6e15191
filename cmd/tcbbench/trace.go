package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"minimaltcb/internal/sim"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call. Every span of one arrival shares its Req.
type span struct {
	Workload string `json:"workload"`
	Req      int64  `json:"req"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder's epoch
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	next     int64
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// id reserves a span ID, so a parent can be named before it ends.
func (r *recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// record stores a span under a reserved or fresh ID and returns the ID.
func (r *recorder) record(id, req, parent int64, name string, start, end time.Time) int64 {
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Workload: r.workload, Req: req, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// time runs f inside a span named name under parent and returns the span's
// duration and f's error.
func (r *recorder) time(req, parent int64, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	r.record(0, req, parent, name, start, end)
	return end.Sub(start), err
}

// writeJSONL appends the spans to path, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals, clipped to its own. Overlapping children are
// counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.End, s.End))
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// ledgerRow is one layer's self time across the traced arrivals.
type ledgerRow struct {
	Layer   string        `json:"layer"`
	SelfP50 time.Duration `json:"self_p50_ns"`
	N       int           `json:"n"`
}

// ledger splits the end-to-end median into layers. The rows' self-time
// medians need not add up to the end-to-end median: Residual is what they
// leave unexplained, from load (the traced arrivals run one at a time) and
// from taking medians layer by layer.
type ledger struct {
	Rows []ledgerRow   `json:"rows"`
	Sum  time.Duration `json:"sum_ns"`
	// Unloaded is the median of the model's outermost layer: the request
	// as the traced arrivals saw it, one at a time.
	Unloaded    time.Duration `json:"unloaded_p50_ns"`
	E2EP50      time.Duration `json:"e2e_p50_ns"`
	Residual    time.Duration `json:"residual_ns"`
	ResidualPct float64       `json:"residual_pct"`
}

// layerModel is one arrival's costs laid out as the tree of layers they
// nest in: each node's interval starts at its parent's start and its
// children follow each other in pipeline order, so a node's self time is
// its measured duration minus what its children account for.
type layerModel struct {
	name     string
	d        time.Duration
	children []*layerModel
}

// flatten lays m out from start and appends its spans (parents before
// children) to out.
func (m *layerModel) flatten(start int64, parent int64, next *int64, out []span) []span {
	*next++
	id := *next
	out = append(out, span{ID: id, Parent: parent, Name: m.name, Start: start, End: start + m.d.Nanoseconds()})
	at := start
	for _, c := range m.children {
		out = c.flatten(at, id, next, out)
		at += c.d.Nanoseconds()
	}
	return out
}

// buildLedger computes per-layer self-time medians over the given arrival
// models against the end-to-end median e2e. Layer order follows first
// appearance.
func buildLedger(models []*layerModel, e2e time.Duration) *ledger {
	samples := map[string]*sim.Sample{}
	var order []string
	var next int64
	for _, m := range models {
		spans := m.flatten(0, 0, &next, nil)
		self := selfTimes(spans)
		for _, s := range spans {
			if samples[s.Name] == nil {
				samples[s.Name] = &sim.Sample{}
				order = append(order, s.Name)
			}
			samples[s.Name].Add(self[s.ID])
		}
	}
	l := &ledger{E2EP50: e2e}
	if len(models) > 0 {
		var top sim.Sample
		for _, m := range models {
			top.Add(m.d)
		}
		l.Unloaded = top.Percentile(50)
	}
	for _, name := range order {
		s := samples[name]
		row := ledgerRow{Layer: name, SelfP50: s.Percentile(50), N: s.N()}
		l.Rows = append(l.Rows, row)
		l.Sum += row.SelfP50
	}
	l.Residual = e2e - l.Sum
	if e2e > 0 {
		l.ResidualPct = 100 * float64(l.Residual) / float64(e2e)
	}
	return l
}

func (l *ledger) write(w io.Writer, title string) {
	fmt.Fprintf(w, "ledger %s (self-time p50 per layer)\n", title)
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-10s %12.1f us  (n=%d)\n", r.Layer, us(r.SelfP50), r.N)
	}
	fmt.Fprintf(w, "  %-10s %12.1f us\n", "sum", us(l.Sum))
	fmt.Fprintf(w, "  %-10s %12.1f us  (one request at a time)\n", "unloaded", us(l.Unloaded))
	fmt.Fprintf(w, "  %-10s %12.1f us  (p50_ms)\n", "e2e p50", us(l.E2EP50))
	fmt.Fprintf(w, "  %-10s %12.1f us  (%.1f%% of e2e p50)\n", "residual", us(l.Residual), l.ResidualPct)
}

// missingLayers returns the names in want that no span in spans carries.
func missingLayers(spans []span, want []string) []string {
	have := map[string]bool{}
	for _, s := range spans {
		have[s.Name] = true
	}
	var out []string
	for _, n := range want {
		if !have[n] {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanNames lists the span names of a service workload's traced replay.
func spanNames(w *workload) []string {
	names := []string{"request", "client.run", "client.run.direct", "route.lookup", "client.ping",
		"service.run", "core.compile", "sksm.execute", "sksm.release"}
	if !w.noAttest {
		names = append(names, "tpm.quote", "attest.verify")
	}
	return names
}
