package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/obs"
)

// The fault flight recorder. A PAL fault in production is the worst
// debugging position this stack can put an operator in: the SKSM zeroes
// the PAL's pages on SKILL (by design — that is the security property),
// so by the time anyone looks, the evidence is gone. The flight recorder
// snapshots everything the platform still legitimately knows at the
// moment of the fault — the architectural state the hardware saved into
// the SECB, sePCR bank occupancy, the memory-ownership map, the tail of
// the trace ring, and the faulting image's partial cycle profile — into a
// CrashBundle, before the kill path destroys it.

// RegionInfo describes the faulting PAL's memory layout (its SLB
// placement) inside a bundle.
type RegionInfo struct {
	Base     uint32 `json:"base"`
	Size     int    `json:"size"`
	Entry    uint16 `json:"entry"`
	SECBBase uint32 `json:"secb_base,omitempty"`
}

// PageInfo is one page of the PAL's region in the memory-ownership map.
type PageInfo struct {
	Page  int    `json:"page"`
	State string `json:"state"`
}

// MemMap summarizes chipset memory ownership at fault time: platform-wide
// counts by access state, plus per-page detail for the PAL's own region.
type MemMap struct {
	PagesAll    int        `json:"pages_all"`   // open-access pages
	PagesNone   int        `json:"pages_none"`  // secluded pages
	PagesOwned  int        `json:"pages_owned"` // pages bound to some CPU
	RegionPages []PageInfo `json:"region_pages,omitempty"`
}

// CrashBundle is one recorded fault: everything /debug/crashes serves and
// tcbprof -crash renders. Layout is documented in docs/PROFILING.md.
type CrashBundle struct {
	ID      uint64      `json:"id"`
	WallNs  int64       `json:"wall_ns"`
	VirtNs  int64       `json:"virt_ns"`
	Reason  string      `json:"reason"` // "fault" or "skill"
	Error   string      `json:"error,omitempty"`
	Tenant  string      `json:"tenant,omitempty"`
	Trace   obs.TraceID `json:"trace"`
	Machine int         `json:"machine"`
	CPU     int         `json:"cpu"`
	Image   string      `json:"image"`
	Slices  int         `json:"slices"`
	Resumes int         `json:"resumes,omitempty"`
	SePCR   int         `json:"sepcr"`

	Regs      cpu.ArchState `json:"regs"`
	Region    RegionInfo    `json:"region"`
	SePCRBank []string      `json:"sepcr_bank,omitempty"`
	Memory    MemMap        `json:"memory"`
	HotPCs    []PCSample    `json:"hot_pcs,omitempty"`
	TraceTail []obs.Record  `json:"trace_tail,omitempty"`
}

// FlightRecorder keeps the last crashes in memory for /debug/crashes and,
// when given a directory, appends each bundle as one JSON line to
// crashes.jsonl in it. All methods are thread-safe and nil-receiver-safe
// (a nil recorder is the feature turned off).
type FlightRecorder struct {
	mu      sync.Mutex
	seq     uint64
	bundles []*CrashBundle
	limit   int
	dir     string
	tracer  *obs.Tracer
	tail    int
	werr    error // first persistence failure, reported by /debug/crashes
}

const (
	defaultBundleLimit = 64 // in-memory bundles retained
	defaultTraceTail   = 48 // trace ring records embedded per bundle
)

// NewFlightRecorder returns a recorder keeping bundles in memory; dir, if
// non-empty, additionally persists each bundle to <dir>/crashes.jsonl.
// tracer, if non-nil, supplies the trace-tail snapshot (may be nil when
// tracing is off — bundles then carry no tail).
func NewFlightRecorder(dir string, tracer *obs.Tracer) *FlightRecorder {
	return &FlightRecorder{
		limit:  defaultBundleLimit,
		dir:    dir,
		tracer: tracer,
		tail:   defaultTraceTail,
	}
}

// Record stamps, stores, and persists the bundle, returning its ID (IDs
// start at 1; 0 means "not recorded" and is what a nil recorder returns).
func (r *FlightRecorder) Record(b *CrashBundle) uint64 {
	if r == nil || b == nil {
		return 0
	}
	if recs, _ := r.tracer.Snapshot(); len(recs) > 0 {
		if len(recs) > r.tail {
			recs = recs[len(recs)-r.tail:]
		}
		b.TraceTail = recs
	}
	r.mu.Lock()
	r.seq++
	b.ID = r.seq
	b.WallNs = time.Now().UnixNano()
	r.bundles = append(r.bundles, b)
	if len(r.bundles) > r.limit {
		r.bundles = r.bundles[len(r.bundles)-r.limit:]
	}
	if r.dir != "" {
		if err := appendJSONL(filepath.Join(r.dir, "crashes.jsonl"), b); err != nil && r.werr == nil {
			r.werr = err
		}
	}
	r.mu.Unlock()
	return b.ID
}

// appendJSONL appends one JSON line to path, creating the file (and its
// directory) on first use. Crashes are cold, so open-per-record is fine.
func appendJSONL(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		return err
	}
	return f.Close()
}

// Bundles returns the retained bundles, oldest first.
func (r *FlightRecorder) Bundles() []*CrashBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*CrashBundle(nil), r.bundles...)
}

// Err returns the first persistence failure, if any.
func (r *FlightRecorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.werr
}

// ReadCrashes parses a crashes.jsonl stream.
func ReadCrashes(rd io.Reader) ([]*CrashBundle, error) {
	var out []*CrashBundle
	dec := json.NewDecoder(rd)
	for dec.More() {
		var b CrashBundle
		if err := dec.Decode(&b); err != nil {
			return out, fmt.Errorf("prof: parse crash bundle %d: %w", len(out)+1, err)
		}
		out = append(out, &b)
	}
	return out, nil
}

// WriteCrash renders one bundle human-readably (the tcbprof -crash view).
func WriteCrash(w io.Writer, b *CrashBundle) {
	fmt.Fprintf(w, "crash #%d  reason=%s  wall=%s  virt_ns=%d\n",
		b.ID, b.Reason, time.Unix(0, b.WallNs).UTC().Format(time.RFC3339Nano), b.VirtNs)
	if b.Error != "" {
		fmt.Fprintf(w, "  error:   %s\n", b.Error)
	}
	fmt.Fprintf(w, "  job:     tenant=%q trace=%s machine=%d cpu=%d\n", b.Tenant, b.Trace, b.Machine, b.CPU)
	fmt.Fprintf(w, "  pal:     image=%s slices=%d resumes=%d sepcr=%d\n", short(b.Image), b.Slices, b.Resumes, b.SePCR)
	fmt.Fprintf(w, "  region:  base=0x%08x size=%d entry=0x%04x secb=0x%08x\n",
		b.Region.Base, b.Region.Size, b.Region.Entry, b.Region.SECBBase)
	fmt.Fprintf(w, "  regs:    pc=0x%04x", b.Regs.PC)
	for i, v := range b.Regs.Regs {
		fmt.Fprintf(w, " r%d=0x%08x", i, v)
	}
	fmt.Fprintf(w, "\n  flags:   Z=%v C=%v N=%v intr=%v\n", b.Regs.FlagZ, b.Regs.FlagC, b.Regs.FlagN, b.Regs.IntrEnabled)
	if len(b.SePCRBank) > 0 {
		fmt.Fprintf(w, "  sepcrs: ")
		for i, s := range b.SePCRBank {
			fmt.Fprintf(w, " %d=%s", i, s)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  memory:  all=%d none=%d cpu-owned=%d pages; region pages:", b.Memory.PagesAll, b.Memory.PagesNone, b.Memory.PagesOwned)
	for _, pg := range b.Memory.RegionPages {
		fmt.Fprintf(w, " %d:%s", pg.Page, pg.State)
	}
	fmt.Fprintln(w)
	if len(b.HotPCs) > 0 {
		fmt.Fprintf(w, "  hot pcs:")
		for _, s := range b.HotPCs {
			fmt.Fprintf(w, " 0x%04x(%dns/%d)", s.PC, s.Cycles, s.Count)
		}
		fmt.Fprintln(w)
	}
	if len(b.TraceTail) > 0 {
		fmt.Fprintf(w, "  trace tail (%d records):\n", len(b.TraceTail))
		for _, rec := range b.TraceTail {
			fmt.Fprintf(w, "    %-5s trace=%-4s %-20s cat=%-10s virt_ns=%d\n",
				rec.Kind, rec.Trace, rec.Name, rec.Cat, rec.VirtStart)
		}
	}
}

func short(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}
