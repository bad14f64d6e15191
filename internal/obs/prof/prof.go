// Package prof is an exact virtual-cycle profiler and fault flight
// recorder for the PAL execution stack.
//
// The paper's core contribution is a cost breakdown — Table 1 attributes
// late-launch latency to individual hardware steps — and the tracing layer
// (internal/obs) extends that story to spans: SLAUNCH, slices, TPM
// commands, pipeline stages. What spans cannot answer is *where inside a
// PAL* the virtual cycles go. This package closes that gap: a collector
// hooked into the internal/cpu interpreter attributes every charged
// instruction cycle to (PAL image hash, program counter) — exactly, not by
// sampling, since the simulator retires one instruction at a time — and
// every TPM/SKSM service call (seal, unseal, extend, SYIELD, ...) to its
// caller site with the virtual time the platform charged for it. Basic
// blocks are recovered from the image by static analysis at snapshot time,
// so the hot loop stays two integer adds and a bounds check.
//
// Collection is split in two tiers to stay off the locks:
//
//   - CPUProfiler is one machine's collector. It is deliberately
//     lock-free: like the simulator itself it is single-threaded by
//     design, touched only under whatever lock serializes the machine
//     (palsvc's per-machine mutex). The interpreter hook
//     (cpu.Profiler) lands here.
//   - Profiler is the thread-safe aggregation root shared by all
//     machines: it hands out CPUProfilers and accumulates per-tenant
//     totals (palsvc calls JobDone after each job).
//
// A snapshot (Profile, see profile.go) merges every collector and renders
// three artifacts: folded-stack text for flamegraph tooling, an annotated
// disassembly with per-line cycle/heat columns, and JSON for
// /debug/profile and cmd/tcbprof.
//
// Profiling off is free: the CPU pays one nil check per retired
// instruction, sksm installs nothing, and the PR 3 zero-allocation fast
// path is untouched (see the AllocsPerRun pins in internal/cpu).
package prof

import (
	"bytes"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// pcCount accumulates the exact cycle/retire counters for one instruction
// slot (one 32-bit word of the PAL's region).
type pcCount struct {
	cycles int64 // virtual ns charged to instructions at this pc
	count  int64 // retirements
}

// svcKey identifies one service-call site: which service, called from
// which instruction.
type svcKey struct {
	num    uint16
	caller uint32
}

// svcCount accumulates one call site's totals.
type svcCount struct {
	calls int64
	virt  int64 // virtual ns spent inside the service handler
}

// imageRec is one PAL image's raw counters inside a CPUProfiler.
type imageRec struct {
	hash   tpm.Digest
	image  pal.Image
	region int // largest region size seen, bounds the pcs slice

	pcs  []pcCount
	svcs map[svcKey]*svcCount

	launches, resumes        int64
	slices                   int64
	preempts, yields, faults int64
	quoteCalls, quoteVirtNs  int64
}

// CPUProfiler collects exact per-instruction attribution for one machine.
//
// It is single-threaded by design, like the simulated machine it observes:
// every method — including SnapshotInto — must be called under whatever
// lock serializes that machine (internal/palsvc holds its per-machine
// mutex across both execution and snapshots). It implements cpu.Profiler.
type CPUProfiler struct {
	images map[tpm.Digest]*imageRec
	cur    *imageRec
}

var _ cpu.Profiler = (*CPUProfiler)(nil)

// Enter begins attributing cycles to the image identified by hash —
// called by sksm's SLAUNCH microcode when the PAL starts executing.
// image is the SLB SLAUNCH measured, which the collector copies the first
// time it sees hash (the launch passes a view of the PAL's memory, which
// the PAL may overwrite); a resume, which follows a launch, passes none.
// regionSize is the PAL's full memory region (code + data + stack); the
// program counter ranges over it, not just over the image bytes.
func (p *CPUProfiler) Enter(hash tpm.Digest, image pal.Image, regionSize int, resumed bool) {
	if p == nil {
		return
	}
	r := p.images[hash]
	if r == nil {
		image.Bytes = bytes.Clone(image.Bytes)
		r = &imageRec{hash: hash, image: image, svcs: make(map[svcKey]*svcCount)}
		p.images[hash] = r
	}
	if need := (regionSize + isa.WordSize - 1) / isa.WordSize; need > len(r.pcs) {
		grown := make([]pcCount, need)
		copy(grown, r.pcs)
		r.pcs = grown
		r.region = regionSize
	}
	if resumed {
		r.resumes++
	} else {
		r.launches++
	}
	p.cur = r
}

// Leave stops attribution — called on suspend, SFREE, or fault.
func (p *CPUProfiler) Leave() {
	if p != nil {
		p.cur = nil
	}
}

// RetireInstr is the interpreter hook (cpu.Profiler): one retired
// instruction at pc, charged cost. This is the per-instruction hot path —
// two adds and a bounds check.
func (p *CPUProfiler) RetireInstr(pc uint32, op isa.Opcode, cost time.Duration) {
	if p == nil || p.cur == nil {
		return
	}
	r := p.cur
	i := int(pc / isa.WordSize)
	if i >= len(r.pcs) {
		return
	}
	e := &r.pcs[i]
	e.cycles += int64(cost)
	e.count++
}

// SvcCall attributes one completed service call (the PAL ABI of
// internal/cpu: seal, unseal, extend, SYIELD, ...) to its caller site.
// virt is the virtual time the platform charged inside the handler.
func (p *CPUProfiler) SvcCall(num uint16, callerPC uint32, virt time.Duration) {
	if p == nil || p.cur == nil {
		return
	}
	k := svcKey{num: num, caller: callerPC}
	c := p.cur.svcs[k]
	if c == nil {
		c = &svcCount{}
		p.cur.svcs[k] = c
	}
	c.calls++
	c.virt += int64(virt)
}

// NoteSlice records how one scheduling slice of the image ended.
func (p *CPUProfiler) NoteSlice(hash tpm.Digest, stop cpu.StopReason, faulted bool) {
	if p == nil {
		return
	}
	r := p.images[hash]
	if r == nil {
		return
	}
	r.slices++
	switch {
	case faulted:
		r.faults++
	case stop == cpu.StopPreempted:
		r.preempts++
	case stop == cpu.StopYield:
		r.yields++
	}
}

// NoteQuote attributes a post-exit sePCR quote's virtual time to the
// image. Quotes are issued by untrusted code after the PAL exits, so they
// have no caller site inside the PAL.
func (p *CPUProfiler) NoteQuote(hash tpm.Digest, virt time.Duration) {
	if p == nil {
		return
	}
	r := p.images[hash]
	if r == nil {
		return
	}
	r.quoteCalls++
	r.quoteVirtNs += int64(virt)
}

// HotPCs returns the image's top-n instruction slots by cycles — the
// partial profile a crash bundle embeds.
func (p *CPUProfiler) HotPCs(hash tpm.Digest, n int) []PCSample {
	if p == nil {
		return nil
	}
	r := p.images[hash]
	if r == nil {
		return nil
	}
	var out []PCSample
	for i := range r.pcs {
		if r.pcs[i].count > 0 {
			out = append(out, PCSample{
				PC:     uint32(i * isa.WordSize),
				Cycles: r.pcs[i].cycles,
				Count:  r.pcs[i].count,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// SnapshotInto merges this collector's raw counters into p, computing the
// sparse per-PC samples and service-call sites. Like every CPUProfiler
// method it must run under the machine's serialization.
func (c *CPUProfiler) SnapshotInto(p *Profile) {
	if c == nil || p == nil {
		return
	}
	for _, r := range c.images {
		ip := p.imageFor(hex.EncodeToString(r.hash[:]), r.image, r.region)
		ip.Launches += r.launches
		ip.Resumes += r.resumes
		ip.Slices += r.slices
		ip.Preempts += r.preempts
		ip.Yields += r.yields
		ip.Faults += r.faults
		ip.QuoteCalls += r.quoteCalls
		ip.QuoteVirtNs += r.quoteVirtNs
		for i := range r.pcs {
			if r.pcs[i].count == 0 {
				continue
			}
			ip.addPC(PCSample{
				PC:     uint32(i * isa.WordSize),
				Cycles: r.pcs[i].cycles,
				Count:  r.pcs[i].count,
			})
		}
		for k, v := range r.svcs {
			ip.addSvc(SvcSample{
				Num:      k.num,
				Name:     SvcName(k.num),
				CallerPC: int64(k.caller),
				Calls:    v.calls,
				VirtNs:   v.virt,
			})
		}
	}
}

// SvcName names the well-known PAL ABI services for reports; unknown
// numbers render as svcN.
func SvcName(num uint16) string {
	switch num {
	case cpu.SvcNumExit:
		return "exit"
	case cpu.SvcNumYield:
		return "SYIELD"
	case cpu.SvcNumExtend:
		return "extend"
	case cpu.SvcNumSeal:
		return "seal"
	case cpu.SvcNumUnseal:
		return "unseal"
	case cpu.SvcNumRandom:
		return "random"
	case cpu.SvcNumOutput:
		return "output"
	case cpu.SvcNumInput:
		return "input"
	case cpu.SvcNumGetTime:
		return "gettime"
	}
	return "svc" + itoa(int(num))
}

// itoa avoids strconv for this one cold call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 && i > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// tenantStats is one tenant's accumulated totals inside the Profiler.
type tenantStats struct {
	jobs, faults, cycles int64
	images               map[string]struct{}
}

// JobInfo identifies the job whose PAL a machine is currently executing.
// The service sets it on the sksm.Manager (under the machine lock) so
// crash bundles carry the tenant and trace that hit the fault.
type JobInfo struct {
	Tenant  string
	Trace   obs.TraceID
	Machine int
}

// Profiler is the aggregation root: it owns the per-tenant ledger and
// hands out one CPUProfiler per machine. All methods are thread-safe and
// nil-receiver-safe (a nil *Profiler is profiling off).
type Profiler struct {
	mu      sync.Mutex
	tenants map[string]*tenantStats
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{tenants: make(map[string]*tenantStats)}
}

// NewCPU returns a fresh per-machine collector. Nil-safe: a nil profiler
// hands out a nil collector, which no-ops everywhere.
func (p *Profiler) NewCPU() *CPUProfiler {
	if p == nil {
		return nil
	}
	return &CPUProfiler{images: make(map[tpm.Digest]*imageRec)}
}

// JobDone accrues one finished job to its tenant: hash is the measurement
// SLAUNCH took, cycles is the job's execute-stage virtual time
// (instructions plus the TPM commands the PAL issued), faulted marks PAL
// faults.
func (p *Profiler) JobDone(tenant string, hash tpm.Digest, cycles time.Duration, faulted bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	t := p.tenants[tenant]
	if t == nil {
		t = &tenantStats{images: make(map[string]struct{})}
		p.tenants[tenant] = t
	}
	t.jobs++
	if faulted {
		t.faults++
	}
	t.cycles += int64(cycles)
	t.images[hex.EncodeToString(hash[:])] = struct{}{}
	p.mu.Unlock()
}

// TenantsInto copies the per-tenant ledger into a snapshot.
func (p *Profiler) TenantsInto(out *Profile) {
	if p == nil || out == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, t := range p.tenants {
		images := make([]string, 0, len(t.images))
		for h := range t.images {
			images = append(images, h)
		}
		sort.Strings(images)
		out.Tenants = append(out.Tenants, TenantStats{
			Name:     name,
			Jobs:     t.jobs,
			Faults:   t.faults,
			CyclesNs: t.cycles,
			Images:   images,
		})
	}
}
