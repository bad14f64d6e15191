package prof_test

// Full-machine tests: the profiler must be a pure observer. Running the
// same workload with collection on and off must produce bit-identical
// outputs, virtual clock values, and trace records; and a forced PAL fault
// must leave a complete crash bundle behind.

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/obs/prof"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sksm"
)

// workSource yields five times (exercising suspend/resume and the SYIELD
// service site), then outputs and exits — enough surface to notice any
// profiler-induced perturbation.
const workSource = `
	ldi	r0, 0
	ldi	r1, 5
loop:	addi	r0, 1
	svc	1
	cmp	r0, r1
	jnz	loop
	ldi	r0, msg
	ldi	r1, 4
	svc	6
	ldi	r0, 0
	svc	0
msg:	.ascii "done"
stack:	.space 64
`

func newTracedManager(t *testing.T) (*sksm.Manager, *obs.Tracer) {
	t.Helper()
	p := platform.Recommended(platform.HPdc5750(), 2)
	p.KeyBits = 1024
	p.Seed = 42
	p.NumCPUs = 2
	m, err := platform.New(p)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := sksm.NewManager(osker.NewKernel(m))
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(0)
	mg.Trace = obs.NewScope(tracer, m.Clock)
	return mg, tracer
}

type runResult struct {
	output []byte
	exit   uint32
	virt   time.Duration
	recs   []obs.Record
}

// runWorkload drives workSource to completion plus a post-exit quote on a
// fresh platform, with or without a profiler collector attached.
func runWorkload(t *testing.T, profiled bool) (runResult, *prof.CPUProfiler) {
	t.Helper()
	mg, tracer := newTracedManager(t)
	var collector *prof.CPUProfiler
	if profiled {
		collector = prof.New().NewCPU()
		mg.Prof = collector
	}
	im := pal.MustBuild(workSource)
	s, err := mg.NewSECB(im, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	core := mg.Kernel.Machine.CPUs[1]
	if err := mg.RunToCompletion(core, s); err != nil {
		t.Fatal(err)
	}
	nonce := []byte("nonce")
	if _, err := mg.QuoteBatchAfterExit([]*sksm.SECB{s}, [][]byte{nonce}, nonce, 0); err != nil {
		t.Fatal(err)
	}
	if err := mg.Release(s); err != nil {
		t.Fatal(err)
	}
	recs, _ := tracer.Snapshot()
	// Wall-clock fields are genuinely nondeterministic; everything else —
	// names, categories, attributes, virtual timestamps, IDs — must match
	// bit for bit.
	for i := range recs {
		recs[i].WallStart, recs[i].WallDur = 0, 0
	}
	return runResult{
		output: s.Output,
		exit:   s.ExitStatus,
		virt:   mg.Kernel.Machine.Clock.Now(),
		recs:   recs,
	}, collector
}

func TestProfilerChangesNothingObservable(t *testing.T) {
	off, _ := runWorkload(t, false)
	on, collector := runWorkload(t, true)

	if string(on.output) != string(off.output) || on.exit != off.exit {
		t.Fatalf("PAL results diverge: %q/%d vs %q/%d", on.output, on.exit, off.output, off.exit)
	}
	if on.virt != off.virt {
		t.Fatalf("virtual clocks diverge: %v (profiled) vs %v (off)", on.virt, off.virt)
	}
	if len(on.recs) != len(off.recs) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(on.recs), len(off.recs))
	}
	for i := range on.recs {
		if !reflect.DeepEqual(on.recs[i], off.recs[i]) {
			t.Fatalf("trace record %d diverges:\n  profiled %+v\n  off      %+v", i, on.recs[i], off.recs[i])
		}
	}

	// And the profiled run actually collected: the full picture of the
	// workload — launch, five resumes, the SYIELD/output/exit call sites,
	// and the post-exit quote.
	p := prof.NewProfile()
	collector.SnapshotInto(p)
	p.Finish()
	if len(p.Images) != 1 {
		t.Fatalf("images %d", len(p.Images))
	}
	ip := p.Images[0]
	if ip.Launches != 1 || ip.Resumes != 5 || ip.Slices != 6 || ip.Yields != 5 {
		t.Fatalf("launches=%d resumes=%d slices=%d yields=%d", ip.Launches, ip.Resumes, ip.Slices, ip.Yields)
	}
	if ip.Instructions == 0 || ip.CyclesNs == 0 {
		t.Fatal("no instruction attribution")
	}
	if ip.QuoteCalls != 1 || ip.QuoteVirtNs == 0 {
		t.Fatalf("quote attribution %d/%d", ip.QuoteCalls, ip.QuoteVirtNs)
	}
	svcs := map[string]int64{}
	for _, s := range ip.Svcs {
		svcs[s.Name] += s.Calls
	}
	if svcs["SYIELD"] != 5 || svcs["output"] != 1 || svcs["exit"] != 1 {
		t.Fatalf("service sites %v", svcs)
	}
	// Every service caller site is a real svc instruction's address.
	for _, s := range ip.Svcs {
		if s.CallerPC < 0 || int(s.CallerPC)%isa.WordSize != 0 {
			t.Fatalf("bad caller pc %d", s.CallerPC)
		}
	}
}

// faultSource divides by zero three instructions in.
const faultSource = `
	ldi	r0, 1
	ldi	r1, 0
	divu	r0, r1
`

func TestFaultProducesCrashBundle(t *testing.T) {
	mg, tracer := newTracedManager(t)
	dir := t.TempDir()
	collector := prof.New().NewCPU()
	mg.Prof = collector
	mg.Flight = prof.NewFlightRecorder(dir, tracer)
	mg.Job = prof.JobInfo{Tenant: "alice", Trace: obs.TraceID{Lo: 7}, Machine: 3}

	im := pal.MustBuild(faultSource)
	s, err := mg.NewSECB(im, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s); err == nil {
		t.Fatal("faulting PAL ran clean")
	}

	bundles := mg.Flight.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("%d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if s.CrashID != b.ID {
		t.Fatalf("SECB crash id %d, bundle id %d", s.CrashID, b.ID)
	}
	if b.Reason != "fault" || !strings.Contains(b.Error, "divide by zero") {
		t.Fatalf("reason %q error %q", b.Reason, b.Error)
	}
	if b.Tenant != "alice" || b.Trace != (obs.TraceID{Lo: 7}) || b.Machine != 3 || b.CPU != 1 {
		t.Fatalf("job identity %q/%d/%d/%d", b.Tenant, b.Trace, b.Machine, b.CPU)
	}
	if b.Image != hex.EncodeToString(s.Measurement[:]) {
		t.Fatalf("image %q", b.Image)
	}
	// The saved registers are the fault-time state: PC still on the divu.
	wantPC := uint32(im.Entry) + 2*isa.WordSize
	if b.Regs.PC != wantPC {
		t.Fatalf("saved pc 0x%04x, want 0x%04x (the divu)", b.Regs.PC, wantPC)
	}
	if b.Regs.Regs[0] != 1 || b.Regs.Regs[1] != 0 {
		t.Fatalf("saved regs %v", b.Regs.Regs)
	}
	// sePCR bank occupancy: the faulted PAL still holds its register.
	if b.SePCR < 0 || len(b.SePCRBank) != mg.Kernel.Machine.TPM().NumSePCRs() {
		t.Fatalf("sepcr %d bank %v", b.SePCR, b.SePCRBank)
	}
	// Memory map: the suspended PAL's pages are secluded (NONE), visible
	// both in the platform-wide counts and the per-page region detail.
	if b.Memory.PagesNone == 0 || len(b.Memory.RegionPages) == 0 {
		t.Fatalf("memory map %+v", b.Memory)
	}
	for _, pg := range b.Memory.RegionPages {
		if pg.State != "NONE" {
			t.Fatalf("region page %d state %q, want NONE", pg.Page, pg.State)
		}
	}
	if len(b.HotPCs) == 0 {
		t.Fatal("no partial profile in the bundle")
	}
	if len(b.TraceTail) == 0 {
		t.Fatal("no trace tail in the bundle")
	}

	// SKILL after the fault must not record the incident twice.
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
	if n := len(mg.Flight.Bundles()); n != 1 {
		t.Fatalf("%d bundles after SKILL, want 1 (dedup by CrashID)", n)
	}

	// The bundle was persisted and round-trips through the jsonl reader.
	f, err := os.Open(filepath.Join(dir, "crashes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := prof.ReadCrashes(f)
	if err != nil || len(back) != 1 {
		t.Fatalf("persisted read: %v (%d)", err, len(back))
	}
	if back[0].Regs.PC != wantPC || back[0].Tenant != "alice" {
		t.Fatalf("persisted bundle lost fields: %+v", back[0])
	}
}

func TestSkillOfHealthyPALRecordsViolationBundle(t *testing.T) {
	mg, tracer := newTracedManager(t)
	mg.Flight = prof.NewFlightRecorder("", tracer)
	im := pal.MustBuild("svc 1\nldi r0, 0\nsvc 0")
	s, err := mg.NewSECB(im, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	// The OS declares the suspended (healthy) PAL misbehaving.
	if err := mg.SKILL(s); err != nil {
		t.Fatal(err)
	}
	bundles := mg.Flight.Bundles()
	if len(bundles) != 1 || bundles[0].Reason != "skill" {
		t.Fatalf("bundles %+v", bundles)
	}
	if bundles[0].Error != "" {
		t.Fatalf("violation bundle has error %q", bundles[0].Error)
	}
	if s.CrashID != bundles[0].ID {
		t.Fatal("SECB not stamped with the bundle id")
	}
}

// TestProfilerOffRecordsNothing guards the off-switch: a manager without a
// collector must leave no attribution anywhere.
func TestProfilerOffRecordsNothing(t *testing.T) {
	mg, _ := newTracedManager(t)
	im := pal.MustBuild("ldi r0, 0\nsvc 0")
	s, err := mg.NewSECB(im, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mg.RunSlice(mg.Kernel.Machine.CPUs[1], s); err != nil {
		t.Fatal(err)
	}
	if got := mg.Prof.HotPCs(evidence.Measure(im.Bytes), 4); got != nil {
		t.Fatalf("nil collector produced samples %v", got)
	}
	var _ cpu.StopReason // keep the cpu import honest about its purpose
}
