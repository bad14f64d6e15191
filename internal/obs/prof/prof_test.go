package prof

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/cpu"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// loopSource: entry block, a loop block, and an exit block — three leaders
// plus the synthetic beyond-image one.
const loopSource = `
	ldi	r0, 0
	ldi	r1, 3
loop:	addi	r0, 1
	cmp	r0, r1
	jnz	loop
	ldi	r0, 0
	svc	0
`

func testImage(t *testing.T) (pal.Image, tpm.Digest) {
	t.Helper()
	im, err := pal.Build(loopSource)
	if err != nil {
		t.Fatal(err)
	}
	return im, evidence.Measure(im.Bytes)
}

func TestLeadersAndBlockStart(t *testing.T) {
	im, _ := testImage(t)
	region := len(im.Bytes) + 64
	ls := leaders(im.Bytes, im.Entry, region)
	if len(ls) == 0 {
		t.Fatal("no leaders")
	}
	// Entry is a leader; the jnz target (loop) and fall-through are leaders;
	// the synthetic beyond-image leader exists because region > image.
	want := map[uint32]bool{
		uint32(im.Entry):                  true, // entry
		uint32(im.Entry) + 2*isa.WordSize: true, // loop target
		uint32(im.Entry) + 5*isa.WordSize: true, // after jnz
		uint32(len(im.Bytes)):             true, // beyond-image
	}
	got := map[uint32]bool{}
	for _, l := range ls {
		got[l] = true
	}
	for l := range want {
		if !got[l] {
			t.Fatalf("leader 0x%04x missing from %v", l, ls)
		}
	}
	// A PC inside the loop maps to the loop leader.
	loop := uint32(im.Entry) + 2*isa.WordSize
	if s := blockStart(ls, loop+isa.WordSize); s != loop {
		t.Fatalf("blockStart(loop+4) = 0x%04x, want 0x%04x", s, loop)
	}
	// A beyond-image PC maps to the synthetic leader.
	if s := blockStart(ls, uint32(len(im.Bytes))+8); s != uint32(len(im.Bytes)) {
		t.Fatalf("beyond-image blockStart = 0x%04x", s)
	}
	// All leaders are inside the region.
	for _, l := range ls {
		if int(l) >= region {
			t.Fatalf("leader 0x%04x outside region %d", l, region)
		}
	}
}

func TestCPUProfilerCollectAndSnapshot(t *testing.T) {
	im, hash := testImage(t)
	region := len(im.Bytes) + 64
	p := New()
	c := p.NewCPU()

	c.Enter(hash, im, region, false)
	pc := uint32(im.Entry)
	c.RetireInstr(pc, isa.OpLdi, 10*time.Nanosecond)
	c.RetireInstr(pc, isa.OpLdi, 10*time.Nanosecond)
	c.RetireInstr(pc+isa.WordSize, isa.OpLdi, 10*time.Nanosecond)
	c.SvcCall(cpu.SvcNumOutput, pc, 500*time.Nanosecond)
	c.SvcCall(cpu.SvcNumOutput, pc, 250*time.Nanosecond)
	c.NoteSlice(hash, cpu.StopYield, false)
	c.Leave()
	// Retirements while no PAL is entered are dropped, not misattributed.
	c.RetireInstr(pc, isa.OpLdi, 10*time.Nanosecond)
	c.Enter(hash, im, region, true) // resume
	c.NoteSlice(hash, cpu.StopHalt, false)
	c.Leave()
	c.NoteQuote(hash, 2*time.Microsecond)

	prof := NewProfile()
	c.SnapshotInto(prof)
	p.JobDone("alice", hash, 30*time.Nanosecond, false)
	p.TenantsInto(prof)
	prof.Finish()

	if len(prof.Images) != 1 {
		t.Fatalf("images %d", len(prof.Images))
	}
	ip := prof.Images[0]
	if ip.Hash != hex.EncodeToString(hashBytes(hash)) {
		t.Fatalf("hash %q", ip.Hash)
	}
	if ip.Instructions != 3 || ip.CyclesNs != 30 {
		t.Fatalf("instrs=%d cycles=%d, want 3/30", ip.Instructions, ip.CyclesNs)
	}
	if ip.Launches != 1 || ip.Resumes != 1 || ip.Slices != 2 || ip.Yields != 1 {
		t.Fatalf("launches=%d resumes=%d slices=%d yields=%d", ip.Launches, ip.Resumes, ip.Slices, ip.Yields)
	}
	if ip.QuoteCalls != 1 || ip.QuoteVirtNs != 2000 {
		t.Fatalf("quotes %d/%d", ip.QuoteCalls, ip.QuoteVirtNs)
	}
	if len(ip.PCs) != 2 || ip.PCs[0].Count != 2 || ip.PCs[0].Cycles != 20 {
		t.Fatalf("pcs %+v", ip.PCs)
	}
	if len(ip.Svcs) != 1 || ip.Svcs[0].Name != "output" || ip.Svcs[0].Calls != 2 || ip.Svcs[0].VirtNs != 750 {
		t.Fatalf("svcs %+v", ip.Svcs)
	}
	if len(ip.Blocks) == 0 {
		t.Fatal("no blocks recovered")
	}
	if len(prof.Tenants) != 1 || prof.Tenants[0].Name != "alice" || prof.Tenants[0].Jobs != 1 {
		t.Fatalf("tenants %+v", prof.Tenants)
	}
	if len(prof.Tenants[0].Images) != 1 || prof.Tenants[0].Images[0] != ip.Hash {
		t.Fatalf("tenant images %v", prof.Tenants[0].Images)
	}
}

func hashBytes(h tpm.Digest) []byte { return h[:] }

// TestSnapshotMergesCollectors: two machines that ran the same image merge
// additively into one ImageProfile.
func TestSnapshotMergesCollectors(t *testing.T) {
	im, hash := testImage(t)
	p := New()
	a, b := p.NewCPU(), p.NewCPU()
	for _, c := range []*CPUProfiler{a, b} {
		c.Enter(hash, im, len(im.Bytes), false)
		c.RetireInstr(uint32(im.Entry), isa.OpLdi, 7*time.Nanosecond)
		c.Leave()
	}
	prof := NewProfile()
	a.SnapshotInto(prof)
	b.SnapshotInto(prof)
	prof.Finish()
	if len(prof.Images) != 1 {
		t.Fatalf("images %d", len(prof.Images))
	}
	if prof.Images[0].Instructions != 2 || prof.Images[0].CyclesNs != 14 {
		t.Fatalf("merged %d instrs / %d ns", prof.Images[0].Instructions, prof.Images[0].CyclesNs)
	}
	if prof.Images[0].Launches != 2 {
		t.Fatalf("merged launches %d", prof.Images[0].Launches)
	}
}

func TestProfileJSONRoundTripAndArtifacts(t *testing.T) {
	im, hash := testImage(t)
	p := New()
	c := p.NewCPU()
	c.Enter(hash, im, len(im.Bytes)+32, false)
	for i := 0; i < 4; i++ {
		c.RetireInstr(uint32(im.Entry)+2*isa.WordSize, isa.OpAddi, 10*time.Nanosecond)
	}
	c.RetireInstr(uint32(im.Entry), isa.OpLdi, 10*time.Nanosecond)
	c.SvcCall(cpu.SvcNumSeal, uint32(im.Entry), time.Microsecond)
	c.Leave()
	prof := NewProfile()
	c.SnapshotInto(prof)
	prof.Finish()

	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back.Finish()
	if len(back.Images) != 1 || back.Images[0].Instructions != 5 {
		t.Fatalf("round trip lost samples: %+v", back.Images)
	}
	if !bytes.Equal(back.Images[0].Code, im.Bytes) {
		t.Fatal("round trip lost the code bytes")
	}

	// Folded stacks: the hot loop line carries its block and pc frames, the
	// seal call its svc frame.
	var folded bytes.Buffer
	if err := back.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	fs := folded.String()
	loop := uint32(im.Entry) + 2*isa.WordSize
	short := back.Images[0].ShortHash()
	for _, want := range []string{
		"pal-" + short + ";blk_0x",
		";pc_0x", ";svc_seal 1000",
	} {
		if !strings.Contains(fs, want) {
			t.Fatalf("folded output missing %q:\n%s", want, fs)
		}
	}
	wantLoop := "blk_0x0" // loop block frame appears
	_ = wantLoop
	if !strings.Contains(fs, "pc_0x"+hex4(loop)) {
		t.Fatalf("folded output missing loop pc 0x%04x:\n%s", loop, fs)
	}

	// Annotated disassembly: instruction text, counts, and heat bars.
	var ann bytes.Buffer
	if err := back.Images[0].WriteAnnotated(&ann); err != nil {
		t.Fatal(err)
	}
	as := ann.String()
	for _, want := range []string{"addi", "40", "####", "seal", "service calls:"} {
		if !strings.Contains(as, want) {
			t.Fatalf("annotated output missing %q:\n%s", want, as)
		}
	}

	// Top blocks: the loop block dominates.
	var top bytes.Buffer
	back.WriteTopBlocks(&top, 3)
	if !strings.Contains(top.String(), "pal-"+short) {
		t.Fatalf("top blocks missing image:\n%s", top.String())
	}
}

// TestReadProfileIgnoresRemovedFields: a profile written when the core
// still had a decode cache and a compiled tier carries their counters;
// it must still load, with everything else intact.
func TestReadProfileIgnoresRemovedFields(t *testing.T) {
	old := `{"images":[{"image":"ab12","entry":16,"region_size":64,
		"cycles_ns":90,"instructions":9,"compiled_cycles_ns":40,"compiled_retired":4,
		"launches":1,"slices":1,"pcs":[{"pc":16,"cycles_ns":90,"count":9}]}],
		"machines":[{"machine":0,"decode_hits":0,"decode_misses":12,"blocks_compiled":3}]}`
	p, err := ReadProfile(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Images) != 1 || p.Images[0].Instructions != 9 || p.Images[0].CyclesNs != 90 ||
		len(p.Images[0].PCs) != 1 {
		t.Fatalf("old profile decoded as %+v", p.Images)
	}
}

// TestReadCrashesIgnoresPageVersion: crash bundles recorded while pages
// carried a version counter still decode, and render without it.
func TestReadCrashesIgnoresPageVersion(t *testing.T) {
	old := `{"id":1,"reason":"fault","memory":{"pages_none":2,
		"region_pages":[{"page":4,"state":"NONE","version":3},{"page":5,"state":"NONE","version":1}]}}`
	bs, err := ReadCrashes(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	want := []PageInfo{{Page: 4, State: "NONE"}, {Page: 5, State: "NONE"}}
	if len(bs) != 1 || len(bs[0].Memory.RegionPages) != 2 ||
		bs[0].Memory.RegionPages[0] != want[0] || bs[0].Memory.RegionPages[1] != want[1] {
		t.Fatalf("old bundle decoded as %+v", bs)
	}
	var out bytes.Buffer
	WriteCrash(&out, bs[0])
	if !strings.Contains(out.String(), "region pages: 4:NONE 5:NONE\n") {
		t.Fatalf("rendered bundle lacks the page map:\n%s", out.String())
	}
}

func hex4(v uint32) string {
	const digits = "0123456789abcdef"
	return string([]byte{digits[v>>12&0xf], digits[v>>8&0xf], digits[v>>4&0xf], digits[v&0xf]})
}

func TestSvcName(t *testing.T) {
	cases := map[uint16]string{
		cpu.SvcNumExit: "exit", cpu.SvcNumYield: "SYIELD", cpu.SvcNumSeal: "seal",
		cpu.SvcNumUnseal: "unseal", cpu.SvcNumOutput: "output", 99: "svc99",
	}
	for num, want := range cases {
		if got := SvcName(num); got != want {
			t.Fatalf("SvcName(%d) = %q, want %q", num, got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var p *Profiler
	c := p.NewCPU()
	if c != nil {
		t.Fatal("nil profiler handed out a collector")
	}
	im, hash := testImage(t)
	c.Enter(hash, im, 64, false)
	c.RetireInstr(0, isa.OpNop, time.Nanosecond)
	c.SvcCall(0, 0, 0)
	c.NoteSlice(hash, cpu.StopHalt, false)
	c.NoteQuote(hash, 0)
	c.Leave()
	if got := c.HotPCs(hash, 4); got != nil {
		t.Fatalf("nil collector returned samples %v", got)
	}
	c.SnapshotInto(NewProfile())
	p.JobDone("x", hash, 0, false)
	p.TenantsInto(NewProfile())

	var r *FlightRecorder
	if id := r.Record(&CrashBundle{}); id != 0 {
		t.Fatalf("nil recorder recorded id %d", id)
	}
	if r.Bundles() != nil || r.Err() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightRecorderPersistAndRead(t *testing.T) {
	dir := t.TempDir()
	r := NewFlightRecorder(filepath.Join(dir, "crashes"), nil)
	id1 := r.Record(&CrashBundle{Reason: "fault", Tenant: "alice", Error: "divide by zero"})
	id2 := r.Record(&CrashBundle{Reason: "skill", Tenant: "bob"})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids %d %d", id1, id2)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	got := r.Bundles()
	if len(got) != 2 || got[0].Reason != "fault" || got[1].Reason != "skill" {
		t.Fatalf("bundles %+v", got)
	}
	if got[0].WallNs == 0 {
		t.Fatal("bundle not wall-stamped")
	}

	f, err := os.Open(filepath.Join(dir, "crashes", "crashes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadCrashes(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Tenant != "alice" || back[0].Error != "divide by zero" {
		t.Fatalf("read back %+v", back)
	}

	var buf bytes.Buffer
	WriteCrash(&buf, back[0])
	for _, want := range []string{"crash #1", "reason=fault", `tenant="alice"`, "divide by zero"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("crash render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFlightRecorderRingLimit(t *testing.T) {
	r := NewFlightRecorder("", nil)
	for i := 0; i < defaultBundleLimit+5; i++ {
		r.Record(&CrashBundle{Reason: "fault"})
	}
	got := r.Bundles()
	if len(got) != defaultBundleLimit {
		t.Fatalf("retained %d bundles, want %d", len(got), defaultBundleLimit)
	}
	// Oldest were evicted: the first retained bundle is number 6.
	if got[0].ID != 6 {
		t.Fatalf("oldest retained id %d, want 6", got[0].ID)
	}
}

func TestProfileHandler(t *testing.T) {
	im, hash := testImage(t)
	build := func() *Profile {
		p := New()
		c := p.NewCPU()
		c.Enter(hash, im, len(im.Bytes), false)
		c.RetireInstr(uint32(im.Entry), isa.OpLdi, 10*time.Nanosecond)
		c.Leave()
		out := NewProfile()
		c.SnapshotInto(out)
		out.Finish()
		return out
	}

	h := Handler(build)
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/profile", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"images"`) {
		t.Fatalf("json: %d %s", rec.Code, rec.Body.String())
	}
	if p, err := ReadProfile(rec.Body); err != nil || len(p.Images) != 1 {
		t.Fatalf("served JSON unparsable: %v", err)
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/profile?format=folded", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), ";pc_0x") {
		t.Fatalf("folded: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/profile?format=annotated", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ldi") {
		t.Fatalf("annotated: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/profile?format=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bogus format: %d", rec.Code)
	}

	off := Handler(func() *Profile { return nil })
	rec = httptest.NewRecorder()
	off(rec, httptest.NewRequest("GET", "/debug/profile", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled: %d", rec.Code)
	}
}

func TestCrashHandler(t *testing.T) {
	r := NewFlightRecorder("", nil)
	r.Record(&CrashBundle{Reason: "fault", Tenant: "alice"})
	r.Record(&CrashBundle{Reason: "skill", Tenant: "bob"})

	h := r.Handler()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/crashes", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var back []*CrashBundle
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil || len(back) != 2 {
		t.Fatalf("array parse: %v (%d bundles)", err, len(back))
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/crashes?id=2", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"skill"`) || strings.Contains(rec.Body.String(), `"fault"`) {
		t.Fatalf("id filter: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/crashes?id=99", nil))
	if rec.Code != 404 {
		t.Fatalf("missing id: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/crashes?format=text", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "crash #1") {
		t.Fatalf("text: %d %s", rec.Code, rec.Body.String())
	}

	var off *FlightRecorder
	rec = httptest.NewRecorder()
	off.Handler()(rec, httptest.NewRequest("GET", "/debug/crashes", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled: %d", rec.Code)
	}
}
