package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/obs/prof"
	"minimaltcb/internal/pal"
)

// buildProfile collects a tiny synthetic run so the renderers have real
// block structure and a service-call site to show.
func buildProfile(t *testing.T) *prof.Profile {
	t.Helper()
	im, err := pal.Build(`
		ldi	r0, 0
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		svc	3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := prof.New().NewCPU()
	c.Enter(evidence.Measure(im.Bytes), im, im.Len()+64, false)
	for i := 0; i < 6; i++ {
		c.RetireInstr(uint32(im.Entry)+uint32(4*(i%4)), 0, 10*time.Nanosecond)
	}
	c.SvcCall(3, uint32(im.Entry)+16, 500*time.Nanosecond)
	c.Leave()
	p := prof.NewProfile()
	c.SnapshotInto(p)
	p.Finish()
	return p
}

func TestRenderAnnotatedByPrefix(t *testing.T) {
	p := buildProfile(t)
	hash := p.Images[0].Hash

	var b strings.Builder
	if err := renderAnnotated(&b, p, hash[:6]); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"addi", "seal", "service calls:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("annotated output missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := renderAnnotated(&b, p, "all"); err != nil {
		t.Fatal(err)
	}
	if b.String() != out {
		t.Fatal(`"all" and the exact prefix disagree for a one-image profile`)
	}

	if err := renderAnnotated(&b, p, "zzzz"); err == nil || !strings.Contains(err.Error(), "no image matches") {
		t.Fatalf("bad prefix error: %v", err)
	}
}

func TestRenderCrashes(t *testing.T) {
	dir := t.TempDir()
	fr := prof.NewFlightRecorder(dir, nil)
	fr.Record(&prof.CrashBundle{Reason: "fault", Tenant: "alice", Error: "divide by zero"})
	fr.Record(&prof.CrashBundle{Reason: "skill", Tenant: "bob"})
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "crashes.jsonl")

	var b strings.Builder
	if err := renderCrashes(&b, path, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"crash #1", "divide by zero", "crash #2", `tenant="bob"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("crash rendering missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := renderCrashes(&b, path, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "crash #1") || !strings.Contains(b.String(), "crash #2") {
		t.Fatalf("-crash-id 2 rendered the wrong bundle:\n%s", b.String())
	}

	if err := renderCrashes(&b, path, 99); err == nil || !strings.Contains(err.Error(), "no bundle with id 99") {
		t.Fatalf("missing-id error: %v", err)
	}
	if err := renderCrashes(&b, filepath.Join(dir, "absent.jsonl"), 0); err == nil {
		t.Fatal("missing file did not error")
	}
}
