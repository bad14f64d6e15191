package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/obs/prof"
	"minimaltcb/internal/palsvc"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDebugStackEndToEnd drives real jobs through a traced, metered
// service and scrapes the debug endpoints the way an operator would.
func TestDebugStackEndToEnd(t *testing.T) {
	auditDir := t.TempDir()
	d := newDebugStack(debugOpts{trace: true, profile: true, auditDir: auditDir})
	if err := d.openAudit(auditDir, "palservd"); err != nil {
		t.Fatal(err)
	}
	defer d.closeAudit()
	cfg := testCfg(4)
	d.apply(&cfg)
	s, err := palsvc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := d.serve("127.0.0.1:0", s); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.srv.Addr()

	res, err := s.Run(palsvc.Job{Name: "dbg", Source: defaultPAL, Input: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// /metrics covers the job counters and stage histograms.
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"palsvc_jobs_submitted_total 1",
		"palsvc_jobs_completed_total 1",
		`palsvc_stage_duration_seconds_bucket{clock="virtual",stage="execute",le="+Inf"} 1`,
		"obs_trace_dropped_total 0",
		"obs_trace_ring_size",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/profile serves the live virtual-cycle profile.
	code, body = httpGet(t, base+"/debug/profile")
	if code != http.StatusOK {
		t.Fatalf("/debug/profile status %d", code)
	}
	p, err := prof.ReadProfile(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Images) != 1 || len(p.Tenants) != 1 || p.Tenants[0].Name != "dbg" {
		t.Fatalf("profile images=%d tenants=%+v", len(p.Images), p.Tenants)
	}
	code, body = httpGet(t, base+"/debug/profile?format=folded")
	if code != http.StatusOK || !strings.Contains(body, ";blk_0x") {
		t.Fatalf("folded profile: %d %q", code, body)
	}

	// /debug/trace round-trips through the JSONL decoder and contains the
	// sePCR life cycle in order.
	code, body = httpGet(t, base+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	recs, err := obs.ReadJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var lifecycle []string
	for _, r := range recs {
		if r.Cat == obs.CatSePCR && r.Kind == obs.KindSpan {
			lifecycle = append(lifecycle, r.Name)
		}
	}
	if len(lifecycle) != 2 || lifecycle[0] != "sePCR.Exclusive" || lifecycle[1] != "sePCR.Quote" {
		t.Fatalf("lifecycle %v", lifecycle)
	}

	// A faulting job lands in the flight recorder and on /debug/crashes.
	res, err = s.Run(palsvc.Job{Name: "dbg-crash", Source: "\tldi r0, 1\n\tldi r1, 0\n\tdivu r0, r1\n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("faulting job reported success")
	}
	code, body = httpGet(t, base+"/debug/crashes")
	if code != http.StatusOK {
		t.Fatalf("/debug/crashes status %d", code)
	}
	var bundles []*prof.CrashBundle
	if err := json.Unmarshal([]byte(body), &bundles); err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || bundles[0].Tenant != "dbg-crash" || bundles[0].Reason != "fault" {
		t.Fatalf("/debug/crashes bundles %+v", bundles)
	}

	// /debug/audit serves the tamper-evident log: the completed job's
	// launch and the crashed job's fault are both on the record, and the
	// audit counters are on /metrics.
	code, body = httpGet(t, base+"/debug/audit")
	if code != http.StatusOK {
		t.Fatalf("/debug/audit status %d", code)
	}
	for _, want := range []string{`"slaunch"`, `"pal_fault"`, `"dbg-crash"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/audit missing %s:\n%s", want, body)
		}
	}
	code, body = httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"audit_events_total", "audit_events_dropped_total 0", "audit_log_size"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// /healthz flips to 503 with the shutdown reason.
	code, _ = httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	d.health.Fail("palservd shutting down")
	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Fatalf("/healthz after shutdown: %d %q", code, body)
	}
	d.shutdown("done")
}

func TestDebugStackDisabledIsInert(t *testing.T) {
	d := newDebugStack(debugOpts{})
	if d.tracer != nil || d.reg != nil || d.health != nil {
		t.Fatal("disabled stack allocated components")
	}
	cfg := testCfg(2)
	d.apply(&cfg)
	if cfg.Tracer != nil || cfg.Registry != nil {
		t.Fatal("disabled stack leaked into config")
	}
	if err := d.serve("", nil); err != nil {
		t.Fatal(err)
	}
	d.shutdown("noop")
	if err := d.writeTrace("", "jsonl"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadgenWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	// The ring holds every record of the run: a full default ring
	// overwrites the oldest sePCR.Exclusive spans while their Quote spans
	// survive, and the ordering check below needs both.
	err := runLoadgen(loadgenOpts{
		clients:     2,
		duration:    300 * time.Millisecond,
		svc:         testCfg(4),
		connTimeout: 10 * time.Second,
		debug:       debugOpts{traceOut: out, traceFormat: "chrome", traceBuf: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			ID    string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not a Chrome trace: %v", err)
	}
	// The acceptance criterion: sePCR Exclusive→Quote→Free visible with
	// both clocks. Async begins are sorted by timestamp, so for each
	// register the Exclusive phase must open before its Quote phase.
	firstExclusive := map[string]float64{}
	quoteOK := false
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "b" {
			continue
		}
		switch ev.Name {
		case "sePCR.Exclusive":
			if _, ok := firstExclusive[ev.ID]; !ok {
				firstExclusive[ev.ID] = ev.TS
			}
		case "sePCR.Quote":
			start, ok := firstExclusive[ev.ID]
			if !ok {
				t.Fatalf("Quote span for %s with no prior Exclusive", ev.ID)
			}
			if ev.TS < start {
				t.Fatalf("Quote at %v before Exclusive at %v", ev.TS, start)
			}
			quoteOK = true
		}
	}
	if len(firstExclusive) == 0 || !quoteOK {
		t.Fatalf("no sePCR lifecycle in loadgen trace (%d events)", len(doc.TraceEvents))
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "sePCR.Free" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no sePCR.Free event in loadgen trace")
	}
}

func TestLoadgenWritesJSONLTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.jsonl")
	err := runLoadgen(loadgenOpts{
		clients:     1,
		duration:    200 * time.Millisecond,
		noAttest:    true,
		svc:         testCfg(2),
		connTimeout: 10 * time.Second,
		debug:       debugOpts{traceOut: out, traceFormat: "jsonl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace dump")
	}
}

// TestLoadgenWritesProfile: -profile-out against the self-hosted loadgen
// captures per-tenant virtual-cycle attribution.
func TestLoadgenWritesProfile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "profile.json")
	err := runLoadgen(loadgenOpts{
		clients:     2,
		duration:    200 * time.Millisecond,
		noAttest:    true,
		svc:         testCfg(2),
		connTimeout: 10 * time.Second,
		debug:       debugOpts{profileOut: out},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := prof.ReadProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Images) == 0 || len(p.Tenants) == 0 {
		t.Fatalf("empty loadgen profile: images=%d tenants=%d", len(p.Images), len(p.Tenants))
	}
	for _, ts := range p.Tenants {
		if ts.Jobs == 0 || ts.CyclesNs == 0 {
			t.Fatalf("tenant %q has no attribution: %+v", ts.Name, ts)
		}
	}
	for _, ip := range p.Images {
		if ip.Instructions == 0 || len(ip.Blocks) == 0 {
			t.Fatalf("image %s has no attribution", ip.ShortHash())
		}
	}
}
