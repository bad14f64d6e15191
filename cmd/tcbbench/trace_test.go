package main

import (
	"strings"
	"testing"
	"time"
)

// TestSelfTime checks self time on synthetic span trees: children that
// overlap each other count once, a child running past its parent counts
// only inside it, and grandchildren are their own parent's business.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: "b2", Start: 30, End: 45}, // overlaps b1
		{ID: 7, Name: "lone", Start: 5, End: 7},
		{ID: 8, Parent: 7, Name: "same", Start: 5, End: 7}, // covers all of lone
	}
	want := map[int64]time.Duration{
		1: 100 - (50 - 10) - (100 - 90), // a∪b = [10,50], c clipped to [90,100]
		2: 20,
		3: 30 - (45 - 25), // b1∪b2 = [25,45]
		4: 30,
		5: 10,
		6: 15,
		7: 0,
		8: 2,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}

	// The ledger lays a request's measured layers out as nested spans; its
	// rows are self times and its residual is what they leave of p50_ms.
	m := &layerModel{name: "route", d: 100, children: []*layerModel{
		{name: "wire", d: 80, children: []*layerModel{
			{name: "svc", d: 60, children: []*layerModel{{name: "queue", d: 10}, {name: "execute", d: 30}}},
		}},
	}}
	l := buildLedger([]*layerModel{m, m}, 150)
	wantRows := map[string]time.Duration{"route": 20, "wire": 20, "svc": 20, "queue": 10, "execute": 30}
	for _, r := range l.Rows {
		if r.SelfP50 != wantRows[r.Layer] || r.N != 2 {
			t.Errorf("ledger row %+v, want self %v over 2", r, wantRows[r.Layer])
		}
	}
	if l.Sum != 100 || l.Residual != 50 || l.ResidualPct < 33.3 || l.ResidualPct > 33.4 {
		t.Errorf("ledger sum %v residual %v (%.2f%%), want 100, 50 (33.3%%)", l.Sum, l.Residual, l.ResidualPct)
	}
	var b strings.Builder
	l.write(&b, "synthetic")
	if !strings.Contains(b.String(), "residual") {
		t.Errorf("ledger output lacks the residual:\n%s", b.String())
	}

	// A trace missing a layer's spans is caught.
	svc, err := workloadByName("attest-batched-routed") // attested: every span name applies
	if err != nil {
		t.Fatal(err)
	}
	var trace []span
	for _, n := range spanNames(svc) {
		if n != "tpm.quote" {
			trace = append(trace, span{Name: n})
		}
	}
	if missing := missingLayers(trace, spanNames(svc)); len(missing) != 1 || missing[0] != "tpm.quote" {
		t.Errorf("missing layers %v, want [tpm.quote]", missing)
	}
}
