package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minimaltcb/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_seed42.json from a fresh seed-42 regeneration")

const pinsFile = "testdata/paper_seed42.json"

// TestPaperPinsExact regenerates the evaluation at seed 42 and requires
// every measured value to equal its pin bit for bit.
func TestPaperPinsExact(t *testing.T) {
	checks, err := experiments.VerifyAll(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		b, err := json.MarshalIndent(pinsOf(checks), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pins, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) != 29 {
		t.Fatalf("%d pins, want all 29 VerifyAll values", len(pins))
	}
	if err := comparePins(pins, checks); err != nil {
		t.Fatal(err)
	}
}

// TestPaperPinsCatchPerturbation moves one pinned value by a single ulp in
// a copy of the pins and expects the comparison to name it.
func TestPaperPinsCatchPerturbation(t *testing.T) {
	checks, err := experiments.VerifyAll(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 7
	pins[victim].Measured = math.Nextafter(pins[victim].Measured, math.Inf(1))
	b, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := loadPins(raw)
	if err != nil {
		t.Fatal(err)
	}
	err = comparePins(perturbed, checks)
	if err == nil {
		t.Fatal("a one-ulp change to a pin went unnoticed")
	}
	if !strings.Contains(err.Error(), pins[victim].Metric) || strings.Count(err.Error(), "\n") != 0 {
		t.Fatalf("mismatch report %q should name exactly %q", err, pins[victim].Metric)
	}
}
