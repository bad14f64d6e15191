// Command tcbprof renders the PAL execution stack's virtual-cycle
// profiles and fault flight-recorder bundles offline.
//
// The profile is exact, not sampled: the simulated CPU attributes every
// charged virtual nanosecond to the retiring instruction, so the listings
// here are cycle-accurate by construction. Input is the JSON served at
// /debug/profile or written by palservd -profile-out; crash input is the
// crashes.jsonl written by palservd -crash-dir (or a /debug/crashes save).
//
// Usage:
//
//	tcbprof [-f profile.json] [-top N]
//	    Print the per-tenant totals and the N hottest basic blocks
//	    across all images (default 10).
//
//	tcbprof -f profile.json -annotate <image-hash-prefix>
//	    Print the annotated disassembly of matching image(s): per-line
//	    virtual cycles, retirement counts, and a heat column, plus the
//	    image's service-call table.
//
//	tcbprof -f profile.json -folded
//	    Print folded stacks (image;block;pc count), the input format of
//	    flamegraph.pl and compatible viewers. Counts are virtual ns.
//
//	tcbprof -crash crashes.jsonl [-crash-id N]
//	    Render recorded fault bundles: saved registers, region layout,
//	    sePCR bank, memory-ownership map, hot PCs, and the trace tail.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"minimaltcb/internal/obs/prof"
)

func main() {
	var (
		file     = flag.String("f", "", "profile JSON file (default: stdin)")
		top      = flag.Int("top", 10, "number of hot blocks to show in the default view")
		annotate = flag.String("annotate", "", "print annotated disassembly of image(s) whose hash starts with this prefix (\"all\" = every image)")
		folded   = flag.Bool("folded", false, "print folded stacks for flamegraph tools")
		crash    = flag.String("crash", "", "render crash bundles from this crashes.jsonl instead of a profile")
		crashID  = flag.Uint64("crash-id", 0, "render only the bundle with this ID (0 = all)")
	)
	flag.Parse()

	if *crash != "" {
		if err := renderCrashes(os.Stdout, *crash, *crashID); err != nil {
			fail(err)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	p, err := prof.ReadProfile(in)
	if err != nil {
		fail(err)
	}
	// A freshly parsed profile already carries blocks/totals, but re-finish
	// so hand-merged or truncated inputs still render consistently.
	p.Finish()

	switch {
	case *folded:
		err = p.WriteFolded(os.Stdout)
	case *annotate != "":
		err = renderAnnotated(os.Stdout, p, *annotate)
	default:
		if len(p.Images) == 0 && len(p.Tenants) == 0 {
			fmt.Println("tcbprof: empty profile")
			return
		}
		p.WriteSummary(os.Stdout, *top)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tcbprof: %v\n", err)
	os.Exit(1)
}

// renderAnnotated prints the annotated disassembly of every image whose
// hash starts with prefix ("all" matches everything).
func renderAnnotated(w io.Writer, p *prof.Profile, prefix string) error {
	n := 0
	for _, ip := range p.Images {
		if prefix != "all" && !strings.HasPrefix(ip.Hash, prefix) {
			continue
		}
		if n > 0 {
			fmt.Fprintln(w)
		}
		if err := ip.WriteAnnotated(w); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no image matches %q (profile has %d image(s))", prefix, len(p.Images))
	}
	return nil
}

// renderCrashes reads a crashes.jsonl and prints the human view of each
// bundle (or just the one selected with -crash-id).
func renderCrashes(w io.Writer, path string, id uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bundles, err := prof.ReadCrashes(f)
	if err != nil {
		return err
	}
	n := 0
	for _, b := range bundles {
		if id != 0 && b.ID != id {
			continue
		}
		if n > 0 {
			fmt.Fprintln(w)
		}
		prof.WriteCrash(w, b)
		n++
	}
	if n == 0 {
		if id != 0 {
			return fmt.Errorf("no bundle with id %d in %s (%d bundle(s) present)", id, path, len(bundles))
		}
		return fmt.Errorf("no crash bundles in %s", path)
	}
	return nil
}
