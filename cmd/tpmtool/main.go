// Command tpmtool exercises the software TPM interactively: run single
// operations against any of the four measured chip profiles, inspect
// modeled latencies, or benchmark all four (Figure 3's data in raw form).
//
// Usage:
//
//	tpmtool profiles                 # list the vendor timing profiles
//	tpmtool bench                    # Figure 3 microbenchmarks
//	tpmtool demo                     # seal/unseal + quote round trip
//	tpmtool -tpm infineon demo       # pick a chip profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/experiments"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

func main() {
	chipName := flag.String("tpm", "broadcom", "chip profile: t60 | broadcom | infineon | tep")
	trials := flag.Int("trials", 20, "benchmark trials")
	flag.Parse()
	if err := run(*chipName, *trials, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "tpmtool: %v\n", err)
		os.Exit(1)
	}
}

func profileByName(name string) (tpm.Profile, error) {
	switch strings.ToLower(name) {
	case "t60":
		return tpm.ProfileAtmelT60(), nil
	case "broadcom":
		return tpm.ProfileBroadcom(), nil
	case "infineon":
		return tpm.ProfileInfineon(), nil
	case "tep":
		return tpm.ProfileAtmelTEP(), nil
	}
	return tpm.Profile{}, fmt.Errorf("unknown TPM %q (want t60|broadcom|infineon|tep)", name)
}

func run(chipName string, trials int, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tpmtool [flags] profiles|bench|demo")
	}
	switch args[0] {
	case "profiles":
		fmt.Printf("%-28s %10s %10s %10s %10s %12s\n",
			"TPM", "Extend", "Seal(1K)", "Quote", "Unseal", "GetRand128")
		for _, p := range tpm.Profiles() {
			fmt.Printf("%-28s %8.2fms %8.2fms %8.2fms %8.2fms %10.2fms\n",
				p.Name,
				msf(p.ExtendLatency), msf(p.SealLatency(tpm.SealGenPayload)),
				msf(p.QuoteLatency), msf(p.UnsealLatency), msf(p.RandomLatency(128)))
		}
		return nil

	case "bench":
		rows, err := experiments.Figure3(experiments.Config{Trials: trials, KeyBits: 1024, Seed: 42})
		if err != nil {
			return err
		}
		experiments.RenderFigure3(os.Stdout, rows)
		return nil

	case "demo":
		p, err := profileByName(chipName)
		if err != nil {
			return err
		}
		clock := sim.NewClock()
		bus := lpc.NewBus(clock, lpc.LongWait())
		chip, err := tpm.New(clock, bus, tpm.Config{Profile: p, KeyBits: 1024, Seed: 7})
		if err != nil {
			return err
		}
		fmt.Printf("chip: %s\n", p.Name)

		// Late-launch a pretend PAL.
		bus.SetLocality(4)
		chip.HashStart()
		chip.HashData([]byte("demo PAL image"))
		_, pcr17, _ := chip.HashEnd()
		bus.SetLocality(0)
		fmt.Printf("late launch: PCR17 = %x\n", pcr17)

		secret := []byte("attested secret")
		t0 := clock.Now()
		blob, err := chip.Seal(tpm.Selection{17}, secret)
		if err != nil {
			return err
		}
		fmt.Printf("seal:   %4d-byte blob in %v\n", len(blob), clock.Now()-t0)

		t0 = clock.Now()
		got, err := chip.Unseal(blob)
		if err != nil {
			return err
		}
		fmt.Printf("unseal: %q in %v\n", got, clock.Now()-t0)

		t0 = clock.Now()
		q, err := chip.QuoteCommand(tpm.Selection{17}, []byte("tpmtool nonce"))
		if err != nil {
			return err
		}
		fmt.Printf("quote:  %d-byte signature in %v\n", len(q.Signature), clock.Now()-t0)
		if err := evidence.VerifyQuote(chip.AIKPublic(), q); err != nil {
			return fmt.Errorf("quote verification failed: %w", err)
		}
		fmt.Println("quote verifies against the AIK")
		fmt.Printf("total virtual time: %v\n", clock.Now())
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func msf(d interface{ Nanoseconds() int64 }) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
