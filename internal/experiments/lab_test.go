package experiments

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// resetLabs empties the lab cache, so the next experiment builds its
// machines fresh.
func resetLabs() {
	labs.Lock()
	labs.m = nil
	labs.Unlock()
}

// labExperiments are the experiments VerifyAll runs and the two ablations
// that share their machines, each of which takes its machines from the lab
// cache.
var labExperiments = []struct {
	name string
	run  func(Config) (any, error)
}{
	{"Table1", func(c Config) (any, error) { return Table1(c) }},
	{"Figure2", func(c Config) (any, error) { return Figure2(c) }},
	{"Figure3", func(c Config) (any, error) { return Figure3(c) }},
	{"Table2", func(c Config) (any, error) { return Table2(c) }},
	{"Impact", func(c Config) (any, error) { return Impact(c) }},
	{"CrossPlatform", func(c Config) (any, error) { return AblationFigure2CrossPlatform(c) }},
	{"SealPayload", func(c Config) (any, error) { return AblationSealPayload(c, nil) }},
}

// figure2Trials is what Figure 2 reports for trials trials that each
// replay one, its result at one trial: the mean of equal totals, and each
// phase summed as trials equal shares.
func figure2Trials(one []Figure2Bar, trials int) []Figure2Bar {
	n := time.Duration(trials)
	out := make([]Figure2Bar, len(one))
	for i, b := range one {
		out[i] = Figure2Bar{Name: b.Name, Phases: map[string]time.Duration{}, Total: b.Total}
		for k, v := range b.Phases {
			out[i].Phases[k] = v / n * n
		}
	}
	return out
}

// TestLabsReplayFreshMachines: a lab is as good as a freshly built
// machine. Each experiment gives the same result on machines built for it
// as on labs the others have just used (in reverse order). And every
// Figure 2 trial gives what one trial on a freshly built machine gives, as
// the paper's trials on freshly powered platforms do.
func TestLabsReplayFreshMachines(t *testing.T) {
	for _, seed := range []uint64{42, 7, 1<<40 + 3} {
		for _, trials := range []int{3, 20} {
			cfg := Config{Trials: trials, KeyBits: 1024, Seed: seed}
			for i, e := range labExperiments {
				resetLabs()
				cold, err := e.run(cfg)
				if err != nil {
					t.Fatalf("seed %d, %d trials: cold %s: %v", seed, trials, e.name, err)
				}
				for j := len(labExperiments) - 1; j >= 0; j-- {
					if j == i {
						continue
					}
					if _, err := labExperiments[j].run(cfg); err != nil {
						t.Fatalf("seed %d, %d trials: %s: %v", seed, trials, labExperiments[j].name, err)
					}
				}
				warm, err := e.run(cfg)
				if err != nil {
					t.Fatalf("seed %d, %d trials: warm %s: %v", seed, trials, e.name, err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("seed %d, %d trials: %s on used labs\n%+v\nwant, as on fresh machines,\n%+v", seed, trials, e.name, warm, cold)
				}
			}

			resetLabs()
			one, err := Figure2(Config{Trials: 1, KeyBits: cfg.KeyBits, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			many, err := Figure2(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := figure2Trials(one, trials); !reflect.DeepEqual(many, want) {
				t.Errorf("seed %d: Figure 2 over %d trials\n%+v\nwant every trial to replay a fresh machine's\n%+v", seed, trials, many, want)
			}
		}
	}
}

// TestConcurrentVerifyAll: experiments running at once never share a
// machine, so each regeneration equals a sequential one.
func TestConcurrentVerifyAll(t *testing.T) {
	want, err := VerifyAll(Quick())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, runs = 2, 3
	got := make([][][]Check, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs && errs[g] == nil; r++ {
				var c []Check
				c, errs[g] = VerifyAll(Quick())
				got[g] = append(got[g], c)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for r, c := range got[g] {
			if !reflect.DeepEqual(c, want) {
				t.Errorf("goroutine %d, run %d: checks differ from a sequential run", g, r)
			}
		}
	}
}
