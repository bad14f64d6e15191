package experiments

import (
	"sync"

	"minimaltcb/internal/osker"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sksm"
)

// lab is one cached machine the experiments drive: the machine, its
// untrusted kernel and, on a profile with sePCRs, its SLAUNCH manager.
type lab struct {
	// mu is held for as long as one experiment uses the lab.
	mu sync.Mutex
	// dropped marks a lab taken out of the cache (guarded by mu): a
	// caller that found it before the drop builds a fresh one instead.
	dropped bool

	m  *platform.Machine
	k  *osker.Kernel
	mg *sksm.Manager // nil unless the profile provisions sePCRs
}

// labs caches one lab per platform.Profile for every experiment: Table 1,
// Figures 2 and 3, Table 2, §5.7's impact, the launch ablations and the
// cross-platform and seal-payload ablations. A profile is a plain value
// struct, so it is the key itself; two profiles that differ only in bus
// timing (the TPM-wait ablation) get distinct machines, and experiments
// that name the same profile share one (the HP dc5750 at a seed serves
// Table 1, Figures 2 and 3, the impact and the cross-platform ablation).
// The sePCR-count, quantum, two-stage and concurrency experiments build
// their own machines: the sePCR-count sweep leaves its PALs suspended.
//
// A lab replays a freshly built machine bit for bit:
//   - acquiring it powers its TPM on (tpm.TPM.Boot), which rewinds the
//     chip's seeded RNG and resets every PCR, sePCR and quote session, as
//     platform.New does;
//   - every experiment returns what it took — pages, sePCRs, DEV bits, the
//     core's launch state — before it releases the lab, and the page
//     allocator is first-fit, so the next user sees the same layout;
//   - results come from stopwatches on the virtual clock, so the clock's
//     absolute time does not matter;
//   - Figure 2 reboots the TPM before each trial, so every trial replays
//     the first, as trials on freshly built machines would.
//
// A lab is locked for the whole time an experiment uses it, so concurrent
// experiments never share a machine, and an experiment holds one lab at a
// time, so they cannot deadlock. A lab whose use failed may be left
// mid-launch; it is dropped, and the next user builds a fresh one.
var labs struct {
	sync.Mutex
	m map[platform.Profile]*lab
}

// maxLabs bounds the cache; a new lab past it empties the cache first.
const maxLabs = 64

// withLab runs f on the profile's lab with its TPM freshly booted, holding
// the lab until f returns. It builds the lab on first use and drops it if
// f fails or panics.
func withLab(p platform.Profile, f func(*lab) error) error {
	l, err := acquireLab(p)
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			dropLab(p, l)
		}
		l.mu.Unlock()
	}()
	if err := f(l); err != nil {
		return err
	}
	ok = true
	return nil
}

// acquireLab returns the profile's lab, locked and with its TPM booted.
func acquireLab(p platform.Profile) (*lab, error) {
	for {
		labs.Lock()
		l := labs.m[p]
		if l == nil {
			var err error
			if l, err = newLab(p); err != nil {
				labs.Unlock()
				return nil, err
			}
			if labs.m == nil || len(labs.m) >= maxLabs {
				labs.m = map[platform.Profile]*lab{}
			}
			labs.m[p] = l
		}
		labs.Unlock()
		l.mu.Lock()
		if !l.dropped {
			if t := l.m.TPM(); t != nil {
				t.Boot()
			}
			return l, nil
		}
		l.mu.Unlock()
	}
}

func newLab(p platform.Profile) (*lab, error) {
	m, err := platform.New(p)
	if err != nil {
		return nil, err
	}
	l := &lab{m: m, k: osker.NewKernel(m)}
	if p.NumSePCRs > 0 {
		if l.mg, err = sksm.NewManager(l.k); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// dropLab takes a lab its caller holds out of the cache.
func dropLab(p platform.Profile, l *lab) {
	l.dropped = true
	labs.Lock()
	if labs.m[p] == l {
		delete(labs.m, p)
	}
	labs.Unlock()
}
