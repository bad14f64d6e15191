package palsvc

import "minimaltcb/internal/obs/prof"

// Profile snapshots the service's merged virtual-cycle profile: each
// machine's collector is read under that machine's lock (the same
// serialization that guards execution), the per-tenant ledger is copied
// in, and the result is finished (basic blocks recovered, samples in
// canonical order). Returns nil when the service was built without a
// Profiler. Safe to call concurrently with job execution — a snapshot
// simply waits its turn on each machine like any other job.
func (s *Service) Profile() *prof.Profile {
	if s.cfg.Profiler == nil {
		return nil
	}
	p := prof.NewProfile()
	for _, m := range s.machines {
		m.mu.Lock()
		if m.prof != nil {
			m.prof.SnapshotInto(p)
		}
		m.mu.Unlock()
	}
	s.cfg.Profiler.TenantsInto(p)
	p.Finish()
	return p
}
