package cpu

import (
	"bytes"
	"sync"
	"time"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/tpm"
)

// The launch-measurement cache removes the dominant host-side cost of a
// late launch: hashing the same SLB image on every invocation. Profiles of
// the Table 1 and context-switch experiments put ~85% of wall time in
// crypto/sha1 — the simulator re-measures a byte-identical image thousands
// of times while the *virtual* cost model (bus transfer time, HashPerKB)
// is what the experiment actually reports.
//
// The cache is validated by full content compare, not by identity or page
// versions: launch microcode streams images through pooled scratch buffers
// (so slice identity is meaningless), and experiments rewrite the image
// into memory before every trial (so page versions never match). A memcmp
// of the freshly read bytes against the cached private copy is ~100×
// cheaper than SHA-1 and makes the cache exact by construction: a hit
// proves the bytes are the ones the stored digest was computed from.
//
// Virtual charging is untouched — callers advance the clock for bus
// transfers and on-CPU hashing exactly as before; only the host-side
// digest computation is served from cache.

// launchCacheEntries is the number of digest slots. The cache is fully
// associative with round-robin eviction: a latency sweep launches a
// handful of distinct image sizes in rotation, and a direct-mapped table
// would let two sizes sharing a slot evict each other on every pass.
const launchCacheEntries = 16

// acmTag indexes the SENTER ACMod measurement, which has no region base.
const acmTag = 0xac000000

type launchEntry struct {
	tag  uint32 // region base (or acmTag); narrows the scan, never trusted
	size int
	img  []byte // private copy of the measured bytes
	meas tpm.Digest
}

// launchMemo is process-global, not per-CPU: experiment sweeps build fresh
// machines by the dozen, and a per-CPU cache would re-copy and re-hash the
// same images for every one of them. The digest is a pure function of the
// bytes and the content compare guards every hit, so sharing across
// machines cannot leak state between them.
var launchMemo struct {
	mu      sync.Mutex
	clock   int
	entries [launchCacheEntries]launchEntry
}

// measureCached returns SHA-1 of data, serving repeats of byte-identical
// inputs from the shared cache. A hit requires the full content compare;
// tag and size only cheapen the scan.
func (c *CPU) measureCached(tag uint32, data []byte) tpm.Digest {
	lm := &launchMemo
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for i := range lm.entries {
		e := &lm.entries[i]
		if e.tag == tag && e.size == len(data) && e.img != nil && bytes.Equal(e.img, data) {
			return e.meas
		}
	}
	d := evidence.Measure(data)
	e := &lm.entries[lm.clock%launchCacheEntries]
	lm.clock++
	e.tag = tag
	e.size = len(data)
	e.img = append(e.img[:0], data...)
	e.meas = d
	return d
}

// hashOnCPUCached is HashOnCPU with the digest served through the launch
// cache: the virtual charge (the ACMod's on-CPU hash rate) is identical.
func (c *CPU) hashOnCPUCached(tag uint32, data []byte) tpm.Digest {
	c.Clock().Advance(time.Duration(len(data)) * c.Params.HashPerKB / 1024)
	return c.measureCached(tag, data)
}
