package palsvc

import (
	"sync"

	"minimaltcb/internal/core"
	"minimaltcb/internal/evidence"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// palCache caches compiled PAL images keyed by the measurement digest of
// their source text, so repeated tenants skip the assembler entirely. The
// key is a digest of the *source* (the image — and hence the attested
// measurement — is a pure function of it): tenants submitting
// byte-identical source share one image and one attested identity. Like
// pal.Build's own cache it is emptied at pal.CacheLimit entries, so a
// tenant sending ever-new sources cannot pin unbounded images.
type palCache struct {
	mu     sync.Mutex
	byKey  map[tpm.Digest]*core.PAL
	hits   uint64
	misses uint64
}

func newPALCache() *palCache {
	return &palCache{byKey: map[tpm.Digest]*core.PAL{}}
}

// get returns the cached PAL for source, compiling and inserting it on a
// miss. Compilation happens outside the lock so a large assembly job never
// stalls cache hits; a racing duplicate compile is harmless (the image is
// deterministic) and the first insert wins.
func (c *palCache) get(name, source string) (*core.PAL, error) {
	key := evidence.Measure([]byte(source))
	c.mu.Lock()
	if p, ok := c.byKey[key]; ok {
		c.hits++
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	p, err := core.CompilePAL(name, source)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.misses++
	if prior, ok := c.byKey[key]; ok {
		p = prior
	} else {
		if len(c.byKey) >= pal.CacheLimit {
			c.byKey = make(map[tpm.Digest]*core.PAL)
		}
		c.byKey[key] = p
	}
	c.mu.Unlock()
	return p, nil
}

func (c *palCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
