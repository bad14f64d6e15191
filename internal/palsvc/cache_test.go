package palsvc

import (
	"fmt"
	"testing"

	"minimaltcb/internal/pal"
)

// TestPALCacheBounded: a tenant sending ever-new sources cannot grow the
// image cache past pal.CacheLimit entries, and a repeated source still
// hits.
func TestPALCacheBounded(t *testing.T) {
	c := newPALCache()
	var last string
	for i := 0; i <= pal.CacheLimit; i++ {
		last = fmt.Sprintf("ldi r0, %d\nsvc 0", i)
		if _, err := c.get("tenant", last); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.byKey); n > pal.CacheLimit {
		t.Fatalf("%d cached images after %d distinct sources, want at most %d", n, pal.CacheLimit+1, pal.CacheLimit)
	}
	hits, _ := c.stats()
	if _, err := c.get("tenant", last); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.stats(); h != hits+1 {
		t.Fatal("repeated source missed the cache")
	}
}
