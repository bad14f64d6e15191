// Package cluster shards PAL jobs across multiple palservd backends behind
// one front-end speaking the same length-prefixed wire protocol
// (internal/palsvc/wire.go) on both sides — the distribution fabric the
// paper's single-machine measurements stop short of, and the SoK on
// hardware TEEs frames as the real scaling problem: many isolated execution
// units behind a routing/attestation layer.
//
// Placement is a consistent-hash ring keyed by the job's image measurement
// (the same digest palsvc's image cache keys on), so repeated submissions of
// one PAL land on one shard and keep its decode/measure/verify caches hot.
// When that shard's sePCR bank or queue saturates, the router performs
// bounded work stealing — walking the ring to the next distinct backend
// instead of rejecting — and only when every live backend has rejected does
// it return the typed, retryable shed_load rejection cluster-wide. A health
// prober drives PR5's resilience signals across nodes: backends that stop
// answering (wedged, killed) or report fleet-wide quarantine are drained
// from the ring and rejoin when they recover.
package cluster

import (
	"sort"
	"sync"

	"minimaltcb/internal/evidence"
)

// DefaultVNodes is the virtual-node count per backend. 64 points per
// backend keeps the keyspace split within a few percent of even for
// single-digit cluster sizes while the ring stays small enough that a
// membership change rebuilds it in microseconds.
const DefaultVNodes = 64

// fnv64a is the ring's hash: stdlib-only, stable across runs (placement
// must not depend on process randomness — a restarted router has to agree
// with its predecessor about where images live).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// RouteKey hashes a job's placement identity. The digest is the PAL
// *source* measurement — exactly the key palsvc's image cache uses — so
// affinity follows the attested identity, not the tenant name: two tenants
// submitting byte-identical source share a shard and its warm caches.
func RouteKey(source string) uint64 {
	d := evidence.Measure([]byte(source))
	return fnv64a(d[:])
}

// mix64 is a 64-bit finalizer (the MurmurHash3 constants) applied to
// virtual-node hashes. FNV's avalanche on the *last* bytes of short keys is
// weak, and vnode keys differ only in their index suffix — without the
// finalizer a backend's 64 points clump and the keyspace splits up to 5x
// uneven.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	addr string
}

// Ring is a consistent-hash ring over backend addresses. Membership changes
// (Add/Remove) rebuild the sorted point list; lookups are a binary search
// under a read lock. Removing a backend remaps only the keys that hashed to
// its virtual nodes — ~1/N of the keyspace — which is the property the
// stability test pins.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point
	member map[string]bool
}

// NewRing builds an empty ring with the given virtual-node count per
// backend (<= 0 means DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, member: make(map[string]bool)}
}

// Add inserts a backend's virtual nodes. Adding a present member is a
// no-op.
func (r *Ring) Add(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[addr] {
		return
	}
	r.member[addr] = true
	for i := 0; i < r.vnodes; i++ {
		key := []byte(addr)
		key = append(key, '#', byte(i), byte(i>>8))
		r.points = append(r.points, point{hash: mix64(fnv64a(key)), addr: addr})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove drains a backend's virtual nodes. Removing an absent member is a
// no-op.
func (r *Ring) Remove(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[addr] {
		return
	}
	delete(r.member, addr)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.addr != addr {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(addr string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.member[addr]
}

// Members returns the live backends in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for a := range r.member {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Size returns the live-member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Successors returns up to n distinct backends clockwise from key: the
// primary placement first, then the work-stealing fallbacks in ring order.
// The ordering is a pure function of (membership, key), so every request
// for one image walks the same failover chain and steals still benefit from
// whatever cache heat earlier steals built.
func (r *Ring) Successors(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}

// Primary returns the first successor, or "" on an empty ring.
func (r *Ring) Primary(key uint64) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}
