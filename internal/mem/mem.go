// Package mem models physical memory and the per-page access-control table
// the paper recommends adding to the memory controller (§5.2).
//
// The table holds one entry per physical page. A page is in one of three
// states (Figure 5(b) of the paper):
//
//   - ALL:  accessible to every CPU and to DMA-capable devices (default);
//   - CPU i: accessible only to CPU i (a PAL is executing there);
//   - NONE: accessible to nothing (the owning PAL is suspended).
//
// The package enforces the state machine's legal transitions; illegal ones
// (e.g. a second CPU claiming a page that is not in ALL or NONE) return
// errors that the chipset surfaces as SLAUNCH failure codes, exactly as
// §5.6 prescribes.
//
// Physical memory and its table are both backed sparsely, in 64 KB chunks.
// A chunk holds the control state of its 16 pages and, once written, its
// bytes. A chunk never touched reads as all zeros with every page in ALL;
// its control state materializes on the first transition or write, and
// its bytes only on the first write. A simulated machine therefore costs
// an 8 KB chunk-pointer slice (for 64 MB), about 300 B per touched chunk
// and 64 KB per written chunk, rather than its physical memory size or a
// dense page table, which is what makes building a machine cheap (see
// docs/PERFORMANCE.md).
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the size of one physical page in bytes.
const PageSize = 4096

// chunkShift selects the sparse-backing granularity: 64 KB chunks, the
// architectural SLB limit, so a whole PAL image usually lands in one or two
// chunks.
const chunkShift = 16

// ChunkSize is the sparse-backing chunk size in bytes.
const ChunkSize = 1 << chunkShift

// chunkPages is the number of pages per chunk: page p's control state
// lives in chunk p/chunkPages.
const chunkPages = ChunkSize / PageSize

// zeroChunk backs reads of never-written chunks. Read-only by contract:
// View may hand out subslices of it.
var zeroChunk [ChunkSize]byte

// PageState encodes the access-control entry for one page: AccessAll,
// AccessNone, or the ID (>= 0) of the single CPU allowed to touch the page.
type PageState int32

const (
	// AccessAll marks a page accessible by all CPUs and DMA devices.
	AccessAll PageState = -1
	// AccessNone marks a page inaccessible to everything on the platform
	// (state of a suspended PAL's memory).
	AccessNone PageState = -2
)

// String renders the state as in the paper's Figure 5(b).
func (s PageState) String() string {
	switch {
	case s == AccessAll:
		return "ALL"
	case s == AccessNone:
		return "NONE"
	case s >= 0:
		return fmt.Sprintf("CPU%d", int32(s))
	default:
		return fmt.Sprintf("invalid(%d)", int32(s))
	}
}

// ErrPageBusy is returned when a transition requires a page in ALL or NONE
// but it is currently bound to a CPU — the "another PAL is already using
// these memory pages" failure of §5.6.
var ErrPageBusy = errors.New("mem: page owned by another CPU")

// ErrOutOfRange is returned for page or byte addresses beyond physical
// memory.
var ErrOutOfRange = errors.New("mem: address out of range")

// ErrDenied is returned when the access-control table forbids a request.
var ErrDenied = errors.New("mem: access denied by access-control table")

// pageMeta is the per-page control state, 16 bytes.
type pageMeta struct {
	// shares is a bitmask of additional CPUs granted access while the
	// page is CPU-owned — the §6 "multicore PALs" extension. Meaningful
	// only while state >= 0.
	shares uint64
	// state is the access-control entry (Figure 5(b)).
	state PageState
	// dev is the legacy DEV (Device Exclusion Vector) bit: true = page
	// protected from DMA.
	dev bool
}

// chunk is one ChunkSize piece of physical memory: the control state of
// its pages and, once written, its bytes.
type chunk struct {
	pages [chunkPages]pageMeta
	data  []byte // nil until the chunk is first written: all zeros
}

func newChunk() *chunk {
	c := new(chunk)
	for i := range c.pages {
		c.pages[i].state = AccessAll
	}
	return c
}

// untouched stands in for every chunk never written or transitioned: all
// zeros, and every page ALL with no shares and DEV clear.
// Only read hands it out; it is never written.
var untouched = newChunk()

// Memory is flat physical memory plus its access-control table and the
// legacy DEV bit vector used by SKINIT to protect the SLB from DMA.
type Memory struct {
	size   int
	pages  int
	chunks []*chunk // nil entry = chunk never touched (see untouched)
}

// New allocates physical memory of the given size, rounded up to a whole
// number of pages, with every page in the ALL state. Chunks materialize
// on first touch.
func New(size int) *Memory {
	pages := (size + PageSize - 1) / PageSize
	if pages < 1 {
		pages = 1
	}
	size = pages * PageSize
	return &Memory{
		size:   size,
		pages:  pages,
		chunks: make([]*chunk, (size+ChunkSize-1)/ChunkSize),
	}
}

// read returns chunk ci for reading: untouched if it was never touched.
// Every read of the table or the bytes goes through it, and no caller
// writes through the result.
func (m *Memory) read(ci int) *chunk {
	if c := m.chunks[ci]; c != nil {
		return c
	}
	return untouched
}

// touch returns chunk ci for mutation, materializing its control state,
// but not its bytes, on first use. Every mutation goes through it.
func (m *Memory) touch(ci int) *chunk {
	c := m.chunks[ci]
	if c == nil {
		c = newChunk()
		m.chunks[ci] = c
	}
	return c
}

// meta returns the control state of an in-range page for reading; like
// read's result, nothing writes through it.
func (m *Memory) meta(page int) *pageMeta {
	return &m.read(int(uint(page) / chunkPages)).pages[uint(page)%chunkPages]
}

// metaMut returns the control state of an in-range page for mutation.
func (m *Memory) metaMut(page int) *pageMeta {
	return &m.touch(int(uint(page) / chunkPages)).pages[uint(page)%chunkPages]
}

// inRange reports whether page is a page of this memory.
func (m *Memory) inRange(page int) bool { return page >= 0 && page < m.pages }

// Size returns the physical memory size in bytes.
func (m *Memory) Size() int { return m.size }

// NumPages returns the number of physical pages.
func (m *Memory) NumPages() int { return m.pages }

// PageOf returns the page number containing byte address addr.
func PageOf(addr uint32) int { return int(addr) / PageSize }

// State returns the access-control entry for a page.
func (m *Memory) State(page int) (PageState, error) {
	if !m.inRange(page) {
		return 0, fmt.Errorf("%w: page %d", ErrOutOfRange, page)
	}
	return m.meta(page).state, nil
}

// Claim transitions a page to exclusive ownership by cpu. Permitted from
// ALL (first launch) and NONE (resume); from CPU state only if it is the
// same CPU (idempotent re-claim). This is the transition the memory
// controller performs during SLAUNCH.
func (m *Memory) Claim(page, cpu int) error {
	st, err := m.State(page)
	if err != nil {
		return err
	}
	if cpu < 0 {
		return fmt.Errorf("mem: invalid CPU id %d", cpu)
	}
	switch {
	case st == AccessAll, st == AccessNone, st == PageState(cpu):
		m.metaMut(page).state = PageState(cpu)
		return nil
	default:
		return fmt.Errorf("%w: page %d is %v, CPU%d cannot claim", ErrPageBusy, page, st, cpu)
	}
}

// Seclude transitions a page from CPU ownership to NONE (PAL suspend). Only
// the owning CPU may seclude. Any joined CPUs lose access: suspension
// revokes the whole set, and a resume re-establishes joins explicitly.
func (m *Memory) Seclude(page, cpu int) error {
	st, err := m.State(page)
	if err != nil {
		return err
	}
	if st != PageState(cpu) {
		return fmt.Errorf("%w: page %d is %v, CPU%d cannot seclude", ErrPageBusy, page, st, cpu)
	}
	pm := m.metaMut(page)
	pm.state = AccessNone
	pm.shares = 0
	return nil
}

// Release returns a page to the ALL state (SFREE by the owning CPU, or
// SKILL on a suspended PAL whose pages are NONE).
func (m *Memory) Release(page, cpu int) error {
	st, err := m.State(page)
	if err != nil {
		return err
	}
	switch {
	case st == PageState(cpu), st == AccessNone, st == AccessAll:
		pm := m.metaMut(page)
		pm.state = AccessAll
		pm.shares = 0
		return nil
	default:
		return fmt.Errorf("%w: page %d is %v, CPU%d cannot release", ErrPageBusy, page, st, cpu)
	}
}

// Share grants joiner access to a CPU-owned page alongside its owner — the
// memory-controller half of the §6 multicore-PAL join operation. Only the
// current owner may extend the set, and only while the page is CPU-owned.
func (m *Memory) Share(page, owner, joiner int) error {
	st, err := m.State(page)
	if err != nil {
		return err
	}
	if st != PageState(owner) {
		return fmt.Errorf("%w: page %d is %v, CPU%d cannot share it", ErrPageBusy, page, st, owner)
	}
	if joiner < 0 || joiner >= 64 {
		return fmt.Errorf("mem: invalid joiner CPU id %d", joiner)
	}
	m.metaMut(page).shares |= 1 << uint(joiner)
	return nil
}

// Unshare revokes a joiner's access to a CPU-owned page.
func (m *Memory) Unshare(page, joiner int) error {
	if !m.inRange(page) {
		return fmt.Errorf("%w: page %d", ErrOutOfRange, page)
	}
	if joiner >= 0 && joiner < 64 {
		m.metaMut(page).shares &^= 1 << uint(joiner)
	}
	return nil
}

// SharedWith reports whether cpu has joined access to the page.
func (m *Memory) SharedWith(page, cpu int) bool {
	if !m.inRange(page) || cpu < 0 || cpu >= 64 {
		return false
	}
	return m.meta(page).shares&(1<<uint(cpu)) != 0
}

// CheckCPU reports whether cpu may access the page under the current table.
func (m *Memory) CheckCPU(page, cpu int) error {
	if !m.inRange(page) {
		return fmt.Errorf("%w: page %d", ErrOutOfRange, page)
	}
	st := m.meta(page).state
	if st == AccessAll || st == PageState(cpu) {
		return nil
	}
	if st >= 0 && m.SharedWith(page, cpu) {
		return nil
	}
	return fmt.Errorf("%w: CPU%d -> page %d (%v)", ErrDenied, cpu, page, st)
}

// CheckDMA reports whether a DMA-capable device may access the page: the
// page must be in ALL state and its DEV bit must be clear.
func (m *Memory) CheckDMA(page int) error {
	st, err := m.State(page)
	if err != nil {
		return err
	}
	if st != AccessAll {
		return fmt.Errorf("%w: DMA -> page %d (%v)", ErrDenied, page, st)
	}
	if m.meta(page).dev {
		return fmt.Errorf("%w: DMA -> page %d (DEV bit set)", ErrDenied, page)
	}
	return nil
}

// SetDEV sets or clears the DEV bit for a page. SKINIT sets the bits for
// the SLB's pages before measurement begins.
func (m *Memory) SetDEV(page int, protected bool) error {
	if !m.inRange(page) {
		return fmt.Errorf("%w: page %d", ErrOutOfRange, page)
	}
	m.metaMut(page).dev = protected
	return nil
}

// DEV reports the DEV bit for a page.
func (m *Memory) DEV(page int) (bool, error) {
	if !m.inRange(page) {
		return false, fmt.Errorf("%w: page %d", ErrOutOfRange, page)
	}
	return m.meta(page).dev, nil
}

// checkRange validates [addr, addr+n).
func (m *Memory) checkRange(addr uint32, n int) error {
	if n < 0 || int(addr) > m.size || int(addr)+n > m.size {
		return fmt.Errorf("%w: [%d, %d)", ErrOutOfRange, addr, int(addr)+n)
	}
	return nil
}

// dataFor returns the bytes of the chunk containing addr for writing,
// materializing them on first use.
func (m *Memory) dataFor(addr uint32) []byte {
	c := m.touch(int(addr >> chunkShift))
	if c.data == nil {
		c.data = make([]byte, ChunkSize)
	}
	return c.data
}

// ReadInto fills dst with the bytes at addr without access checks and
// without allocating. Hardware microcode (the SLB header, the saved state
// in a SECB page) uses it with a stack buffer; software paths must go
// through the chipset, which checks the table.
func (m *Memory) ReadInto(dst []byte, addr uint32) error {
	if err := m.checkRange(addr, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		off := int(addr) & (ChunkSize - 1)
		n := ChunkSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if c := m.read(int(addr >> chunkShift)).data; c != nil {
			copy(dst[:n], c[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
	return nil
}

// View returns a bounded read-only subslice of physical memory covering
// [addr, addr+n), without copying and without access checks, when the range
// lies within a single backing chunk; ok is false when it does not (the
// caller falls back to ReadInto/ReadRaw). Reads of never-written memory
// view a shared zero chunk. Callers must not write through or retain the
// view across writes: it aliases live memory.
func (m *Memory) View(addr uint32, n int) (b []byte, ok bool) {
	// uint(n) also rejects n < 0, and max(n, 1) an empty view at Size(),
	// which lies in no chunk.
	off := int(addr) & (ChunkSize - 1)
	if uint(n) > uint(ChunkSize-off) || int(addr)+max(n, 1) > m.size {
		return nil, false
	}
	c := m.read(int(addr >> chunkShift)).data
	if c == nil {
		c = zeroChunk[:]
	}
	return c[off : off+n : off+n], true
}

// Views appends to dst bounded read-only views of [addr, addr+n), one per
// backing chunk the range touches, and returns the extended slice; the
// views concatenate to the range's bytes. Like View it neither copies nor
// checks access, and never-written memory views the shared zero chunk.
// Late-launch microcode measures an SLB through them where it lies. The
// views alias live memory: callers must not write through them or use them
// after the range is next written. An out-of-range request returns dst
// unchanged and ErrOutOfRange.
func (m *Memory) Views(dst [][]byte, addr uint32, n int) ([][]byte, error) {
	if err := m.checkRange(addr, n); err != nil {
		return dst, err
	}
	for n > 0 {
		off := int(addr) & (ChunkSize - 1)
		step := min(ChunkSize-off, n)
		c := m.read(int(addr >> chunkShift)).data
		if c == nil {
			c = zeroChunk[:]
		}
		dst = append(dst, c[off:off+step:off+step])
		n -= step
		addr += uint32(step)
	}
	return dst, nil
}

// ReadRaw copies n bytes at addr without access checks. Test fixtures and
// untrusted callers that retain the result use it; zero-allocation paths
// use ReadInto, View or Views.
func (m *Memory) ReadRaw(addr uint32, n int) ([]byte, error) {
	if err := m.checkRange(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	_ = m.ReadInto(out, addr)
	return out, nil
}

// WriteRaw copies b into memory at addr without access checks.
func (m *Memory) WriteRaw(addr uint32, b []byte) error {
	if err := m.checkRange(addr, len(b)); err != nil {
		return err
	}
	for len(b) > 0 {
		off := int(addr) & (ChunkSize - 1)
		n := ChunkSize - off
		if n > len(b) {
			n = len(b)
		}
		copy(m.dataFor(addr)[off:], b[:n])
		b = b[n:]
		addr += uint32(n)
	}
	return nil
}

// ReadWordRaw reads a 32-bit little-endian word without access checks or
// allocation.
func (m *Memory) ReadWordRaw(addr uint32) (uint32, error) {
	if b, ok := m.View(addr, 4); ok {
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	var buf [4]byte
	if err := m.ReadInto(buf[:], addr); err != nil {
		return 0, err
	}
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24, nil
}

// WriteWordRaw writes a 32-bit little-endian word without access checks or
// allocation.
func (m *Memory) WriteWordRaw(addr uint32, v uint32) error {
	if err := m.checkRange(addr, 4); err != nil {
		return err
	}
	off := int(addr) & (ChunkSize - 1)
	if off+4 <= ChunkSize {
		c := m.dataFor(addr)
		c[off] = byte(v)
		c[off+1] = byte(v >> 8)
		c[off+2] = byte(v >> 16)
		c[off+3] = byte(v >> 24)
		return nil
	}
	for i := 0; i < 4; i++ {
		a := addr + uint32(i)
		m.dataFor(a)[int(a)&(ChunkSize-1)] = byte(v >> (8 * i))
	}
	return nil
}

// ReadByteRaw reads one byte without access checks or allocation.
func (m *Memory) ReadByteRaw(addr uint32) (byte, error) {
	if err := m.checkRange(addr, 1); err != nil {
		return 0, err
	}
	c := m.read(int(addr >> chunkShift)).data
	if c == nil {
		return 0, nil
	}
	return c[int(addr)&(ChunkSize-1)], nil
}

// WriteByteRaw writes one byte without access checks or allocation.
func (m *Memory) WriteByteRaw(addr uint32, v byte) error {
	if err := m.checkRange(addr, 1); err != nil {
		return err
	}
	m.dataFor(addr)[int(addr)&(ChunkSize-1)] = v
	return nil
}

// ZeroRange zeroes [addr, addr+n) without access checks; SKILL microcode
// uses it to erase a killed PAL's pages. Never-written chunks are already
// zero and are skipped; materialized ones are cleared in place.
func (m *Memory) ZeroRange(addr uint32, n int) error {
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	for n > 0 {
		off := int(addr) & (ChunkSize - 1)
		step := ChunkSize - off
		if step > n {
			step = n
		}
		if c := m.read(int(addr >> chunkShift)).data; c != nil {
			clear(c[off : off+step])
		}
		n -= step
		addr += uint32(step)
	}
	return nil
}

// Region describes a contiguous range of physical memory, page-aligned by
// construction when created with RegionForPages.
type Region struct {
	Base uint32 // starting physical address
	Size int    // length in bytes
}

// RegionForPages returns the region covering pages [first, first+count).
func RegionForPages(first, count int) Region {
	return Region{Base: uint32(first * PageSize), Size: count * PageSize}
}

// Pages returns the list of page numbers the region touches. It allocates;
// hot paths iterate [FirstPage, LastPage] directly.
func (r Region) Pages() []int {
	if r.Size <= 0 {
		return nil
	}
	first := PageOf(r.Base)
	last := PageOf(r.Base + uint32(r.Size) - 1)
	out := make([]int, 0, last-first+1)
	for p := first; p <= last; p++ {
		out = append(out, p)
	}
	return out
}

// FirstPage returns the first page the region touches (meaningless for
// empty regions; pair with LastPage and check Size > 0).
func (r Region) FirstPage() int { return PageOf(r.Base) }

// LastPage returns the last page the region touches.
func (r Region) LastPage() int { return PageOf(r.Base + uint32(r.Size) - 1) }

// Contains reports whether addr lies inside the region.
func (r Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr < r.Base+uint32(r.Size)
}

// End returns the first address past the region.
func (r Region) End() uint32 { return r.Base + uint32(r.Size) }
