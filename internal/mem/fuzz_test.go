package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

const (
	fuzzChunks = 4
	fuzzPages  = fuzzChunks*chunkPages + 3 // the last chunk is partial
	fuzzMaxOps = 64
)

// The values an op's bytes select from: pages on both sides of every chunk
// boundary, the last chunk's pages and pages past either end; valid and
// invalid CPU ids; in-page offsets that put a word or a write across a
// page or chunk boundary; and write lengths up to a whole chunk.
var (
	fuzzPageSel = []int{
		0, chunkPages - 1, chunkPages, 2*chunkPages - 1, 2 * chunkPages,
		3*chunkPages - 1, 3 * chunkPages, 4*chunkPages - 1, 4 * chunkPages,
		fuzzPages - 2, fuzzPages - 1, fuzzPages, -1,
	}
	fuzzCPUs    = []int{0, 1, 2, 3, -1, 63, 64}
	fuzzOffsets = []int{0, 1, PageSize - 4, PageSize - 3, PageSize - 1}
	fuzzLens    = []int{0, 1, 4, 5, PageSize, PageSize + 7, ChunkSize}
)

// The op kinds, by the first byte of an op modulo fzKinds.
const (
	fzClaim = iota
	fzSeclude
	fzRelease
	fzShare
	fzUnshare
	fzSetDEV
	fzWriteRaw
	fzWriteWord
	fzWriteByte
	fzZeroRange
	fzViews
	fzKinds
)

// refMemory is the dense reference model of Memory: one pageMeta per page
// and one flat byte array, the representation Memory had before its table
// went sparse. It implements the Fig. 5(b) transitions on its own, so a
// bug in the chunk backing cannot hide in code the two share.
type refMemory struct {
	pages []pageMeta
	bytes []byte
}

func newRefMemory(pages int) *refMemory {
	r := &refMemory{pages: make([]pageMeta, pages), bytes: make([]byte, pages*PageSize)}
	for i := range r.pages {
		r.pages[i].state = AccessAll
	}
	return r
}

var errRefInvalid = errors.New("ref: invalid argument")

func (r *refMemory) page(p int) (*pageMeta, error) {
	if p < 0 || p >= len(r.pages) {
		return nil, ErrOutOfRange
	}
	return &r.pages[p], nil
}

func (r *refMemory) claim(p, cpu int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if cpu < 0 {
		return errRefInvalid
	}
	if pm.state != AccessAll && pm.state != AccessNone && pm.state != PageState(cpu) {
		return ErrPageBusy
	}
	pm.state = PageState(cpu)
	return nil
}

func (r *refMemory) seclude(p, cpu int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if pm.state != PageState(cpu) {
		return ErrPageBusy
	}
	pm.state, pm.shares = AccessNone, 0
	return nil
}

func (r *refMemory) release(p, cpu int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if pm.state != PageState(cpu) && pm.state != AccessNone && pm.state != AccessAll {
		return ErrPageBusy
	}
	pm.state, pm.shares = AccessAll, 0
	return nil
}

func (r *refMemory) share(p, owner, joiner int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if pm.state != PageState(owner) {
		return ErrPageBusy
	}
	if joiner < 0 || joiner >= 64 {
		return errRefInvalid
	}
	pm.shares |= 1 << uint(joiner)
	return nil
}

func (r *refMemory) unshare(p, joiner int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if joiner >= 0 && joiner < 64 {
		pm.shares &^= 1 << uint(joiner)
	}
	return nil
}

func (r *refMemory) setDEV(p int, on bool) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	pm.dev = on
	return nil
}

// span returns the bytes [addr, addr+n).
func (r *refMemory) span(addr uint32, n int) ([]byte, error) {
	if n < 0 || int(addr) > len(r.bytes) || int(addr)+n > len(r.bytes) {
		return nil, ErrOutOfRange
	}
	return r.bytes[addr : int(addr)+n], nil
}

func (r *refMemory) checkCPU(p, cpu int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if pm.state == AccessAll || pm.state == PageState(cpu) {
		return nil
	}
	if pm.state >= 0 && r.sharedWith(p, cpu) {
		return nil
	}
	return ErrDenied
}

func (r *refMemory) sharedWith(p, cpu int) bool {
	pm, err := r.page(p)
	return err == nil && cpu >= 0 && cpu < 64 && pm.shares&(1<<uint(cpu)) != 0
}

func (r *refMemory) checkDMA(p int) error {
	pm, err := r.page(p)
	if err != nil {
		return err
	}
	if pm.state != AccessAll || pm.dev {
		return ErrDenied
	}
	return nil
}

// errClass names the kind of an error, which is what the two sides must
// agree on; the messages are Memory's own.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrOutOfRange):
		return "out of range"
	case errors.Is(err, ErrPageBusy):
		return "busy"
	case errors.Is(err, ErrDenied):
		return "denied"
	}
	return "error"
}

// comparePage reports every way page p reads differently in m and r.
func comparePage(m *Memory, r *refMemory, p int) error {
	var errs []error
	differ := func(what string, got, want any) {
		if got != want {
			errs = append(errs, fmt.Errorf("page %d: %s = %v, reference %v", p, what, got, want))
		}
	}
	st, err := m.State(p)
	var rst PageState
	pm, rerr := r.page(p)
	if rerr == nil {
		rst = pm.state
	}
	differ("State", fmt.Sprint(st, " ", errClass(err)), fmt.Sprint(rst, " ", errClass(rerr)))
	var rdev bool
	if rerr == nil {
		rdev = pm.dev
	}
	dev, err := m.DEV(p)
	differ("DEV", fmt.Sprint(dev, " ", errClass(err)), fmt.Sprint(rdev, " ", errClass(rerr)))
	for cpu := 0; cpu < 4; cpu++ {
		differ(fmt.Sprintf("SharedWith(CPU%d)", cpu), m.SharedWith(p, cpu), r.sharedWith(p, cpu))
		differ(fmt.Sprintf("CheckCPU(CPU%d)", cpu), errClass(m.CheckCPU(p, cpu)), errClass(r.checkCPU(p, cpu)))
	}
	differ("CheckDMA", errClass(m.CheckDMA(p)), errClass(r.checkDMA(p)))
	return errors.Join(errs...)
}

// compareBytes reports whether [addr, addr+n) reads differently in m and r,
// through ReadRaw or through Views. Views must also give one capped view
// per chunk the range touches.
func compareBytes(m *Memory, r *refMemory, addr uint32, n int) error {
	got, err := m.ReadRaw(addr, n)
	want, rerr := r.span(addr, n)
	if errClass(err) != errClass(rerr) {
		return fmt.Errorf("ReadRaw(%d, %d): error %v, reference %v", addr, n, err, rerr)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("ReadRaw(%d, %d) differs from the reference", addr, n)
	}
	views, err := m.Views(nil, addr, n)
	if errClass(err) != errClass(rerr) {
		return fmt.Errorf("Views(%d, %d): error %v, reference %v", addr, n, err, rerr)
	}
	if err != nil {
		return nil
	}
	chunks := 0
	if n > 0 {
		chunks = (int(addr)+n-1)>>chunkShift - int(addr)>>chunkShift + 1
	}
	if len(views) != chunks {
		return fmt.Errorf("Views(%d, %d) gave %d views over %d chunks", addr, n, len(views), chunks)
	}
	for i, v := range views {
		if cap(v) != len(v) {
			return fmt.Errorf("Views(%d, %d): view %d has room to grow (len %d, cap %d)", addr, n, i, len(v), cap(v))
		}
	}
	if !bytes.Equal(bytes.Join(views, nil), want) {
		return fmt.Errorf("Views(%d, %d) differ from the reference", addr, n)
	}
	return nil
}

// applyOp runs op i (4 bytes) on both sides and returns a description of
// it, the two errors, and the pages and bytes it touched.
func applyOp(m *Memory, r *refMemory, i int, op []byte) (desc string, err, rerr error, pages []int, addr uint32, n int) {
	kind := int(op[0]) % fzKinds
	page := fuzzPageSel[int(op[1])%len(fuzzPageSel)]
	cpu := fuzzCPUs[int(op[2])%len(fuzzCPUs)]
	other := fuzzCPUs[int(op[3])%len(fuzzCPUs)]
	addr = uint32(page*PageSize + fuzzOffsets[int(op[2])%len(fuzzOffsets)])
	n = fuzzLens[int(op[3])%len(fuzzLens)]
	pages = []int{page}
	switch kind {
	case fzClaim:
		return fmt.Sprintf("Claim(%d, %d)", page, cpu), m.Claim(page, cpu), r.claim(page, cpu), pages, 0, 0
	case fzSeclude:
		return fmt.Sprintf("Seclude(%d, %d)", page, cpu), m.Seclude(page, cpu), r.seclude(page, cpu), pages, 0, 0
	case fzRelease:
		return fmt.Sprintf("Release(%d, %d)", page, cpu), m.Release(page, cpu), r.release(page, cpu), pages, 0, 0
	case fzShare:
		return fmt.Sprintf("Share(%d, %d, %d)", page, cpu, other), m.Share(page, cpu, other), r.share(page, cpu, other), pages, 0, 0
	case fzUnshare:
		return fmt.Sprintf("Unshare(%d, %d)", page, other), m.Unshare(page, other), r.unshare(page, other), pages, 0, 0
	case fzSetDEV:
		on := op[3]&1 != 0
		return fmt.Sprintf("SetDEV(%d, %v)", page, on), m.SetDEV(page, on), r.setDEV(page, on), pages, 0, 0
	}
	switch kind {
	case fzWriteRaw:
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i + j + 1)
		}
		desc, err = fmt.Sprintf("WriteRaw(%d, %d B)", addr, n), m.WriteRaw(addr, data)
		var b []byte
		if b, rerr = r.span(addr, n); rerr == nil {
			copy(b, data)
		}
	case fzWriteWord:
		v := uint32(i+1) * 0x01030507
		n = 4
		desc, err = fmt.Sprintf("WriteWordRaw(%d, %#x)", addr, v), m.WriteWordRaw(addr, v)
		var b []byte
		if b, rerr = r.span(addr, n); rerr == nil {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
	case fzWriteByte:
		v := op[3] | 1
		n = 1
		desc, err = fmt.Sprintf("WriteByteRaw(%d, %#x)", addr, v), m.WriteByteRaw(addr, v)
		var b []byte
		if b, rerr = r.span(addr, n); rerr == nil {
			b[0] = v
		}
	case fzZeroRange:
		desc, err = fmt.Sprintf("ZeroRange(%d, %d)", addr, n), m.ZeroRange(addr, n)
		var b []byte
		if b, rerr = r.span(addr, n); rerr == nil {
			clear(b)
		}
	case fzViews:
		// The caller's compareBytes checks what the views hold.
		desc = fmt.Sprintf("Views(%d, %d)", addr, n)
		_, err = m.Views(nil, addr, n)
		_, rerr = r.span(addr, n)
	}
	first, last := PageOf(addr), PageOf(addr+uint32(max(n, 1))-1)
	pages = pages[:0]
	for p := first; p <= last && p <= first+chunkPages+2; p++ {
		pages = append(pages, p)
	}
	return desc, err, rerr, pages, addr, n
}

// FuzzPageTable drives Memory and refMemory in lockstep over op sequences
// decoded four bytes an op, and after every op compares the op's error,
// every read of each page it touched (State, DEV, SharedWith and CheckCPU
// for CPUs 0–3, CheckDMA) and the bytes it wrote or viewed, read both with
// ReadRaw and with Views. At the end it compares every page and byte,
// which catches a write that leaked into a chunk the ops never named.
func FuzzPageTable(f *testing.F) {
	// Seeds name their fields by value; see fuzzPageSel and friends.
	idx := func(vals []int, v int) byte {
		for i, x := range vals {
			if x == v {
				return byte(i)
			}
		}
		panic(fmt.Sprintf("no %d in %v", v, vals))
	}
	pg := func(p int) byte { return idx(fuzzPageSel, p) }
	cpu := func(c int) byte { return idx(fuzzCPUs, c) }
	off := func(o int) byte { return idx(fuzzOffsets, o) }
	ln := func(n int) byte { return idx(fuzzLens, n) }
	ops := func(ops ...[4]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	end0, start1 := chunkPages-1, chunkPages
	// A PAL's pages straddle the boundary between chunks 0 and 1: claimed,
	// written across it, joined by CPU2, suspended (which revokes the
	// join), resumed on CPU3, zeroed and freed.
	f.Add(ops(
		[4]byte{fzClaim, pg(end0), cpu(1), 0},
		[4]byte{fzClaim, pg(start1), cpu(1), 0},
		[4]byte{fzWriteRaw, pg(end0), off(PageSize - 3), ln(5)},
		[4]byte{fzShare, pg(start1), cpu(1), cpu(2)},
		[4]byte{fzWriteWord, pg(2*chunkPages - 1), off(PageSize - 3), 0},
		[4]byte{fzSeclude, pg(end0), cpu(1), 0},
		[4]byte{fzSeclude, pg(start1), cpu(1), 0},
		[4]byte{fzClaim, pg(start1), cpu(3), 0},
		[4]byte{fzZeroRange, pg(end0), off(PageSize - 1), ln(PageSize + 7)},
		[4]byte{fzRelease, pg(start1), cpu(3), 0},
		[4]byte{fzWriteRaw, pg(0), off(0), ln(ChunkSize)},
	))
	// The partial last chunk, and writes that run past the end.
	f.Add(ops(
		[4]byte{fzClaim, pg(fuzzPages - 1), cpu(3), 0},
		[4]byte{fzWriteByte, pg(fuzzPages - 1), off(PageSize - 1), 7},
		[4]byte{fzWriteRaw, pg(fuzzPages - 1), off(PageSize - 1), ln(4)},
		[4]byte{fzWriteRaw, pg(4 * chunkPages), off(0), ln(ChunkSize)},
		[4]byte{fzSetDEV, pg(fuzzPages - 2), 0, 1},
		[4]byte{fzZeroRange, pg(4*chunkPages - 1), off(1), ln(PageSize + 7)},
		[4]byte{fzWriteWord, pg(fuzzPages), off(0), 0},
	))
	// Invalid CPU ids and pages past either end.
	f.Add(ops(
		[4]byte{fzClaim, pg(start1), cpu(-1), 0},
		[4]byte{fzClaim, pg(start1), cpu(63), 0},
		[4]byte{fzShare, pg(start1), cpu(63), cpu(64)},
		[4]byte{fzShare, pg(start1), cpu(63), cpu(0)},
		[4]byte{fzUnshare, pg(start1), 0, cpu(-1)},
		[4]byte{fzSeclude, pg(-1), cpu(0), 0},
		[4]byte{fzSetDEV, pg(fuzzPages), 0, 1},
		[4]byte{fzRelease, pg(start1), cpu(2), 0},
	))
	// A zero-length ZeroRange at an unaligned address, which once caught a
	// bug in the model (the committed corpus entry decoded to it before
	// Views became an op).
	f.Add(ops([4]byte{fzZeroRange, pg(fuzzPages - 2), off(PageSize - 3), ln(0)}))
	// Views of a write across chunks 0 and 1, of a whole chunk, of the
	// empty range at the end of memory, and of ranges that start past the
	// end or cross it.
	f.Add(ops(
		[4]byte{fzWriteRaw, pg(end0), off(PageSize - 3), ln(PageSize + 7)},
		[4]byte{fzViews, pg(end0), off(PageSize - 3), ln(ChunkSize)},
		[4]byte{fzViews, pg(start1), off(0), ln(ChunkSize)},
		[4]byte{fzViews, pg(fuzzPages), off(0), ln(0)},
		[4]byte{fzViews, pg(fuzzPages), off(1), ln(0)},
		[4]byte{fzViews, pg(fuzzPages - 1), off(PageSize - 1), ln(4)},
		[4]byte{fzViews, pg(-1), off(0), ln(1)},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, r := New(fuzzPages*PageSize), newRefMemory(fuzzPages)
		for i := 0; i+4 <= len(data) && i/4 < fuzzMaxOps; i += 4 {
			desc, err, rerr, pages, addr, n := applyOp(m, r, i/4, data[i:i+4])
			if errClass(err) != errClass(rerr) {
				t.Fatalf("op %d %s: error %v, reference %v", i/4, desc, err, rerr)
			}
			for _, p := range pages {
				if err := comparePage(m, r, p); err != nil {
					t.Fatalf("after op %d %s:\n%v", i/4, desc, err)
				}
			}
			if err := compareBytes(m, r, addr, n); err != nil {
				t.Fatalf("after op %d %s: %v", i/4, desc, err)
			}
		}
		for p := 0; p < fuzzPages; p++ {
			if err := comparePage(m, r, p); err != nil {
				t.Fatalf("at the end:\n%v", err)
			}
		}
		if err := compareBytes(m, r, 0, m.Size()); err != nil {
			t.Fatalf("at the end: %v", err)
		}
	})
}
