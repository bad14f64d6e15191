package mem

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewRoundsUpToPage(t *testing.T) {
	m := New(1)
	if m.Size() != PageSize || m.NumPages() != 1 {
		t.Fatalf("size=%d pages=%d", m.Size(), m.NumPages())
	}
	m = New(PageSize + 1)
	if m.NumPages() != 2 {
		t.Fatalf("pages=%d, want 2", m.NumPages())
	}
}

func TestPagesStartAll(t *testing.T) {
	m := New(4 * PageSize)
	for p := 0; p < m.NumPages(); p++ {
		st, err := m.State(p)
		if err != nil || st != AccessAll {
			t.Fatalf("page %d: %v %v", p, st, err)
		}
	}
}

func TestClaimSecludeReleaseCycle(t *testing.T) {
	m := New(4 * PageSize)
	// Fig 5(b): ALL -> CPU1 (launch)
	if err := m.Claim(2, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State(2); st != PageState(1) {
		t.Fatalf("state=%v, want CPU1", st)
	}
	// CPU1 -> NONE (suspend)
	if err := m.Seclude(2, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State(2); st != AccessNone {
		t.Fatalf("state=%v, want NONE", st)
	}
	// NONE -> CPU0 (resume on another CPU, §5.3: PAL may resume anywhere)
	if err := m.Claim(2, 0); err != nil {
		t.Fatal(err)
	}
	// CPU0 -> ALL (SFREE)
	if err := m.Release(2, 0); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State(2); st != AccessAll {
		t.Fatalf("state=%v, want ALL", st)
	}
}

func TestClaimConflicts(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.Claim(0, 1); err != nil {
		t.Fatal(err)
	}
	// Another CPU cannot steal an owned page.
	if err := m.Claim(0, 2); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("cross-CPU claim: %v, want ErrPageBusy", err)
	}
	// Same CPU re-claim is idempotent.
	if err := m.Claim(0, 1); err != nil {
		t.Fatalf("idempotent claim: %v", err)
	}
}

func TestSecludeRequiresOwner(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.Seclude(0, 1); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("seclude unowned: %v", err)
	}
	m.Claim(0, 1)
	if err := m.Seclude(0, 2); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("seclude by non-owner: %v", err)
	}
}

func TestReleaseByNonOwnerFails(t *testing.T) {
	m := New(2 * PageSize)
	m.Claim(0, 1)
	if err := m.Release(0, 2); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("release by non-owner: %v", err)
	}
	// SKILL path: release from NONE is allowed regardless of CPU.
	m.Seclude(0, 1)
	if err := m.Release(0, 5); err != nil {
		t.Fatalf("release from NONE: %v", err)
	}
}

func TestClaimInvalidCPU(t *testing.T) {
	m := New(PageSize)
	if err := m.Claim(0, -3); err == nil {
		t.Fatal("negative CPU id accepted")
	}
}

func TestCheckCPU(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.CheckCPU(0, 3); err != nil {
		t.Fatalf("ALL page must be accessible: %v", err)
	}
	m.Claim(0, 1)
	if err := m.CheckCPU(0, 1); err != nil {
		t.Fatalf("owner access denied: %v", err)
	}
	if err := m.CheckCPU(0, 2); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-owner access: %v", err)
	}
	m.Seclude(0, 1)
	if err := m.CheckCPU(0, 1); !errors.Is(err, ErrDenied) {
		t.Fatalf("NONE page accessible to former owner: %v", err)
	}
}

func TestCheckDMA(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.CheckDMA(0); err != nil {
		t.Fatalf("DMA to ALL page: %v", err)
	}
	m.SetDEV(0, true)
	if err := m.CheckDMA(0); !errors.Is(err, ErrDenied) {
		t.Fatalf("DMA past DEV bit: %v", err)
	}
	m.SetDEV(0, false)
	m.Claim(0, 1)
	if err := m.CheckDMA(0); !errors.Is(err, ErrDenied) {
		t.Fatalf("DMA to CPU-owned page: %v", err)
	}
}

func TestDEVAccessors(t *testing.T) {
	m := New(PageSize)
	if on, _ := m.DEV(0); on {
		t.Fatal("DEV bit set initially")
	}
	m.SetDEV(0, true)
	if on, _ := m.DEV(0); !on {
		t.Fatal("DEV bit did not set")
	}
	if err := m.SetDEV(99, true); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("SetDEV out of range: %v", err)
	}
	if _, err := m.DEV(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("DEV out of range: %v", err)
	}
}

func TestReadWriteRaw(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.WriteRaw(100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadRaw(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got % x", got)
	}
}

func TestReadRawBounds(t *testing.T) {
	m := New(PageSize)
	if _, err := m.ReadRaw(PageSize-1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overrun read: %v", err)
	}
	if err := m.WriteRaw(PageSize, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overrun write: %v", err)
	}
	if _, err := m.ReadRaw(0, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative length: %v", err)
	}
}

// TestViewAtEnd: a zero-length view at the end of memory is out of range,
// not an index one chunk past the last.
func TestViewAtEnd(t *testing.T) {
	m := New(1 << 20)
	if b, ok := m.View(uint32(m.Size()), 0); ok || b != nil {
		t.Fatalf("View(Size(), 0) = %v, %v; want nil, false", b, ok)
	}
	if b, ok := m.View(uint32(m.Size()-4), 4); !ok || len(b) != 4 {
		t.Fatalf("View of the last word = %v, %v", b, ok)
	}
}

// allocated returns the fewest bytes f allocated over five runs, each on
// state setup returns; other goroutines' allocations only add to a run.
func allocated(setup func() *Memory, f func(m *Memory)) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		m := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f(m)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestNewMemoryIsSparse pins what a machine's memory costs: an empty 64 MB
// memory is a chunk-pointer slice, a transition materializes one chunk's
// control state but none of its bytes, and a write materializes exactly
// one chunk of bytes.
func TestNewMemoryIsSparse(t *testing.T) {
	const size = 64 << 20
	nothing := func() *Memory { return nil }
	if got := allocated(nothing, func(*Memory) { New(size) }); got > 16<<10 {
		t.Errorf("New(64 MB) allocated %d B, want at most 16 KB", got)
	}
	fresh := func() *Memory { return New(size) }
	claim := func(m *Memory) {
		if err := m.Claim(5*ChunkSize/PageSize+3, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocated(fresh, claim); got == 0 || got >= 4<<10 {
		t.Errorf("a Claim on an untouched chunk allocated %d B, want its control state only", got)
	}
	claimed := func() *Memory { m := New(size); claim(m); return m }
	write := func(m *Memory) {
		if err := m.WriteByteRaw(5*ChunkSize+7, 0xa5); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocated(claimed, write); got != ChunkSize {
		t.Errorf("the first write to a claimed chunk allocated %d B, want one %d B chunk", got, ChunkSize)
	}
	written := func() *Memory { m := claimed(); write(m); return m }
	if got := allocated(written, write); got != 0 {
		t.Errorf("a second write to the chunk allocated %d B", got)
	}
}

func TestZeroRange(t *testing.T) {
	m := New(PageSize)
	m.WriteRaw(0, []byte{0xff, 0xff, 0xff, 0xff})
	if err := m.ZeroRange(1, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadRaw(0, 4)
	want := []byte{0xff, 0, 0, 0xff}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestStateOutOfRange(t *testing.T) {
	m := New(PageSize)
	if _, err := m.State(1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("State(1): %v", err)
	}
	if err := m.Claim(-1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Claim(-1): %v", err)
	}
}

func TestPageStateString(t *testing.T) {
	cases := map[PageState]string{
		AccessAll:     "ALL",
		AccessNone:    "NONE",
		PageState(3):  "CPU3",
		PageState(-9): "invalid(-9)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

func TestRegionPages(t *testing.T) {
	r := RegionForPages(2, 3)
	pages := r.Pages()
	if len(pages) != 3 || pages[0] != 2 || pages[2] != 4 {
		t.Fatalf("pages = %v", pages)
	}
	// Unaligned region spanning a boundary.
	r = Region{Base: PageSize - 1, Size: 2}
	pages = r.Pages()
	if len(pages) != 2 || pages[0] != 0 || pages[1] != 1 {
		t.Fatalf("unaligned pages = %v", pages)
	}
	if (Region{Size: 0}).Pages() != nil {
		t.Fatal("empty region has pages")
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 10}
	if !r.Contains(100) || !r.Contains(109) {
		t.Fatal("region must contain its bounds")
	}
	if r.Contains(99) || r.Contains(110) {
		t.Fatal("region contains outside addresses")
	}
	if r.End() != 110 {
		t.Fatalf("End = %d", r.End())
	}
}

// Property: the access-control state machine never lets two distinct CPUs
// both pass CheckCPU on the same page, unless the page is in ALL.
func TestExclusionInvariantProperty(t *testing.T) {
	type op struct {
		Kind byte // 0 claim, 1 seclude, 2 release
		Page uint8
		CPU  uint8
	}
	f := func(ops []op) bool {
		m := New(8 * PageSize)
		for _, o := range ops {
			page := int(o.Page) % m.NumPages()
			cpu := int(o.CPU) % 4
			switch o.Kind % 3 {
			case 0:
				m.Claim(page, cpu) // errors allowed; invariant is what matters
			case 1:
				m.Seclude(page, cpu)
			case 2:
				m.Release(page, cpu)
			}
		}
		for p := 0; p < m.NumPages(); p++ {
			st, _ := m.State(p)
			if st == AccessAll {
				continue
			}
			granted := 0
			for cpu := 0; cpu < 4; cpu++ {
				if m.CheckCPU(p, cpu) == nil {
					granted++
				}
			}
			if st == AccessNone && granted != 0 {
				return false
			}
			if st >= 0 && granted != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: round-tripping bytes through WriteRaw/ReadRaw preserves them.
func TestReadWriteRoundTripProperty(t *testing.T) {
	m := New(16 * PageSize)
	f := func(addr uint16, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := uint32(addr)
		if int(a)+len(data) > m.Size() {
			return true // out of range; not this property's concern
		}
		if err := m.WriteRaw(a, data); err != nil {
			return false
		}
		got, err := m.ReadRaw(a, len(data))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
