package prof

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"minimaltcb/internal/isa"
	"minimaltcb/internal/pal"
)

// Profile is a merged snapshot of every collector plus the per-tenant
// ledger — the JSON document /debug/profile serves and cmd/tcbprof reads.
// The schema is documented in docs/PROFILING.md.
type Profile struct {
	Images  []*ImageProfile `json:"images"`
	Tenants []TenantStats   `json:"tenants,omitempty"`

	byHash map[string]*ImageProfile
}

// ImageProfile is one PAL image's merged attribution. Code carries the
// full SLB bytes (base64 in JSON) so tcbprof can disassemble offline
// without the original source.
type ImageProfile struct {
	Hash       string `json:"image"`
	Code       []byte `json:"code,omitempty"`
	Entry      uint16 `json:"entry"`
	RegionSize int    `json:"region_size"`

	CyclesNs     int64 `json:"cycles_ns"`
	Instructions int64 `json:"instructions"`
	Launches     int64 `json:"launches"`
	Resumes      int64 `json:"resumes,omitempty"`
	Slices       int64 `json:"slices"`
	Preempts     int64 `json:"preempts,omitempty"`
	Yields       int64 `json:"yields,omitempty"`
	Faults       int64 `json:"faults,omitempty"`
	QuoteCalls   int64 `json:"quote_calls,omitempty"`
	QuoteVirtNs  int64 `json:"quote_virt_ns,omitempty"`

	PCs    []PCSample    `json:"pcs"`
	Blocks []BlockSample `json:"blocks,omitempty"`
	Svcs   []SvcSample   `json:"svcs,omitempty"`

	pcIndex map[uint32]int
}

// PCSample is the exact counters of one instruction slot.
type PCSample struct {
	PC     uint32 `json:"pc"`
	Cycles int64  `json:"cycles_ns"`
	Count  int64  `json:"count"`
}

// BlockSample aggregates one basic block [Start, End).
type BlockSample struct {
	Start  uint32 `json:"start"`
	End    uint32 `json:"end"`
	Cycles int64  `json:"cycles_ns"`
	Count  int64  `json:"count"` // retirements inside the block
	Instrs int    `json:"instrs"`
}

// SvcSample is one service call site's totals. CallerPC is −1 for calls
// issued outside the PAL (the post-exit quote).
type SvcSample struct {
	Name     string `json:"name"`
	Num      uint16 `json:"num"`
	CallerPC int64  `json:"caller_pc"`
	Calls    int64  `json:"calls"`
	VirtNs   int64  `json:"virt_ns"`
}

// TenantStats is one tenant's job-level totals.
type TenantStats struct {
	Name     string   `json:"name"`
	Jobs     int64    `json:"jobs"`
	Faults   int64    `json:"faults,omitempty"`
	CyclesNs int64    `json:"cycles_ns"`
	Images   []string `json:"images,omitempty"`
}

// NewProfile returns an empty snapshot ready for SnapshotInto/TenantsInto.
func NewProfile() *Profile {
	return &Profile{byHash: make(map[string]*ImageProfile)}
}

// imageFor returns (creating if needed) the merged record for hash.
// Collectors on different machines may have seen the same image; samples
// merge additively.
func (p *Profile) imageFor(hash string, image pal.Image, regionSize int) *ImageProfile {
	ip := p.byHash[hash]
	if ip == nil {
		ip = &ImageProfile{
			Hash:    hash,
			Code:    image.Bytes,
			Entry:   image.Entry,
			pcIndex: make(map[uint32]int),
		}
		p.byHash[hash] = ip
		p.Images = append(p.Images, ip)
	}
	if regionSize > ip.RegionSize {
		ip.RegionSize = regionSize
	}
	return ip
}

func (ip *ImageProfile) addPC(s PCSample) {
	if i, ok := ip.pcIndex[s.PC]; ok {
		ip.PCs[i].Cycles += s.Cycles
		ip.PCs[i].Count += s.Count
		return
	}
	ip.pcIndex[s.PC] = len(ip.PCs)
	ip.PCs = append(ip.PCs, s)
}

func (ip *ImageProfile) addSvc(s SvcSample) {
	for i := range ip.Svcs {
		if ip.Svcs[i].Num == s.Num && ip.Svcs[i].CallerPC == s.CallerPC {
			ip.Svcs[i].Calls += s.Calls
			ip.Svcs[i].VirtNs += s.VirtNs
			return
		}
	}
	ip.Svcs = append(ip.Svcs, s)
}

// Finish totals the merged samples, recovers basic blocks from the image
// bytes, and puts every slice in its canonical order (images by cycles
// descending, samples by address). Call once, after the last merge.
func (p *Profile) Finish() {
	for _, ip := range p.Images {
		sort.Slice(ip.PCs, func(i, j int) bool { return ip.PCs[i].PC < ip.PCs[j].PC })
		sort.Slice(ip.Svcs, func(i, j int) bool {
			if ip.Svcs[i].CallerPC != ip.Svcs[j].CallerPC {
				return ip.Svcs[i].CallerPC < ip.Svcs[j].CallerPC
			}
			return ip.Svcs[i].Num < ip.Svcs[j].Num
		})
		ip.CyclesNs, ip.Instructions = 0, 0
		for _, s := range ip.PCs {
			ip.CyclesNs += s.Cycles
			ip.Instructions += s.Count
		}
		ip.computeBlocks()
	}
	sort.Slice(p.Images, func(i, j int) bool {
		if p.Images[i].CyclesNs != p.Images[j].CyclesNs {
			return p.Images[i].CyclesNs > p.Images[j].CyclesNs
		}
		return p.Images[i].Hash < p.Images[j].Hash
	})
	sort.Slice(p.Tenants, func(i, j int) bool {
		if p.Tenants[i].CyclesNs != p.Tenants[j].CyclesNs {
			return p.Tenants[i].CyclesNs > p.Tenants[j].CyclesNs
		}
		return p.Tenants[i].Name < p.Tenants[j].Name
	})
}

// computeBlocks folds the (sorted) PC samples into basic blocks.
func (ip *ImageProfile) computeBlocks() {
	ls := leaders(ip.Code, ip.Entry, ip.RegionSize)
	if len(ls) == 0 {
		ip.Blocks = nil
		return
	}
	byStart := make(map[uint32]*BlockSample)
	for _, s := range ip.PCs {
		start := blockStart(ls, s.PC)
		b := byStart[start]
		if b == nil {
			b = &BlockSample{Start: start, End: ip.blockEnd(ls, start)}
			byStart[start] = b
		}
		b.Cycles += s.Cycles
		b.Count += s.Count
		b.Instrs++
	}
	ip.Blocks = ip.Blocks[:0]
	for _, b := range byStart {
		ip.Blocks = append(ip.Blocks, *b)
	}
	sort.Slice(ip.Blocks, func(i, j int) bool { return ip.Blocks[i].Start < ip.Blocks[j].Start })
}

// blockEnd returns the first leader after start, or the region end.
func (ip *ImageProfile) blockEnd(ls []uint32, start uint32) uint32 {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] > start })
	if i < len(ls) {
		return ls[i]
	}
	return uint32(ip.RegionSize)
}

// ShortHash is the image hash abbreviated for display.
func (ip *ImageProfile) ShortHash() string {
	if len(ip.Hash) > 8 {
		return ip.Hash[:8]
	}
	return ip.Hash
}

// WriteJSON serializes the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadProfile parses a profile previously written by WriteJSON (or served
// by /debug/profile).
func ReadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: parse profile: %w", err)
	}
	return &p, nil
}

// WriteFolded renders the profile as folded stacks — one
// `frame;frame;frame <count>` line per leaf, the input format of
// flamegraph.pl and compatible viewers. The stack is
// image → basic block → instruction, with service time as a fourth frame
// under its caller and post-exit quotes as a synthetic quote frame. Counts
// are virtual nanoseconds.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, ip := range p.Images {
		ls := leaders(ip.Code, ip.Entry, ip.RegionSize)
		img := "pal-" + ip.ShortHash()
		for _, s := range ip.PCs {
			if s.Cycles == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s;blk_0x%04x;pc_0x%04x %d\n",
				img, blockStart(ls, s.PC), s.PC, s.Cycles); err != nil {
				return err
			}
		}
		for _, s := range ip.Svcs {
			if s.VirtNs == 0 {
				continue
			}
			if s.CallerPC < 0 {
				if _, err := fmt.Fprintf(w, "%s;%s %d\n", img, s.Name, s.VirtNs); err != nil {
					return err
				}
				continue
			}
			pc := uint32(s.CallerPC)
			if _, err := fmt.Fprintf(w, "%s;blk_0x%04x;pc_0x%04x;svc_%s %d\n",
				img, blockStart(ls, pc), pc, s.Name, s.VirtNs); err != nil {
				return err
			}
		}
		if ip.QuoteVirtNs > 0 {
			if _, err := fmt.Fprintf(w, "%s;quote %d\n", img, ip.QuoteVirtNs); err != nil {
				return err
			}
		}
	}
	return nil
}

const heatWidth = 20

// heatBar renders a proportional bar for cycles out of total.
func heatBar(cycles, total int64) string {
	if total <= 0 || cycles <= 0 {
		return strings.Repeat(".", heatWidth)
	}
	n := int(cycles * heatWidth / total)
	if n == 0 {
		n = 1
	}
	if n > heatWidth {
		n = heatWidth
	}
	return strings.Repeat("#", n) + strings.Repeat(".", heatWidth-n)
}

// WriteAnnotated renders the image's disassembly with per-line cycle,
// count, and heat columns. Samples beyond the measured image (execution
// out of the data/stack area) are summarized after the listing.
func (ip *ImageProfile) WriteAnnotated(w io.Writer) error {
	byPC := make(map[uint32]PCSample, len(ip.PCs))
	var beyondCycles, beyondCount int64
	for _, s := range ip.PCs {
		if int(s.PC) >= len(ip.Code) {
			beyondCycles += s.Cycles
			beyondCount += s.Count
			continue
		}
		byPC[s.PC] = s
	}
	fmt.Fprintf(w, "pal-%s  entry=0x%04x  %d bytes  %d cycles(ns)  %d instrs\n",
		ip.ShortHash(), ip.Entry, len(ip.Code), ip.CyclesNs, ip.Instructions)
	fmt.Fprintf(w, "%6s %14s %10s %-*s  %s\n", "pc", "cycles(ns)", "count", heatWidth, "heat", "instruction")
	for off := 0; off+isa.WordSize <= len(ip.Code); off += isa.WordSize {
		word := binary.LittleEndian.Uint32(ip.Code[off:])
		text := fmt.Sprintf(".word 0x%08x", word)
		if in, err := isa.Decode(word); err == nil {
			text = in.String()
		}
		s := byPC[uint32(off)]
		if s.Count == 0 {
			fmt.Fprintf(w, "%04x   %14s %10s %-*s  %s\n", off, "", "", heatWidth, "", text)
			continue
		}
		fmt.Fprintf(w, "%04x   %14d %10d %s  %s\n",
			off, s.Cycles, s.Count, heatBar(s.Cycles, ip.CyclesNs), text)
	}
	if beyondCount > 0 {
		fmt.Fprintf(w, "beyond-image execution: %d cycles(ns), %d instrs (region %d bytes)\n",
			beyondCycles, beyondCount, ip.RegionSize)
	}
	if len(ip.Svcs) > 0 {
		fmt.Fprintf(w, "service calls:\n")
		for _, s := range ip.Svcs {
			caller := "(untrusted)"
			if s.CallerPC >= 0 {
				caller = fmt.Sprintf("pc 0x%04x", uint32(s.CallerPC))
			}
			fmt.Fprintf(w, "  %-8s from %-10s calls=%-6d virt_ns=%d\n", s.Name, caller, s.Calls, s.VirtNs)
		}
	}
	return nil
}

// hotBlock pairs a block with its image for cross-image ranking.
type hotBlock struct {
	Image *ImageProfile
	Block BlockSample
}

// topBlocks ranks all images' basic blocks by cycles.
func (p *Profile) topBlocks(n int) []hotBlock {
	var all []hotBlock
	for _, ip := range p.Images {
		for _, b := range ip.Blocks {
			all = append(all, hotBlock{Image: ip, Block: b})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Block.Cycles > all[j].Block.Cycles })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// WriteTopBlocks renders the n hottest basic blocks across all images.
func (p *Profile) WriteTopBlocks(w io.Writer, n int) {
	var total int64
	for _, ip := range p.Images {
		total += ip.CyclesNs
	}
	fmt.Fprintf(w, "%-14s %-19s %14s %10s %7s\n", "image", "block", "cycles(ns)", "count", "share")
	for _, hb := range p.topBlocks(n) {
		pct := 0.0
		if total > 0 {
			pct = float64(hb.Block.Cycles) / float64(total) * 100
		}
		fmt.Fprintf(w, "%-14s [0x%04x,0x%04x)%5s %14d %10d %6.1f%%\n",
			"pal-"+hb.Image.ShortHash(), hb.Block.Start, hb.Block.End, "",
			hb.Block.Cycles, hb.Block.Count, pct)
	}
}

// WriteSummary renders the per-tenant totals and each tenant's share of
// hot blocks — the digest palservd appends to a loadgen report so capacity
// runs double as profiling runs.
func (p *Profile) WriteSummary(w io.Writer, topN int) {
	for _, t := range p.Tenants {
		fmt.Fprintf(w, "tenant %-12s jobs=%-6d faults=%-4d vcycles_ns=%d\n",
			t.Name, t.Jobs, t.Faults, t.CyclesNs)
	}
	if len(p.Images) == 0 {
		return
	}
	fmt.Fprintf(w, "top %d hot blocks:\n", topN)
	p.WriteTopBlocks(w, topN)
}
