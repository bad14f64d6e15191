// Package pal defines the on-disk/in-memory image format of a Piece of
// Application Logic and helpers for building one from assembler source.
//
// The image follows AMD's Secure Loader Block layout (§2.2.1): the first
// two 16-bit little-endian words are the image's total length and its entry
// point offset, both of which must lie within [0, 64 KB). The late-launch
// measurement covers the entire image, header included, so the header bytes
// are part of the PAL's attested identity.
package pal

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"minimaltcb/internal/isa"
)

// HeaderSize is the SLB header length: length word + entry word.
const HeaderSize = 4

// MaxImageSize is the architectural SLB limit (64 KB on AMD; Intel's MPT
// default covers 512 KB, but the paper's experiments stay within 64 KB).
const MaxImageSize = 1 << 16

// Image is a built PAL ready to be placed in memory and launched.
type Image struct {
	// Bytes is the full SLB image, header included.
	Bytes []byte
	// Entry is the entry-point offset from the image base.
	Entry uint16
}

// Len returns the image length in bytes.
func (im Image) Len() int { return len(im.Bytes) }

// Built images are memoized by source text: assembly is a pure function of
// the source, and experiment sweeps and service jobs rebuild the same
// handful of programs constantly. Image bytes are immutable by contract —
// nothing in the tree writes to Image.Bytes after Build. The cache is
// bounded.
var (
	buildMu    sync.Mutex
	buildCache = map[string]Image{}
)

// CacheLimit bounds the image caches: crossing it empties the cache. The
// PAL service's per-source image cache uses the same bound.
const CacheLimit = 1024

// Build assembles PAL source into an SLB image. The source is laid out
// after the 4-byte header, so label arithmetic inside the source is
// automatically correct; execution starts at the first byte after the
// header. Identical source returns the identical (shared, immutable) image.
func Build(src string) (Image, error) {
	buildMu.Lock()
	im, ok := buildCache[src]
	buildMu.Unlock()
	if ok {
		return im, nil
	}
	full := "slb_header: .space 4\n" + src
	code, err := isa.Assemble(full)
	if err != nil {
		return Image{}, err
	}
	im, err = FromCode(code[HeaderSize:], HeaderSize)
	if err != nil {
		return Image{}, err
	}
	buildMu.Lock()
	if len(buildCache) >= CacheLimit {
		buildCache = map[string]Image{}
	}
	buildCache[src] = im
	buildMu.Unlock()
	return im, nil
}

// MustBuild is Build for statically known-good sources; it panics on error.
func MustBuild(src string) Image {
	im, err := Build(src)
	if err != nil {
		panic(err)
	}
	return im
}

// FromCode wraps raw code bytes in an SLB header. entry is the offset of
// the first instruction measured from the image base (i.e. HeaderSize for
// code that starts immediately after the header).
func FromCode(code []byte, entry uint16) (Image, error) {
	total := HeaderSize + len(code)
	if total > MaxImageSize {
		return Image{}, fmt.Errorf("pal: image %d bytes exceeds the %d-byte SLB limit", total, MaxImageSize)
	}
	if int(entry) >= total {
		return Image{}, fmt.Errorf("pal: entry %d beyond image end %d", entry, total)
	}
	img := make([]byte, total)
	binary.LittleEndian.PutUint16(img[0:2], uint16(total))
	binary.LittleEndian.PutUint16(img[2:4], entry)
	copy(img[HeaderSize:], code)
	return Image{Bytes: img, Entry: entry}, nil
}

// Padded images are memoized by (source image identity, size); Table 1's
// sweep pads the same base PAL to the same ladder of sizes every trial.
type padKey struct {
	ptr  *byte
	n    int
	size int
}

var (
	padMu    sync.Mutex
	padCache = map[padKey]Image{}
)

// Pad returns the image zero-padded to exactly size bytes (the header's
// length field is updated to match). Table 1's sweep launches the same
// trivial PAL at 4/8/16/32/64 KB this way. Results are shared and
// immutable, like Build's.
func (im Image) Pad(size int) (Image, error) {
	if size < len(im.Bytes) {
		return Image{}, fmt.Errorf("pal: cannot pad %d-byte image down to %d", len(im.Bytes), size)
	}
	if size > MaxImageSize {
		return Image{}, fmt.Errorf("pal: padded size %d exceeds the %d-byte SLB limit", size, MaxImageSize)
	}
	k := padKey{ptr: unsafe.SliceData(im.Bytes), n: len(im.Bytes), size: size}
	padMu.Lock()
	out, ok := padCache[k]
	padMu.Unlock()
	if ok {
		return out, nil
	}
	b := make([]byte, size)
	copy(b, im.Bytes)
	binary.LittleEndian.PutUint16(b[0:2], uint16(size%MaxImageSize))
	out = Image{Bytes: b, Entry: im.Entry}
	padMu.Lock()
	if len(padCache) >= CacheLimit {
		padCache = map[padKey]Image{}
	}
	padCache[k] = out
	padMu.Unlock()
	return out, nil
}

// ParseHeader reads and validates an SLB header from the start of raw.
func ParseHeader(raw []byte) (length int, entry uint16, err error) {
	if len(raw) < HeaderSize {
		return 0, 0, fmt.Errorf("pal: image shorter than header")
	}
	l := int(binary.LittleEndian.Uint16(raw[0:2]))
	if l == 0 {
		l = MaxImageSize // length field wraps at 64 KB
	}
	entry = binary.LittleEndian.Uint16(raw[2:4])
	if l < HeaderSize {
		return 0, 0, fmt.Errorf("pal: declared length %d below header size", l)
	}
	if int(entry) >= l {
		return 0, 0, fmt.Errorf("pal: entry %d beyond declared length %d", entry, l)
	}
	return l, entry, nil
}
