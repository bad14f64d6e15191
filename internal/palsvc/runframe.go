package palsvc

import (
	"encoding/binary"
	"errors"
	"math"
	"unicode/utf8"
)

// Run frames: the binary encoding of the run op's request and response.
//
// Every other op, and a run op between peers that have not agreed on run
// frames (see Dial), travels as JSON. A JSON body always starts with '{',
// so the first body byte names the codec. A run frame is a fixed field
// order, in the style of audit.Event.Canonical, with varints for integers
// and uvarint-length-prefixed strings and byte slices:
//
//	request:  0x01 | flags (bit 0 no_attest) |
//	          varint deadline_ms | uvarint parent_span |
//	          name | source | input | trace_id | tenant
//	response: 0x02 | flags (bit 0 ok, bit 1 retryable) |
//	          uvarint exit_status | varint attempts | varint batch_size |
//	          varint queue_wait_ns | varint arb_wait_ns | varint execute_ns |
//	          varint quote_gen_ns | varint verify_ns |
//	          err | code | output | verified_as | backend | trace_id
//
// where each named string or byte field is uvarint len || bytes. Only the
// run fields travel: a decoded request has Op set to OpRun, and the other
// ops' fields are zero. An empty input or output decodes as nil, as its
// omitted JSON key does. Strings are valid UTF-8, as they are after a JSON
// round trip: the encoders replace each byte outside valid UTF-8 with
// U+FFFD, as encoding/json does, so a string reaches the peer as it would
// in JSON, and names and tenants stay fit for the audit log's two views.
//
// The decoders reject a wrong tag, an unknown flag bit, a varint past 64
// bits, a length past the bytes left, a string that is not valid UTF-8, an
// exit status past 32 bits and trailing bytes before they allocate
// anything. Decoded Input and Output alias the frame body, which ReadFrame
// allocates afresh for every frame.

const (
	runRequestTag  = 0x01
	runResponseTag = 0x02

	flagNoAttest  = 1 << 0 // request
	flagOK        = 1 << 0 // response
	flagRetryable = 1 << 1 // response
)

var (
	errRunFrameTag       = errors.New("palsvc: not a run frame")
	errRunFrameFlags     = errors.New("palsvc: run frame has unknown flags")
	errRunFrameTruncated = errors.New("palsvc: run frame truncated")
	errRunFrameRange     = errors.New("palsvc: run frame field out of range")
	errRunFrameUTF8      = errors.New("palsvc: run frame string is not valid UTF-8")
	errRunFrameTrailing  = errors.New("palsvc: run frame has trailing bytes")
)

// appendRunFrame appends req's run frame to dst.
func (req *WireRequest) appendRunFrame(dst []byte) []byte {
	var flags byte
	if req.NoAttest {
		flags |= flagNoAttest
	}
	dst = append(dst, runRequestTag, flags)
	dst = binary.AppendVarint(dst, req.DeadlineMS)
	dst = binary.AppendUvarint(dst, req.ParentSpan)
	dst = appendString(dst, req.Name)
	dst = appendString(dst, req.Source)
	dst = appendField(dst, req.Input)
	dst = appendString(dst, req.TraceID)
	return appendString(dst, req.Tenant)
}

// decodeRunFrame sets req from a run request frame.
func (req *WireRequest) decodeRunFrame(body []byte) error {
	r := frameReader{b: body}
	flags := r.open(runRequestTag, flagNoAttest)
	deadline := r.varint()
	span := r.uvarint()
	name := r.str()
	source := r.str()
	input := r.field()
	trace := r.str()
	tenant := r.str()
	if err := r.finish(); err != nil {
		return err
	}
	*req = WireRequest{
		Op:         OpRun,
		Name:       string(name),
		Source:     string(source),
		Input:      input,
		DeadlineMS: deadline,
		NoAttest:   flags&flagNoAttest != 0,
		TraceID:    string(trace),
		ParentSpan: span,
		Tenant:     string(tenant),
	}
	return nil
}

// appendRunFrame appends resp's run frame to dst.
func (resp *WireResponse) appendRunFrame(dst []byte) []byte {
	var flags byte
	if resp.OK {
		flags |= flagOK
	}
	if resp.Retryable {
		flags |= flagRetryable
	}
	dst = append(dst, runResponseTag, flags)
	dst = binary.AppendUvarint(dst, uint64(resp.ExitStatus))
	for _, v := range [...]int64{int64(resp.Attempts), int64(resp.BatchSize),
		resp.QueueWaitNS, resp.ArbWaitNS, resp.ExecuteNS, resp.QuoteGenNS, resp.VerifyNS} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = appendString(dst, resp.Err)
	dst = appendString(dst, resp.Code)
	dst = appendField(dst, resp.Output)
	dst = appendString(dst, resp.VerifiedAs)
	dst = appendString(dst, resp.Backend)
	return appendString(dst, resp.TraceID)
}

// decodeRunFrame sets resp from a run response frame.
func (resp *WireResponse) decodeRunFrame(body []byte) error {
	r := frameReader{b: body}
	flags := r.open(runResponseTag, flagOK|flagRetryable)
	exit := r.uvarint()
	var n [7]int64
	for i := range n {
		n[i] = r.varint()
	}
	errMsg := r.str()
	code := r.str()
	output := r.field()
	verified := r.str()
	backend := r.str()
	trace := r.str()
	if err := r.finish(); err != nil {
		return err
	}
	if exit > math.MaxUint32 {
		return errRunFrameRange
	}
	*resp = WireResponse{
		OK:          flags&flagOK != 0,
		Err:         string(errMsg),
		Retryable:   flags&flagRetryable != 0,
		Code:        string(code),
		Output:      output,
		ExitStatus:  uint32(exit),
		VerifiedAs:  string(verified),
		Attempts:    int(n[0]),
		BatchSize:   int(n[1]),
		Backend:     string(backend),
		QueueWaitNS: n[2],
		ArbWaitNS:   n[3],
		ExecuteNS:   n[4],
		QuoteGenNS:  n[5],
		VerifyNS:    n[6],
		TraceID:     string(trace),
	}
	return nil
}

// appendField appends a uvarint length and the bytes of s.
func appendField[T string | []byte](dst []byte, s T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendString appends s as a field, each byte outside valid UTF-8
// replaced with U+FFFD as encoding/json replaces it: ranging over a string
// yields U+FFFD for each such byte.
func appendString(dst []byte, s string) []byte {
	if utf8.ValidString(s) {
		return appendField(dst, s)
	}
	var valid []byte
	for _, r := range s {
		valid = utf8.AppendRune(valid, r)
	}
	return appendField(dst, valid)
}

// frameReader walks a run frame's fields. The first error sticks, and
// every later read returns a zero value, so a decoder reads all its fields
// and checks once, in finish.
type frameReader struct {
	b   []byte
	err error
}

// open checks the frame's tag and flags byte and returns the flags.
func (r *frameReader) open(tag, knownFlags byte) byte {
	switch {
	case len(r.b) == 0 || r.b[0] != tag:
		r.err = errRunFrameTag
	case len(r.b) == 1:
		r.err = errRunFrameTruncated
	case r.b[1]&^knownFlags != 0:
		r.err = errRunFrameFlags
	default:
		flags := r.b[1]
		r.b = r.b[2:]
		return flags
	}
	return 0
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	r.skip(n)
	return v
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	r.skip(n)
	return v
}

// skip consumes a varint of n bytes, as encoding/binary reports them: 0
// when the buffer ends first, negative when the value overflows 64 bits.
func (r *frameReader) skip(n int) {
	switch {
	case n == 0:
		r.err = errRunFrameTruncated
	case n < 0:
		r.err = errRunFrameRange
	default:
		r.b = r.b[n:]
	}
}

// field returns the next length-prefixed field as a subslice of the frame,
// or nil when it is empty.
func (r *frameReader) field() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errRunFrameTruncated
		return nil
	}
	f := r.b[:n:n]
	r.b = r.b[n:]
	return f
}

// str returns the next field, which must be valid UTF-8.
func (r *frameReader) str() []byte {
	f := r.field()
	if r.err == nil && !utf8.Valid(f) {
		r.err = errRunFrameUTF8
		return nil
	}
	return f
}

// finish reports the first error, or trailing bytes after the last field.
func (r *frameReader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errRunFrameTrailing
	}
	return r.err
}
