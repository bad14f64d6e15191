package palsvc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"minimaltcb/internal/audit"
	"minimaltcb/internal/obs"
)

// Wire protocol: each message is a 4-byte big-endian length followed by a
// body. The same framing runs in both directions; a connection carries any
// number of request/response pairs in order. A body is JSON, or, for the
// run op between peers that agreed on it at Dial, a binary run frame
// (runframe.go). The server tells them apart by the first body byte and
// answers in the codec the request used.

// MaxFrame bounds a single frame body; anything larger is rejected before
// allocation so a hostile peer cannot make the service reserve gigabytes
// from four header bytes.
const MaxFrame = 1 << 20

// ErrFrameTooLarge reports a frame header exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("palsvc: frame exceeds size limit")

// frameBufs recycles WriteFrame's header‖body buffers. Like fmt's printer
// pool, it drops buffers past maxPooledFrame so one trace dump does not pin
// a megabyte behind every small frame that follows.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// WriteFrame writes one length-prefixed frame with a single Write: on a TCP
// connection one frame is one syscall, where a separate header write would
// cost a second syscall and, under TCP_NODELAY, a second segment.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	return writeFrame(w, func(frame []byte) []byte { return append(frame, body...) })
}

// writeFrame writes the frame whose body appendBody appends, encoding it
// straight into a pooled buffer after a header it fills in afterwards, so
// a run frame is copied once, into the buffer that goes to the socket. A
// body past MaxFrame is not written.
func writeFrame(w io.Writer, appendBody func([]byte) []byte) error {
	bp := frameBufs.Get().(*[]byte)
	frame := appendBody(append((*bp)[:0], 0, 0, 0, 0))
	n := len(frame) - 4
	var err error
	if n > MaxFrame {
		err = fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	} else {
		binary.BigEndian.PutUint32(frame, uint32(n))
		_, err = w.Write(frame)
	}
	if cap(frame) <= maxPooledFrame {
		*bp = frame
		frameBufs.Put(bp)
	}
	return err
}

// ReadFrame reads one length-prefixed frame, rejecting empty and oversized
// bodies. ServeConns and Client call it on one bufio.Reader that lives as
// long as the connection, so a frame that arrived whole costs one read
// syscall and bytes of a following frame stay buffered for the next call.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("palsvc: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: header claims %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("palsvc: truncated frame: %w", err)
	}
	return body, nil
}

// Wire ops.
const (
	OpRun    = "run"
	OpStats  = "stats"
	OpPing   = "ping"
	OpHealth = "health"
	// OpTrace dumps the server's span ring (optionally filtered to one
	// trace ID) together with the server's wall clock, so a collector can
	// align multi-process rings by RTT midpoint. Old servers answer it
	// with an unknown-op error; callers degrade by skipping the node.
	OpTrace = "trace"
	// OpAudit queries the server's tamper-evident audit log: a bounded
	// tail of events (filterable by tenant, trace, image-hash prefix and
	// sequence number) plus the newest signed tree head. A router answers
	// it with the fleet view — its own log plus one nested dump per live
	// backend. Old servers answer with an unknown-op error; callers
	// degrade by skipping the node, same as trace.
	OpAudit = "audit"
)

// maxTraceDump bounds how many records one trace response carries: newest
// first wins, and TraceDump.Truncated reports what was cut. 2048 records
// of typical size stay comfortably inside MaxFrame.
const maxTraceDump = 2048

// maxAuditDump bounds how many audit events one response carries (newest
// matches win; AuditDump.Truncated reports the cut). Events are a few
// hundred JSON bytes, so 1024 stays far inside MaxFrame even with a
// router's per-backend nesting.
const maxAuditDump = 1024

// HealthInfo is the health op's payload: the admission-relevant view of a
// server, cheap enough for a router to poll every few hundred milliseconds.
// Unlike the stats op it never takes the metrics mutex and never touches a
// busy machine's lock — a wedged replica shows up as zero free capacity, not
// as a hung probe.
type HealthInfo struct {
	// QueueDepth and QueueCap describe the submission queue.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// FreeSePCRs is the number of unreserved Free registers across replicas
	// whose locks could be probed without blocking; Bank is total capacity.
	FreeSePCRs int `json:"free_sepcrs"`
	Bank       int `json:"bank"`
	// Replicas and QuarantinedReplicas count platform replicas and how many
	// the supervisor currently holds in quarantine.
	Replicas            int `json:"replicas"`
	QuarantinedReplicas int `json:"quarantined_replicas"`
	// Shedding reports that every replica is quarantined: the server is
	// rejecting all work with shed_load, so a router should drain it.
	Shedding bool `json:"shedding"`
	// Degraded is set client-side when the peer predates the health op and
	// the probe fell back to synthesizing this from the stats op.
	Degraded bool `json:"degraded,omitempty"`
}

// WireRequest is one client request.
type WireRequest struct {
	Op         string `json:"op"`
	Name       string `json:"name,omitempty"`
	Source     string `json:"source,omitempty"`
	Input      []byte `json:"input,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	NoAttest   bool   `json:"no_attest,omitempty"`

	// Propagated trace context (all optional; absent fields keep the old
	// wire shape, and old servers ignore unknown fields by JSON contract).
	// TraceID is the compact obs.TraceID form — decimal or 32 hex digits;
	// on a run request the server adopts it instead of minting a root, so
	// the job's pipeline spans join the caller's trace. ParentSpan is the
	// caller-side span the server's spans nest under. Tenant is baggage:
	// the accounting identity for SLO tracking, defaulting to Name. On a
	// trace request, TraceID is the dump filter instead.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan uint64 `json:"parent_span,omitempty"`
	Tenant     string `json:"tenant,omitempty"`

	// Audit-op filters (ignored by every other op): Image matches on the
	// hex prefix of the event's PAL measurement, Since selects events with
	// seq >= Since, Limit bounds the tail (0 means the server cap). Tenant
	// and TraceID double as audit filters on this op.
	Image string `json:"image,omitempty"`
	Since uint64 `json:"since,omitempty"`
	Limit int    `json:"limit,omitempty"`

	// RunFrame, on a ping, offers to send run requests as run frames.
	// Only Dial's handshake makes the offer; a server that predates run
	// frames drops the unknown field and its answer does not accept.
	RunFrame bool `json:"run_frame,omitempty"`
}

// TraceDump is the trace op's payload: one node's (or, from a router, a
// whole fleet's already-stitched) span records plus the clock sample and
// loss accounting a collector needs.
type TraceDump struct {
	// NowNS is the answering node's wall clock when the dump was taken,
	// in Unix nanoseconds — the collector's skew-correction sample.
	NowNS int64 `json:"now_ns"`
	// Dropped counts records the ring had already overwritten.
	Dropped uint64 `json:"dropped,omitempty"`
	// Truncated counts records cut from this response to honor MaxFrame.
	Truncated int          `json:"truncated,omitempty"`
	Records   []obs.Record `json:"records"`
}

// AuditDump is the audit op's payload: one node's bounded event tail plus
// the newest signed tree head — enough for tcbaudit to show recent history
// and for a verifier to pin it. From a router, Nodes nests one dump per
// live backend (the fleet view with per-node signed heads) and the outer
// dump describes the router's own control-plane log.
type AuditDump struct {
	Node    string          `json:"node,omitempty"`
	Size    uint64          `json:"size"`
	Dropped uint64          `json:"dropped,omitempty"`
	Head    *audit.TreeHead `json:"head,omitempty"`
	// Truncated counts older matches cut to honor the response bound.
	Truncated int           `json:"truncated,omitempty"`
	Events    []audit.Event `json:"events"`
	Nodes     []AuditDump   `json:"nodes,omitempty"`
}

// WireResponse is the server's answer.
type WireResponse struct {
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
	// Code is a stable machine-readable cause for Err (see ErrorCode):
	// "queue_full", "bank_exhausted", "shed_load", "deadline_exceeded",
	// "closed" or "error". Empty on success.
	Code string `json:"code,omitempty"`

	Output     []byte `json:"output,omitempty"`
	ExitStatus uint32 `json:"exit_status,omitempty"`
	VerifiedAs string `json:"verified_as,omitempty"`
	// Attempts mirrors JobResult.Attempts: how many pipeline passes the
	// supervisor spent on the job (1 = no retries).
	Attempts int `json:"attempts,omitempty"`
	// BatchSize mirrors JobResult.BatchSize: how many jobs shared the
	// quote that attested this one. Absent (0) when the job skipped
	// attestation or the server predates batching — old clients ignore
	// the field by the protocol's unknown-field contract.
	BatchSize int `json:"batch_size,omitempty"`
	// Backend is the backend address that served the request when it was
	// routed through a cluster front-end (cmd/palrouter); empty when the
	// answer came straight from a palservd.
	Backend string `json:"backend,omitempty"`

	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	ArbWaitNS   int64 `json:"arb_wait_ns,omitempty"`
	ExecuteNS   int64 `json:"execute_ns,omitempty"`
	QuoteGenNS  int64 `json:"quote_gen_ns,omitempty"`
	VerifyNS    int64 `json:"verify_ns,omitempty"`

	Stats  *Metrics    `json:"stats,omitempty"`
	Health *HealthInfo `json:"health,omitempty"`
	Trace  *TraceDump  `json:"trace,omitempty"`
	Audit  *AuditDump  `json:"audit,omitempty"`

	// TraceID echoes the trace the job ran under (propagated or
	// server-minted), so callers can report and stitch it later.
	TraceID string `json:"trace_id,omitempty"`

	// RunFrame accepts a ping's run-frame offer: every ServeConns server
	// reads run frames, and it answers true only to a ping that offered.
	RunFrame bool `json:"run_frame,omitempty"`
}

// Serve accepts connections on l until the listener closes and answers
// their requests; see ServeConns.
func (s *Service) Serve(l net.Listener, connTimeout time.Duration) error {
	return ServeConns(l, connTimeout, s.dispatch)
}

// ServeConns is the wire protocol's server loop, shared by Service.Serve
// and the cluster router. It accepts connections on l and serves each in
// its own goroutine: read a request frame, answer it with dispatch, write
// the response frame in the request's codec, until the peer closes or a
// framing or deadline error occurs. connTimeout bounds each request
// read/response write (0 means no per-request deadline).
//
// Accept errors that mean the process is out of descriptors or buffers are
// retried after a backoff, because every live connection is still being
// served; ServeConns returns any other accept error, such as net.ErrClosed
// once the listener closes.
func ServeConns(l net.Listener, connTimeout time.Duration, dispatch func(*WireRequest) *WireResponse) error {
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if !acceptExhausted(err) {
				return err
			}
			// 5 ms doubling to 1 s, as net/http does.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		delay = 0
		go serveConn(conn, connTimeout, dispatch)
	}
}

// acceptExhausted reports whether an accept error is resource exhaustion,
// which clears as connections close.
func acceptExhausted(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.ENOMEM)
}

// serveConn runs the request loop for one connection.
func serveConn(c net.Conn, connTimeout time.Duration, dispatch func(*WireRequest) *WireResponse) {
	// A panicking handler must not kill the whole server; the deferred
	// Close still drops its connection.
	defer func() { _ = recover() }()
	defer c.Close()
	r := bufio.NewReader(c)
	for {
		if connTimeout > 0 {
			_ = c.SetDeadline(time.Now().Add(connTimeout))
		}
		body, err := ReadFrame(r)
		if err != nil {
			return
		}
		if err := answer(c, body, dispatch); err != nil {
			return
		}
	}
}

// answer decodes one request body in the codec its first byte names, runs
// dispatch on it, and writes the response to w in the same codec. A body
// that does not decode is answered with a bad-request error, and the
// connection stays usable.
func answer(w io.Writer, body []byte, dispatch func(*WireRequest) *WireResponse) error {
	var req WireRequest
	runFrame := body[0] == runRequestTag
	var err error
	if runFrame {
		err = req.decodeRunFrame(body)
	} else {
		err = json.Unmarshal(body, &req)
	}
	var resp *WireResponse
	switch {
	case err != nil:
		resp = &WireResponse{Err: "bad request: " + err.Error()}
	case req.Op == OpPing && req.RunFrame:
		accept := *dispatch(&req)
		accept.RunFrame = true
		resp = &accept
	default:
		resp = dispatch(&req)
	}
	if runFrame {
		return writeFrame(w, resp.appendRunFrame)
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	return WriteFrame(w, out)
}

// dispatch executes one wire request against the service.
func (s *Service) dispatch(req *WireRequest) *WireResponse {
	switch req.Op {
	case OpPing:
		return &WireResponse{OK: true}
	case OpStats:
		m := s.Metrics()
		return &WireResponse{OK: true, Stats: &m}
	case OpHealth:
		h := s.Health()
		return &WireResponse{OK: true, Health: &h}
	case OpTrace:
		return s.traceDump(req)
	case OpAudit:
		return s.auditDump(req)
	case OpRun:
		j := Job{Name: req.Name, Source: req.Source, Input: req.Input, NoAttest: req.NoAttest,
			Tenant: req.Tenant, Trace: req.TraceContext()}
		if req.DeadlineMS != 0 {
			// A negative deadline resolves to a time in the past and fails
			// with deadline_exceeded, matching the local-API contract.
			// Treating it as "no deadline" (the old > 0 check) silently
			// granted DefaultDeadline — or unbounded time — to a request
			// that asked for none at all.
			j.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
		}
		res, err := s.Run(j)
		if err != nil {
			return &WireResponse{Err: err.Error(), Retryable: IsRetryable(err), Code: ErrorCode(err)}
		}
		resp := &WireResponse{
			Output:      res.Output,
			ExitStatus:  res.ExitStatus,
			VerifiedAs:  res.VerifiedAs,
			Attempts:    res.Attempts,
			BatchSize:   res.BatchSize,
			QueueWaitNS: res.QueueWait.Nanoseconds(),
			ArbWaitNS:   res.ArbWait.Nanoseconds(),
			ExecuteNS:   res.Execute.Nanoseconds(),
			QuoteGenNS:  res.QuoteGen.Nanoseconds(),
			VerifyNS:    res.Verify.Nanoseconds(),
		}
		if res.Err != nil {
			resp.Err = res.Err.Error()
			resp.Retryable = IsRetryable(res.Err)
			resp.Code = ErrorCode(res.Err)
		} else {
			resp.OK = true
		}
		if !res.Trace.IsZero() {
			resp.TraceID = res.Trace.String()
		}
		return resp
	default:
		return &WireResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// TraceContext parses the request's propagated trace context, for the
// service and the cluster router alike. Absent or malformed fields yield
// the zero Context (the caller mints its own root); the empty-string fast
// path keeps the hot run dispatch allocation-free.
func (req *WireRequest) TraceContext() obs.Context {
	if req.TraceID == "" {
		return obs.Context{}
	}
	id, err := obs.ParseTraceID(req.TraceID)
	if err != nil || id.IsZero() {
		return obs.Context{}
	}
	return obs.Context{Trace: id, Span: req.ParentSpan}
}

// traceDump answers the trace op from the service's own ring.
func (s *Service) traceDump(req *WireRequest) *WireResponse {
	recs, dropped := s.tracer.Snapshot()
	if req.TraceID != "" {
		id, err := obs.ParseTraceID(req.TraceID)
		if err != nil {
			return &WireResponse{Err: err.Error()}
		}
		recs = obs.FilterTrace(recs, id)
	}
	return &WireResponse{OK: true, Trace: BoundTraceDump(recs, dropped)}
}

// auditDump answers the audit op from the service's log: the filtered,
// bounded event tail plus the newest signed tree head. A service built
// without an audit log answers with an error, which callers treat like an
// unknown op (skip the node).
func (s *Service) auditDump(req *WireRequest) *WireResponse {
	if s.cfg.Audit == nil {
		return &WireResponse{Err: "palsvc: audit log disabled"}
	}
	q := audit.Query{Tenant: req.Tenant, Image: req.Image, Since: req.Since, Limit: req.Limit}
	if q.Limit <= 0 || q.Limit > maxAuditDump {
		q.Limit = maxAuditDump
	}
	if req.TraceID != "" {
		id, err := obs.ParseTraceID(req.TraceID)
		if err != nil {
			return &WireResponse{Err: err.Error()}
		}
		q.Trace = id
	}
	// Seal the tail before dumping: the reported head must cover every
	// event in the dump, even when the log is mid-segment. Sync is a
	// no-op when the newest head is already current.
	s.cfg.Audit.Sync()
	events, truncated := s.cfg.Audit.Select(q)
	return &WireResponse{OK: true, Audit: &AuditDump{
		Node:      s.cfg.Audit.Node(),
		Size:      s.cfg.Audit.Size(),
		Dropped:   s.cfg.Audit.Dropped(),
		Head:      s.cfg.Audit.Head(),
		Truncated: truncated,
		Events:    events,
	}}
}

// BoundTraceDump packages records as a trace-op payload, keeping the
// newest maxTraceDump records and reporting the cut in Truncated. The
// router reuses it to bound stitched multi-node dumps to one wire frame.
func BoundTraceDump(recs []obs.Record, dropped uint64) *TraceDump {
	dump := &TraceDump{NowNS: time.Now().UnixNano(), Dropped: dropped, Records: recs}
	if len(recs) > maxTraceDump {
		dump.Truncated = len(recs) - maxTraceDump
		dump.Records = recs[len(recs)-maxTraceDump:]
	}
	return dump
}

// Client is a tenant-side connection to a palsvc server. It sends each
// request frame with one write and reads responses through one buffered
// reader, made on first use, that lives as long as the connection. A
// Client is not safe for concurrent use, and one that returned a transport
// error must be closed, never reused (see Do).
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration // per-roundTrip deadline; 0 = none
	// runFrame is set once Dial's handshake found a server that reads run
	// frames; until then, and on every other op, requests go as JSON.
	runFrame bool
}

// Dial connects to a palsvc server. A positive timeout bounds the TCP
// connect (net.DialTimeout), a ping handshake proving the peer actually
// speaks the protocol, and — unless overridden with SetTimeout — every
// subsequent round trip. The handshake ping offers run frames, and the
// Client sends its run requests in binary only if the server accepts. A
// zero timeout preserves the original block-forever behaviour and skips
// the handshake, so that Client speaks JSON only; routers and probers must
// always pass one, because a black-holed backend would otherwise hang the
// caller indefinitely.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, timeout: timeout}
	if timeout > 0 {
		// Handshake under the same budget: a listener that accepts but
		// never answers (black hole, half-dead process) fails here, not at
		// the first real request.
		accepted, err := c.ping(true)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("palsvc: dial handshake with %s: %w", addr, err)
		}
		c.runFrame = accepted
	}
	return c, nil
}

// SetTimeout replaces the per-roundTrip deadline established at Dial
// (0 disables it).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads its response.
func (c *Client) roundTrip(req *WireRequest) (*WireResponse, error) {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
	}
	if c.runFrame && req.Op == OpRun {
		if err := writeFrame(c.conn, req.appendRunFrame); err != nil {
			return nil, err
		}
	} else {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		if err := WriteFrame(c.conn, body); err != nil {
			return nil, err
		}
	}
	if c.r == nil {
		c.r = bufio.NewReader(c.conn)
	}
	out, err := ReadFrame(c.r)
	if err != nil {
		return nil, err
	}
	var resp WireResponse
	if out[0] == runResponseTag {
		err = resp.decodeRunFrame(out)
	} else {
		err = json.Unmarshal(out, &resp)
	}
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Do sends one raw request and returns the raw response — the forwarding
// primitive cmd/palrouter proxies through. Unlike Run it never rewrites
// req.Op, so a router can relay stats/health/ping verbatim.
//
// Do returns an error only when the round trip itself failed. The
// connection is then in an unknown state and its reader may hold part of a
// frame, so the caller must Close c rather than send on it again. An answer
// the server sends back, OK or not, is a response, not an error.
func (c *Client) Do(req *WireRequest) (*WireResponse, error) {
	return c.roundTrip(req)
}

// Run submits a job over the wire and waits for its result.
func (c *Client) Run(req *WireRequest) (*WireResponse, error) {
	r := *req
	r.Op = OpRun
	return c.roundTrip(&r)
}

// Stats fetches the server's metrics snapshot.
func (c *Client) Stats() (*Metrics, error) {
	resp, err := c.roundTrip(&WireRequest{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Stats == nil {
		return nil, fmt.Errorf("palsvc: stats failed: %s", resp.Err)
	}
	return resp.Stats, nil
}

// Health fetches the server's admission-relevant health snapshot. Servers
// that predate the health op answer it with an unknown-op error; Health then
// degrades gracefully by synthesizing the snapshot from the stats op
// (Degraded is set), so a mixed-version fleet stays probeable.
func (c *Client) Health() (*HealthInfo, error) {
	resp, err := c.roundTrip(&WireRequest{Op: OpHealth})
	if err != nil {
		return nil, err
	}
	if resp.OK && resp.Health != nil {
		return resp.Health, nil
	}
	stats, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("palsvc: health probe fallback: %w", err)
	}
	free := stats.SePCRCapacity - stats.SePCROccupancy
	if free < 0 {
		free = 0
	}
	return &HealthInfo{
		QueueDepth: stats.QueueDepth,
		FreeSePCRs: free,
		Bank:       stats.SePCRCapacity,
		Degraded:   true,
	}, nil
}

// Trace fetches the server's span ring (filter narrows it to one trace ID,
// "" dumps everything) and estimates the server's clock offset from the
// local one using the RTT midpoint of this very round trip — the input
// obs.Stitch needs to merge multi-process rings onto one timeline. Old
// servers answer with an unknown-op error, which surfaces here as err.
func (c *Client) Trace(filter string) (*TraceDump, time.Duration, error) {
	sent := time.Now()
	resp, err := c.roundTrip(&WireRequest{Op: OpTrace, TraceID: filter})
	received := time.Now()
	if err != nil {
		return nil, 0, err
	}
	if !resp.OK || resp.Trace == nil {
		return nil, 0, fmt.Errorf("palsvc: trace dump failed: %s", resp.Err)
	}
	return resp.Trace, obs.ClockOffset(sent, received, resp.Trace.NowNS), nil
}

// Audit queries the server's tamper-evident audit log. The request's
// Tenant/TraceID/Image/Since/Limit fields filter the event tail; a zero
// request fetches the newest events and the latest signed head. Old
// servers (and servers running without a log) answer with an error, which
// surfaces here — fleet callers skip such nodes.
func (c *Client) Audit(req *WireRequest) (*AuditDump, error) {
	r := *req
	r.Op = OpAudit
	resp, err := c.roundTrip(&r)
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Audit == nil {
		return nil, fmt.Errorf("palsvc: audit query failed: %s", resp.Err)
	}
	return resp.Audit, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.ping(false)
	return err
}

// ping checks liveness, offering run frames if offer is set, and reports
// whether the server accepted them.
func (c *Client) ping(offer bool) (bool, error) {
	resp, err := c.roundTrip(&WireRequest{Op: OpPing, RunFrame: offer})
	if err != nil {
		return false, err
	}
	if !resp.OK {
		return false, fmt.Errorf("palsvc: ping failed: %s", resp.Err)
	}
	return resp.RunFrame, nil
}
