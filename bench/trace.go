package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"optsync/bench/hist"
	"optsync/internal/gwc"
	"optsync/internal/transport"
	"optsync/internal/wire"
)

// The traced pass sees the program from outside: every endpoint is
// wrapped so that each Send and each Recv return leaves a span, and the
// client loop leaves one span around each timed operation. Nothing
// inside the program is touched; spans inside it are a later change.

const (
	// spanCap bounds the pre-allocated span buffer; a traced pass stops
	// at spanSoft so that the frames still in flight fit, and anything
	// past spanCap is counted as dropped, never grown into.
	spanCap  = 1 << 18
	spanSoft = spanCap - spanCap/8
	// frameSamples is how many sent frames are kept whole, as the frame
	// mix the wire rungs encode and decode.
	frameSamples = 4096
)

type spanKind uint8

const (
	spanSend  spanKind = iota // a call into Endpoint.Send
	spanRecv                  // a call into Endpoint.Recv that returned a frame
	spanWrite                 // client: burst-of-one Write -> visible at the far member
	spanLock                  // client: bare Acquire -> Release returned
)

var spanNames = [...]string{"send", "recv", "write_visible", "lock_rtt"}

// span is one timed call. Times are nanoseconds since the tracer's start.
type span struct {
	start, end int64
	mid        int64 // client spans: Write returned / Acquire returned
	kind       spanKind
	typ        wire.Type
	node, peer int8 // where the call ran; the frame's other end
	id         uint32
	size       uint32 // frame: encoded bytes
	val        int64  // frame: Val; client span: operation id
	tok        uint64 // lock request and the grant answering it: the request token
}

// tracer collects spans from every goroutine of a traced cluster.
type tracer struct {
	on      atomic.Bool // off through set-up and warm-up
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64

	sample  []wire.Message
	sampled atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, spanCap), sample: make([]wire.Message, frameSamples)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) add(s span) {
	if i := t.n.Add(1) - 1; i < spanCap {
		t.spans[i] = s
	} else {
		t.dropped.Add(1)
	}
}

func (t *tracer) nearlyFull() bool { return t.n.Load() >= spanSoft }

// recorded returns the spans kept so far; call it once the cluster has
// closed and no goroutine can still add one.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > spanCap {
		n = spanCap
	}
	return t.spans[:n]
}

// outer records a client span at member 1: k is kOp for a timed write
// of value op to variable index v, or kLock for the op-th bare lock
// operation.
func (t *tracer) outer(k kind, v int, op int64, t0, t1, t2 time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{kind: spanWrite, node: 1, peer: -1, start: t.since(t0), mid: t.since(t1), end: t.since(t2), id: uint32(v + 1), val: op}
	if k == kLock {
		s.kind, s.id = spanLock, 0
	}
	t.add(s)
}

// tracedEndpoint decorates one node's endpoint.
type tracedEndpoint struct {
	inner transport.Endpoint
	node  int8
	t     *tracer
}

func (t *tracer) wrap(node int, ep transport.Endpoint) transport.Endpoint {
	return &tracedEndpoint{inner: ep, node: int8(node), t: t}
}

func frameSpan(k spanKind, node, peer int8, m *wire.Message) span {
	s := span{kind: k, typ: m.Type, node: node, peer: peer, id: m.Lock, val: m.Val}
	switch m.Type {
	case wire.TUpdate, wire.TSeqUpdate:
		s.id = m.Var
	case wire.TLockReq:
		s.tok = m.Seq
	case wire.TSeqLock:
		s.tok = uint64(uint32(m.Origin)) // a grant echoes its request's token here
	}
	return s
}

func (e *tracedEndpoint) Send(to int, m wire.Message) error {
	if !e.t.on.Load() {
		return e.inner.Send(to, m)
	}
	if e.t.sampled.Load() < frameSamples {
		if i := e.t.sampled.Add(1) - 1; i < frameSamples {
			e.t.sample[i] = m
		}
	}
	s := frameSpan(spanSend, e.node, int8(to), &m)
	s.size = uint32(wire.EncodedLen(m))
	start := time.Now()
	err := e.inner.Send(to, m)
	s.start, s.end = e.t.since(start), e.t.since(time.Now())
	e.t.add(s)
	return err
}

func (e *tracedEndpoint) Recv() (wire.Message, bool) {
	start := time.Now()
	m, ok := e.inner.Recv()
	if ok && e.t.on.Load() {
		s := frameSpan(spanRecv, e.node, int8(m.Src), &m)
		s.start, s.end = e.t.since(start), e.t.since(time.Now())
		e.t.add(s)
	}
	return m, ok
}

func (e *tracedEndpoint) Close() error { return e.inner.Close() }

// sent sums the Send spans between nodes (a node's frames to itself
// cross no link): how many, their encoded bytes, and the time spent
// inside Send, which is time on the caller's goroutine.
func sent(spans []span) (frames, bytes uint64, inSend time.Duration) {
	for i := range spans {
		if s := &spans[i]; s.kind == spanSend && s.peer != s.node {
			frames++
			bytes += uint64(s.size)
			inSend += time.Duration(s.end - s.start)
		}
	}
	return frames, bytes, inSend
}

// frameMix returns the sampled sent frames.
func (t *tracer) frameMix() []wire.Message {
	n := t.sampled.Load()
	if n > frameSamples {
		n = frameSamples
	}
	return t.sample[:n]
}

// --- journeys ------------------------------------------------------------

// frameKey identifies one frame on one hop.
type frameKey struct {
	kind       spanKind
	typ        wire.Type
	node, peer int8
	id         uint32
	val        int64
	tok        uint64
}

func (s *span) key() frameKey {
	return frameKey{kind: s.kind, typ: s.typ, node: s.node, peer: s.peer, id: s.id, val: s.val, tok: s.tok}
}

// journey is the stage-by-stage split of one kind of client operation.
type journey struct {
	names   []string // the stages' metric names
	sumName string   // the metric that says how well they add up
	stages  []hist.H // one per name
	total   hist.H   // the client span itself
	ops     int      // client spans seen
	matched int      // of those, how many had every frame span
	// causes[i] is the index of the span that caused span i (-1: none
	// found), filled in for the spans of matched operations.
	causes map[int]int
}

func newJourney(names []string, sumName string) *journey {
	return &journey{names: names, sumName: sumName, stages: make([]hist.H, len(names)), causes: make(map[int]int)}
}

func (j *journey) stage(i int, d int64) { j.stages[i].Record(d) }

// complete reports whether all but 1 % of the operations were matched,
// with two to spare for those in flight when recording starts and ends.
func (j *journey) complete() bool { return j.ops-j.matched <= 2+j.ops/100 }

// sumErr is |sum of stage medians - median of the whole| / median of the
// whole: how well the ladder's rungs add up to the end-to-end figure.
func (j *journey) sumErr() float64 {
	whole := j.total.Quantile(0.5)
	if whole == 0 {
		return 0
	}
	var sum float64
	for i := range j.stages {
		sum += j.stages[i].Quantile(0.5)
	}
	d := sum - whole
	if d < 0 {
		d = -d
	}
	return d / whole
}

func indexFrames(spans []span) map[frameKey]int {
	idx := make(map[frameKey]int, len(spans))
	for i := range spans {
		if s := &spans[i]; s.kind == spanSend || s.kind == spanRecv {
			if _, dup := idx[s.key()]; !dup {
				idx[s.key()] = i // keep the first: a retry is not the journey
			}
		}
	}
	return idx
}

var writeStages = []string{"gwc.store_us", "transport.up_us", "gwc.root_seq_us", "transport.down_us", "gwc.apply_us"}

// writeJourney splits every timed write into its five stages, matching
// the frames by (variable, value): values are the global operation
// count, so each is written once.
//
//	Write called -> up-frame Send starts     gwc.store_us     (member 1)
//	             -> root's Recv returns it   transport.up_us
//	             -> root's Send to member 3  gwc.root_seq_us  (root)
//	             -> member 3's Recv returns  transport.down_us
//	             -> WaitGE returns           gwc.apply_us     (member 3)
func writeJourney(spans []span) *journey {
	j := newJourney(writeStages, "trace.write_sum_err")
	idx := indexFrames(spans)
	for i := range spans {
		c := &spans[i]
		if c.kind != spanWrite {
			continue
		}
		j.ops++
		find := func(k spanKind, typ wire.Type, node, peer int8) (int, bool) {
			n, ok := idx[frameKey{kind: k, typ: typ, node: node, peer: peer, id: c.id, val: c.val}]
			return n, ok
		}
		up, ok1 := find(spanSend, wire.TUpdate, 1, 0)
		at, ok2 := find(spanRecv, wire.TUpdate, 0, 1)
		down, ok3 := find(spanSend, wire.TSeqUpdate, 0, 3)
		in, ok4 := find(spanRecv, wire.TSeqUpdate, 3, 0)
		if !(ok1 && ok2 && ok3 && ok4) {
			continue
		}
		j.matched++
		j.stage(0, spans[up].start-c.start)
		j.stage(1, spans[at].end-spans[up].start)
		j.stage(2, spans[down].start-spans[at].end)
		j.stage(3, spans[in].end-spans[down].start)
		j.stage(4, c.end-spans[in].end)
		j.total.Record(c.end - c.start)
		j.causes[up], j.causes[at], j.causes[down], j.causes[in] = i, up, at, down
	}
	return j
}

var lockStages = []string{"gwc.lock_req_us", "transport.lock_up_us", "gwc.root_grant_us", "transport.lock_down_us", "gwc.grant_wake_us", "gwc.release_us"}

// lockJourney splits every bare lock operation into its six stages.
// There is one client, so the request frame is the one member 1 sent
// while the client was inside Acquire; its token then names the grant.
//
//	Acquire called -> request Send starts      gwc.lock_req_us       (member 1)
//	               -> root's Recv returns it   transport.lock_up_us
//	               -> root's grant Send starts gwc.root_grant_us     (root)
//	               -> member 1's Recv returns  transport.lock_down_us
//	               -> Acquire returns          gwc.grant_wake_us     (member 1)
//	               -> Release returns          gwc.release_us        (member 1)
func lockJourney(spans []span) *journey {
	j := newJourney(lockStages, "trace.lock_sum_err")
	idx := indexFrames(spans)
	var reqs []int // member 1's request sends, by start time
	for i := range spans {
		if s := &spans[i]; s.kind == spanSend && s.typ == wire.TLockReq && s.node == 1 {
			reqs = append(reqs, i)
		}
	}
	sort.Slice(reqs, func(a, b int) bool { return spans[reqs[a]].start < spans[reqs[b]].start })
	granted := gwc.GrantValue(1) // what the lock variable reads while member 1 holds it
	for i := range spans {
		c := &spans[i]
		if c.kind != spanLock {
			continue
		}
		j.ops++
		n := sort.Search(len(reqs), func(k int) bool { return spans[reqs[k]].start >= c.start })
		if n == len(reqs) || spans[reqs[n]].start > c.mid {
			continue
		}
		req := reqs[n]
		id, tok := spans[req].id, spans[req].tok
		at, ok1 := idx[frameKey{kind: spanRecv, typ: wire.TLockReq, node: 0, peer: 1, id: id, tok: tok}]
		grant, ok2 := idx[frameKey{kind: spanSend, typ: wire.TSeqLock, node: 0, peer: 1, id: id, val: granted, tok: tok}]
		in, ok3 := idx[frameKey{kind: spanRecv, typ: wire.TSeqLock, node: 1, peer: 0, id: id, val: granted, tok: tok}]
		if !(ok1 && ok2 && ok3) {
			continue
		}
		j.matched++
		j.stage(0, spans[req].start-c.start)
		j.stage(1, spans[at].end-spans[req].start)
		j.stage(2, spans[grant].start-spans[at].end)
		j.stage(3, spans[in].end-spans[grant].start)
		j.stage(4, c.mid-spans[in].end)
		j.stage(5, c.end-c.mid)
		j.total.Record(c.end - c.start)
		j.causes[req], j.causes[at], j.causes[grant], j.causes[in] = i, req, at, grant
	}
	return j
}

// writeSpans writes the spans as JSON lines, one object per span, in the
// order they were recorded; "id" is that order, so a "cause" refers to
// another line.
func writeSpans(path string, spans []span, causes map[int]int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	field := func(name string, v int64) {
		b = append(b, ',', '"')
		b = append(b, name...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, v, 10)
	}
	for i := range spans {
		s := &spans[i]
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.kind]...)
		b = append(b, '"')
		field("node", int64(s.node))
		if s.kind == spanSend || s.kind == spanRecv {
			field("peer", int64(s.peer))
			b = append(b, `,"frame":"`...)
			b = append(b, s.typ.String()...)
			b = append(b, '"')
			field("var_or_lock", int64(s.id))
			if s.tok != 0 {
				field("token", int64(s.tok))
			}
		} else {
			field("mid_ns", s.mid)
		}
		field("op", s.val)
		field("start_ns", s.start)
		field("end_ns", s.end)
		if c, ok := causes[i]; ok {
			field("cause", int64(c))
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}
