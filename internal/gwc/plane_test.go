package gwc

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

var long = flag.Bool("long", false, "also run TestLockPlaneSmallScope's larger scopes")

// The closed system TestLockPlaneSmallScope enumerates: one lock book and
// one lock plane per node, all on recording sinks, joined by FIFO links
// over one lock. Node 0 roots the group, so its plane is the root's own
// member: like the node's, it applies the book's multicast the moment the
// book makes it, and sends up on a link like every other. Nothing is
// lost, duplicated or reordered within a link; which link delivers next
// is the adversary's choice, and so are the callers' requests, releases,
// cancels and guarded writes, the clock step and the maintenance ticks
// after it.

// abortBound is the bounded-abort check's k: once the book has taken in
// a cancel, it forgets the cancelled acquisition — queued or holding —
// within k further deliveries from the canceller. Every entry is one the
// book sequenced, so the cancel itself takes the acquisition out: k is 0.
const abortBound = 0

// planeScope is one scope of the enumeration.
type planeScope struct {
	requests []int  // by node, the acquisitions it may start; node i has a plane for each i
	writes   []int  // by node, the guarded writes it may make
	sessions uint32 // a request asks for one of sessions 0..sessions-1
	leasing  bool   // the lease fast path
	cancels  bool   // callers may cancel
	clock    bool   // the clock step, request deadlines, and the ticks after the step
}

func (s planeScope) String() string {
	return fmt.Sprintf("requests=%v,writes=%v,sessions=%d,leasing=%v,cancels=%v,clock=%v",
		s.requests, s.writes, s.sessions, s.leasing, s.cancels, s.clock)
}

// planeWorld is the closed system in one state.
type planeWorld struct {
	scope planeScope
	book  *lockBook
	nodes []*planeNode
	// links[from][to], the book at index len(nodes).
	links   [][][]wire.Message
	stepped bool   // the clock has made its one step
	seq     uint64 // the book's sequence watermark
	// lastOK is, per writer, the sequence number its newest accepted
	// guarded write was sequenced at.
	lastOK []uint64
	bad    string
}

// planeNode is one member: its plane and the ghost state the checks read.
// It is also the plane's sink.
type planeNode struct {
	w     *planeWorld
	id    int
	plane *lockPlane
	seen  uint64 // the sequenced prefix applied
	// eager marks a guarded write whose echo has not come back; eagerVal
	// is its value, the write's number. truths records, per write, whether
	// the writer's copy showed it inside when it wrote.
	eager    bool
	eagerVal int64
	truths   []bool
	reqs     int
	deadline bool // the newest acquisition quoted a deadline
	// cancelled marks a node whose newest acquisition it cancelled. ahead
	// counts the frames before the cancel on its up link; once they and
	// the cancel are delivered, age counts the up link's deliveries.
	cancelled bool
	ahead     int
	age       int
}

func (p *planeNode) up(m wire.Message)                { p.w.push(p.id, p.w.root(), m) }
func (p *planeNode) emit(obs.EventType, int64, int64) {}
func (p *planeNode) wake()                            {}
func (p *planeNode) arm(b *backoff, now time.Time)    { b.due = now.Add(time.Second) }
func (p *planeNode) suspend()                         {}
func (p *planeNode) now() time.Time                   { return p.w.now() }
func (p *planeNode) hdr() wire.Hdr                    { return wire.Hdr{Group: uint32(tGroup), Src: int32(p.id)} }
func (p *planeNode) leasing() bool                    { return p.w.scope.leasing }

func (p *planeNode) lk() *memberLock { return p.plane.at(tLock) }

// inside reports whether the node believes it is inside a section: its
// entry is in its copy, and not as an idle lease.
func (p *planeNode) inside() bool { lk := p.lk(); return lk.held.has(p.id) && !lk.idleLease() }

// worldBook is the book's sink: what the book sends leaves on the links.
type worldBook struct{ w *planeWorld }

func (b worldBook) multicast(m wire.Message) {
	b.w.seq++
	m.Seq = b.w.seq
	for i := 1; i < len(b.w.nodes); i++ {
		b.w.push(b.w.root(), i, m)
	}
	b.w.deliver(b.w.root(), 0, &m) // the root's own member, in place
}
func (b worldBook) send(to int, m wire.Message)      { b.w.push(b.w.root(), to, m) }
func (b worldBook) park(wire.Message)                { b.w.fail("the book parked a frame in an unfenced reign") }
func (b worldBook) emit(obs.EventType, int64, int64) {}
func (b worldBook) holders(int)                      {}
func (b worldBook) quorumWaited(time.Time)           {}
func (b worldBook) arm(bo *backoff, now time.Time)   { bo.due = now.Add(time.Second) }
func (b worldBook) now() time.Time                   { return b.w.now() }
func (b worldBook) seq() uint64                      { return b.w.seq }
func (b worldBook) commit() uint64                   { return b.w.seq }
func (b worldBook) fenced() bool                     { return false }
func (b worldBook) quorumAcks() bool                 { return false }
func (b worldBook) leaseTTL() (ttl time.Duration) {
	if b.w.scope.leasing {
		ttl = time.Second
	}
	return ttl
}

func (w *planeWorld) root() int { return len(w.nodes) }

func (w *planeWorld) now() time.Time {
	if w.stepped {
		return scopeT0.Add(2 * time.Second)
	}
	return scopeT0
}

func (w *planeWorld) push(from, to int, m wire.Message) {
	w.links[from][to] = append(w.links[from][to], m)
}

func (w *planeWorld) fail(s string) {
	if w.bad == "" {
		w.bad = s
	}
}

func newPlaneWorld(s planeScope) *planeWorld {
	w := &planeWorld{scope: s, lastOK: make([]uint64, len(s.requests))}
	n := len(s.requests)
	w.book = &lockBook{hdr: wire.Hdr{Group: uint32(tGroup)}}
	w.book.sink = worldBook{w}
	w.links = make([][][]wire.Message, n+1)
	for i := range w.links {
		w.links[i] = make([][]wire.Message, n+1)
	}
	for i := range n {
		p := &planeNode{w: w, id: i, plane: &lockPlane{self: i}}
		p.plane.sink = p
		w.nodes = append(w.nodes, p)
	}
	return w
}

// clone copies the world as it stands.
func (w *planeWorld) clone() *planeWorld {
	c := *w
	c.book = &lockBook{sink: worldBook{&c}, hdr: w.book.hdr}
	if ls := w.book.locks.peek(tLock); ls != nil {
		cp := *ls
		cp.held.in, cp.queue, cp.pending = slices.Clone(ls.held.in), slices.Clone(ls.queue), slices.Clone(ls.pending)
		*c.book.locks.at(tLock) = cp
	}
	c.lastOK = slices.Clone(w.lastOK)
	c.links = make([][][]wire.Message, len(w.links))
	for i := range w.links {
		c.links[i] = make([][]wire.Message, len(w.links[i]))
		for j, q := range w.links[i] {
			c.links[i][j] = slices.Clone(q)
		}
	}
	c.nodes = make([]*planeNode, len(w.nodes))
	for i, p := range w.nodes {
		q := *p
		q.w, q.truths = &c, slices.Clone(p.truths)
		pl := *p.plane
		pl.sink, pl.busy, pl.recs = &q, slices.Clone(p.plane.busy), slices.Clone(p.plane.recs)
		for k := range pl.recs {
			lk := &pl.recs[k]
			lk.held.in = slices.Clone(lk.held.in)
			if lk.deleg != nil {
				d := *lk.deleg
				lk.deleg = &d
			}
		}
		q.plane = &pl
		c.nodes[i] = &q
	}
	return &c
}

// planeInput is one input of the enumeration: a link delivering its head
// ('d', from node to to), a caller's request ('q', in session, with or
// without a deadline), release ('r'), cancel ('c') or guarded write
// ('w'), a node's maintenance tick ('t'), the root's ('T'), or the clock
// step ('s') past every deadline, backoff and lease.
type planeInput struct {
	kind     byte
	node, to int
	session  uint32
	deadline bool
}

func (in planeInput) String() string {
	switch in.kind {
	case 'd':
		return fmt.Sprintf("deliver(%d->%d)", in.node, in.to)
	case 'q':
		d := ""
		if in.deadline {
			d = "+dl"
		}
		return fmt.Sprintf("req(%d,s%d%s)", in.node, in.session, d)
	case 'T':
		return "root-tick"
	case 's':
		return "clock-step"
	}
	return fmt.Sprintf("%c(%d)", in.kind, in.node)
}

// inputs lists what may happen next.
func (w *planeWorld) inputs() []planeInput {
	var ins []planeInput
	for from, row := range w.links {
		for to, q := range row {
			if len(q) > 0 {
				ins = append(ins, planeInput{kind: 'd', node: from, to: to})
			}
		}
	}
	for _, p := range w.nodes {
		lk := p.lk()
		if !lk.inUse() && p.reqs < w.scope.requests[p.id] {
			for s := uint32(0); s < w.scope.sessions; s++ {
				ins = append(ins, planeInput{'q', p.id, 0, s, false})
				if w.scope.clock {
					ins = append(ins, planeInput{'q', p.id, 0, s, true})
				}
			}
		}
		if p.inside() {
			ins = append(ins, planeInput{kind: 'r', node: p.id})
		}
		if w.scope.cancels && lk.want && !lk.held.has(p.id) {
			ins = append(ins, planeInput{kind: 'c', node: p.id})
		}
		// A waiter does not write: its writes would be speculative, which
		// the book judges by another rule (a clean speculation).
		if len(p.truths) < w.scope.writes[p.id] && (lk.held.has(p.id) || !lk.want) {
			ins = append(ins, planeInput{kind: 'w', node: p.id})
		}
		if w.stepped {
			ins = append(ins, planeInput{kind: 't', node: p.id})
		}
	}
	if w.stepped && w.scope.leasing {
		ins = append(ins, planeInput{kind: 'T'})
	}
	if w.scope.clock && !w.stepped {
		ins = append(ins, planeInput{kind: 's'})
	}
	return ins
}

// apply feeds in to the world. The callers' inputs do what the node's
// exported methods do around the plane (member.go), without the lock and
// the transport.
func (w *planeWorld) apply(in planeInput) {
	now := w.now()
	switch in.kind {
	case 'd':
		m := w.links[in.node][in.to][0]
		w.links[in.node][in.to] = w.links[in.node][in.to][1:]
		if p := w.nodes[min(in.node, len(w.nodes)-1)]; p.cancelled && in.node == p.id && in.to == w.root() {
			if p.ahead >= 0 {
				p.ahead--
			} else {
				p.age++
			}
		}
		w.deliver(in.node, in.to, &m)
	case 'q':
		p := w.nodes[in.node]
		dl := int64(0)
		if in.deadline {
			dl = scopeT0.Add(time.Second).UnixNano()
		}
		p.reqs++
		p.deadline, p.cancelled, p.ahead, p.age = in.deadline, false, 0, 0
		var m wire.Message
		if !p.plane.start(tLock, in.session, dl, now, in.session == 0, &m) {
			p.up(m)
		}
	case 'r':
		p := w.nodes[in.node]
		var up wire.Message
		p.plane.release(tLock, p.lk(), &up)
		if up.Type != 0 {
			p.up(up)
		}
	case 'c':
		p := w.nodes[in.node]
		p.cancelled, p.ahead, p.age = true, len(w.links[p.id][w.root()]), 0
		var m wire.Message
		p.plane.cancel(tLock, p.lk(), &m)
		p.up(m)
	case 'w':
		p := w.nodes[in.node]
		lk := p.lk()
		p.truths = append(p.truths, lk.held.has(p.id))
		k := int64(len(p.truths))
		p.eager, p.eagerVal = true, k
		p.up(p.hdr().GuardedUpdate(uint32(tVar), k, lk.grantEpoch, uint64(k)))
	case 't':
		// The node rooting the group runs only the first pass (Node.tick).
		p := w.nodes[in.node]
		p.plane.tickLocks(now, false, 0)
		if p.id != 0 {
			p.plane.tickDeleg(now)
		}
	case 'T':
		w.book.recall(now, false)
	case 's':
		w.stepped = true
	}
}

// deliver hands m, the head of the link from -> to, to its receiver.
func (w *planeWorld) deliver(from, to int, m *wire.Message) {
	switch {
	case to == w.root() && m.Type == wire.TUpdate:
		// A guarded write, judged as rootUpdate judges it.
		origin := int(m.Origin)
		truth := w.nodes[origin].truths[m.Val-1]
		_, ok := w.book.judgeWrite(tLock, origin, m.Tag())
		if ok != truth {
			w.fail(fmt.Sprintf("the book judged node %d's write %d (tag %d) ok=%v, but its writer was inside=%v when it wrote",
				origin, m.Val, m.Tag(), ok, truth))
		}
		if ok {
			worldBook{w}.multicast(w.book.hdr.SeqUpdate(m.Origin, m.Var, m.Val, true))
			w.lastOK[origin] = w.seq
		}
	case to == w.root():
		w.book.step(m)
	case from == w.root() && m.Type == wire.TLeaseGrant:
		w.nodes[to].plane.leaseFrame(m)
	case from == w.root():
		// The stream, ingested as Node.ingest does with nothing lost.
		p := w.nodes[to]
		if m.Seq != p.seen+1 {
			w.fail(fmt.Sprintf("node %d got seq %d after %d on a FIFO link", to, m.Seq, p.seen))
		}
		if m.Type == wire.TSeqLock {
			p.plane.applyLock(m)
		} else if int(m.Origin) == p.id && p.eager && p.eagerVal == m.Val {
			p.eager = false
		}
		p.seen = m.Seq
	}
}

// quiet reports whether nothing is in flight.
func (w *planeWorld) quiet() bool {
	for _, row := range w.links {
		for _, q := range row {
			if len(q) > 0 {
				return false
			}
		}
	}
	return true
}

// settled reports whether the world is quiet and stays so through every
// maintenance tick: nothing is in flight, and nothing is due.
func (w *planeWorld) settled() bool {
	if !w.quiet() || w.scope.clock && !w.stepped {
		return false
	}
	c := w.clone()
	c.stepped = true
	for i := range c.nodes {
		c.apply(planeInput{kind: 't', node: i})
	}
	c.apply(planeInput{kind: 'T'})
	return c.quiet()
}

// check reports what is wrong with the state the world is in.
func (w *planeWorld) check() string {
	if w.bad != "" {
		return w.bad
	}
	ls := w.book.lock(tLock)
	var in []int
	var sessions []uint32
	for _, p := range w.nodes {
		lk := p.lk()
		if lk.held.has(p.id) {
			in = append(in, p.id)
			sessions = append(sessions, lk.held.session)
		}
		if p.inside() && lk.held.session == 0 {
			// Data-before-lock: an exclusive holder has applied every write
			// the book accepted from anyone else.
			for j, seq := range w.lastOK {
				if j != p.id && p.seen < seq {
					return fmt.Sprintf("node %d is inside having applied %d, but node %d's write was sequenced at %d", p.id, p.seen, j, seq)
				}
			}
		}
		if p.cancelled {
			if lk.held.has(p.id) {
				return fmt.Sprintf("node %d entered an acquisition it cancelled", p.id)
			}
			if p.ahead < 0 && (ls.holds(p.id) || ls.waiting(p.id) >= 0) && p.age > abortBound {
				return fmt.Sprintf("the book still has node %d's cancelled acquisition %d deliveries after the cancel", p.id, p.age)
			}
		}
	}
	if len(in) > 0 && (slices.Min(sessions) != slices.Max(sessions) || sessions[0] == 0 && len(in) > 1) {
		return fmt.Sprintf("nodes %v believe they are inside sessions %v", in, sessions)
	}
	if !w.settled() {
		return ""
	}
	// At rest the copies and the books agree, and no waiter is lost.
	if ls.free() && len(ls.queue) > 0 {
		return fmt.Sprintf("free lock with waiters %v", ls.queue)
	}
	for _, p := range w.nodes {
		lk := p.lk()
		switch queued := ls.waiting(p.id) >= 0; {
		case ls.holds(p.id) != lk.held.has(p.id):
			return fmt.Sprintf("at rest the books hold %v, node %d's copy %v", ls.held.in, p.id, lk.held.in)
		case queued && (!lk.want || lk.held.has(p.id)):
			return fmt.Sprintf("at rest node %d is queued, but wants=%v holds=%v", p.id, lk.want, lk.held.has(p.id))
		case !queued && lk.want && !lk.held.has(p.id) && !p.deadline:
			return fmt.Sprintf("at rest node %d waits and is not queued: %v", p.id, ls.queue)
		}
	}
	return ""
}

// key hashes the state a future of the world depends on.
func (w *planeWorld) key() uint64 {
	b := make([]byte, 0, 512)
	u := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	at := func(t time.Time) uint64 {
		if t.IsZero() {
			return 0
		}
		return uint64(t.Sub(scopeT0)/time.Second) + 1
	}
	held := func(s *holderSet) {
		u(uint64(s.session), uint64(len(s.in)))
		for _, h := range s.in {
			u(uint64(h.node), uint64(h.epoch), uint64(h.token))
		}
	}
	u(bit(w.stepped), w.seq)
	u(w.lastOK...)
	ls := w.book.lock(tLock)
	held(&ls.held)
	u(uint64(ls.epoch), uint64(len(ls.queue)))
	for _, q := range ls.queue {
		u(uint64(q.node), uint64(q.token), bit(q.deadline != 0), uint64(q.session))
	}
	u(uint64(ls.lastWinner+1), uint64(ls.lastSession), uint64(ls.foreignEpoch))
	u(uint64(ls.leaseTo+1), at(ls.revokeB.due))
	for _, p := range w.nodes {
		u(p.seen, bit(p.eager), uint64(p.eagerVal), uint64(p.reqs), bit(p.deadline), bit(p.cancelled), uint64(p.ahead+1), uint64(p.age))
		for _, t := range p.truths {
			u(bit(t))
		}
		u(uint64(len(p.plane.busy)))
		lk := p.lk()
		held(&lk.held)
		u(uint64(lk.grantEpoch), uint64(lk.lockDone), bit(lk.want), uint64(lk.reqToken), uint64(lk.reqSession))
		u(at(lk.reqSince), bit(lk.reqDeadline != 0), at(lk.reqB.due), bit(lk.busy))
		if d := lk.deleg; d != nil {
			u(1, bit(d.entered), bit(d.used), bit(d.revoked), at(d.expiry), uint64(d.ttl), at(d.renewB.due))
		} else {
			u(0)
		}
	}
	for _, row := range w.links {
		for _, q := range row {
			u(uint64(len(q)))
			for _, m := range q {
				u(uint64(m.Type), uint64(m.Origin), m.Seq, uint64(m.Var), uint64(m.Val), uint64(m.Session), uint64(m.Deadline), uint64(m.Src))
			}
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// pack and unpack store an input in four bytes: the enumeration keeps
// no world per state, only the input that reached it from its parent.
func (in planeInput) pack() uint32 {
	d := uint32(0)
	if in.deadline {
		d = 1
	}
	return uint32(in.kind) | uint32(in.node)<<8 | uint32(in.to)<<14 | in.session<<20 | d<<26
}

func unpack(v uint32) planeInput {
	return planeInput{kind: byte(v), node: int(v >> 8 & 63), to: int(v >> 14 & 63), session: v >> 20 & 63, deadline: v>>26 != 0}
}

// planeTrail is the breadth-first search's record: per state visited,
// its parent's index and the input that reached it. A state's world is
// rebuilt by replaying its inputs, so memory grows by eight bytes per
// state and a hash in the visited set, not by a world.
type planeTrail struct {
	parent []int32
	in     []uint32
}

func (t *planeTrail) path(i int32) []planeInput {
	var ins []planeInput
	for ; i > 0; i = t.parent[i] {
		ins = append(ins, unpack(t.in[i]))
	}
	slices.Reverse(ins)
	return ins
}

// explorePlanes runs the enumeration over scope breadth first, each state
// once at the depth it is first reached, and returns the number of states
// visited and the depth of the last level, or the first failure with the
// input sequence that reached it (its length is the failure's depth).
func explorePlanes(scope planeScope, limit int) (states, depth int, err error) {
	w0 := newPlaneWorld(scope)
	seen := map[uint64]struct{}{w0.key(): {}}
	t := planeTrail{parent: []int32{-1}, in: []uint32{0}}
	for lo, hi := 0, 1; lo < hi; lo, hi, depth = hi, len(t.in), depth+1 {
		for i := lo; i < hi; i++ {
			from := newPlaneWorld(scope)
			for _, in := range t.path(int32(i)) {
				from.apply(in)
			}
			for _, in := range from.inputs() {
				w := from.clone()
				w.apply(in)
				k := w.key()
				if _, ok := seen[k]; ok {
					continue
				}
				seen[k] = struct{}{}
				t.parent, t.in = append(t.parent, int32(i)), append(t.in, in.pack())
				if bad := w.check(); bad != "" {
					path := t.path(int32(len(t.in) - 1))
					ins := make([]string, len(path))
					for j, in := range path {
						ins[j] = in.String()
					}
					return len(seen), len(path), fmt.Errorf("depth %d: %s\n  after %s", len(path), bad, strings.Join(ins, " "))
				}
				if len(seen) > limit {
					return len(seen), depth + 1, fmt.Errorf("more than %d states by depth %d: shrink the scope", limit, depth+1)
				}
			}
		}
	}
	return len(seen), depth - 1, nil
}

// TestLockPlaneSmallScope checks the member's lock plane and the root's
// lock book together over every schedule of a small closed system: one
// lock, nodes that each start a bounded number of acquisitions in
// sessions 0 to 2, with and without a deadline, release, cancel and make
// guarded writes, FIFO links between every pair, maintenance ticks and
// one clock step, with leasing off and on. In every state it checks that
// at most one node believes it is inside an exclusive section and that
// every node inside shares one session; that the book accepts a guarded
// write exactly when its writer's copy showed it inside when it wrote;
// that an exclusive holder has applied every write the book accepted from
// another node (data-before-lock); and that a cancelled acquisition is
// never entered, and, once the book has taken the cancel in, is gone
// from it within abortBound more deliveries from the canceller (bounded
// abort). At rest — nothing in flight,
// nothing due — the books and the copies agree on who holds the lock,
// and every waiter is queued. The smallest scopes run in plain go test;
// -long adds the larger ones. DESIGN.md ("Member lock plane") records the
// state counts and times.
func TestLockPlaneSmallScope(t *testing.T) {
	scopes := []planeScope{
		{requests: []int{2, 2}, writes: []int{0, 0}, sessions: 1, cancels: true},
		{requests: []int{1, 1}, writes: []int{1, 1}, sessions: 2, cancels: true},
		{requests: []int{1, 1}, writes: []int{0, 0}, sessions: 1, leasing: true, clock: true},
		{requests: []int{1, 1, 2}, writes: []int{0, 0, 0}, sessions: 1, leasing: true},
		{requests: []int{1, 1, 1}, writes: []int{1, 0, 0}, sessions: 1, leasing: true},
		{requests: []int{1, 1, 1}, writes: []int{0, 0, 0}, sessions: 1, leasing: true, cancels: true},
	}
	if *long {
		scopes = append(scopes,
			planeScope{requests: []int{1, 1}, writes: []int{1, 1}, sessions: 3, cancels: true},
			planeScope{requests: []int{1, 1}, writes: []int{1, 1}, sessions: 1, cancels: true, clock: true},
			planeScope{requests: []int{1, 1, 1}, writes: []int{1, 1, 1}, sessions: 1, leasing: true},
			planeScope{requests: []int{2, 2}, writes: []int{1, 1}, sessions: 1, cancels: true, leasing: true},
		)
	}
	for _, s := range scopes {
		t.Run(s.String(), func(t *testing.T) {
			start := time.Now()
			states, depth, err := explorePlanes(s, 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d states to depth %d in %v", states, depth, time.Since(start).Round(time.Millisecond))
		})
	}
}
