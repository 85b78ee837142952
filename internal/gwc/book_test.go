package gwc

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// bookRec is a bookSink that records what a lock book decides, with the
// reign's facts set by hand: the book alone, with no node and no network.
// It checks each entry announcement as it is made.
type bookRec struct {
	book   *lockBook
	clock  time.Time
	sq, cm uint64 // sequence and commit watermarks
	quorum bool
	frames []wire.Message // multicast, Seq stamped, in order
	sent   []wire.Message
	events []obs.Event // Type, A, B
	gauge  int
	errs   int
	// announced is the entry epoch last announced per node, newest the
	// newest epoch announced at all.
	announced [scopeNodes]uint32
	newest    uint32
	bad       []string
}

func (r *bookRec) multicast(m wire.Message) {
	r.sq++
	m.Seq = r.sq
	r.frames = append(r.frames, m)
	if node := m.Holder(); m.Type == wire.TSeqLock && node >= 0 {
		e := m.EntryEpoch()
		if ls := r.book.lock(LockID(m.Lock)); !ls.holdsAt(node, e) {
			r.bad = append(r.bad, fmt.Sprintf("entry of node %d at epoch %d announced; the books hold %v", node, e, ls.held.in))
		}
		if r.announced[node] == e {
			return // a re-announcement of the entry node holds
		}
		if e <= r.newest {
			r.bad = append(r.bad, fmt.Sprintf("entry of node %d at epoch %d announced after epoch %d", node, e, r.newest))
		}
		r.announced[node], r.newest = e, max(r.newest, e)
	}
}

func (r *bookRec) send(to int, m wire.Message) { r.sent = append(r.sent, m) }
func (r *bookRec) park(m wire.Message)         { r.sent = append(r.sent, m) }
func (r *bookRec) emit(typ obs.EventType, a, b int64) {
	r.events = append(r.events, obs.Event{Type: typ, A: a, B: b})
}
func (r *bookRec) holders(delta int)             { r.gauge += delta }
func (r *bookRec) quorumWaited(time.Time)        {}
func (r *bookRec) arm(b *backoff, now time.Time) { b.due = now.Add(time.Second) }
func (r *bookRec) protoErr(string, ...any)       { r.errs++ }
func (r *bookRec) now() time.Time                { return r.clock }
func (r *bookRec) seq() uint64                   { return r.sq }
func (r *bookRec) commit() uint64                { return r.cm }
func (r *bookRec) fenced() bool                  { return false }
func (r *bookRec) quorumAcks() bool              { return r.quorum }
func (r *bookRec) leaseTTL() time.Duration       { return 0 }

// The small scope TestLockBookSmallScope enumerates: three nodes (node 0
// is the root itself) and one lock, requests in sessions 0-2, some with
// a deadline that one clock step passes.
const (
	scopeNodes = 3
	scopeDepth = 6
)

var scopeT0 = time.Unix(1000, 0)

// bookInput is one input of the enumeration: a request (kind 'q'), a
// release quoting the node's entry epoch ('r') or a stale one ('s'), a
// cancel ('c'), the clock stepping past every deadline ('t'), or the
// commit watermark catching up with the sequence ('a').
type bookInput struct {
	kind     byte
	node     int
	session  uint32
	deadline bool
}

func (in bookInput) String() string {
	switch in.kind {
	case 'q':
		d := ""
		if in.deadline {
			d = "+dl"
		}
		return fmt.Sprintf("req(%d,s%d%s)", in.node, in.session, d)
	case 't':
		return "clock-step"
	case 'a':
		return "ack"
	}
	return fmt.Sprintf("%c(%d)", in.kind, in.node)
}

func scopeInputs() []bookInput {
	var ins []bookInput
	for n := 0; n < scopeNodes; n++ {
		for s := uint32(0); s < 3; s++ {
			ins = append(ins, bookInput{'q', n, s, false}, bookInput{'q', n, s, true})
		}
		ins = append(ins, bookInput{kind: 'r', node: n}, bookInput{kind: 's', node: n}, bookInput{kind: 'c', node: n})
	}
	return append(ins, bookInput{kind: 't'}, bookInput{kind: 'a'})
}

// bookWorld is one lock book under test and its recording sink.
type bookWorld struct {
	rec  *bookRec
	book *lockBook
}

func newBookWorld(quorum bool) *bookWorld {
	rec := &bookRec{clock: scopeT0, quorum: quorum}
	book := lockBook{sink: rec, hdr: wire.Hdr{Group: uint32(tGroup)}, members: []int{0, 1, 2}}
	rec.book = &book
	return &bookWorld{rec: rec, book: &book}
}

// clone copies the world as it stands, with empty logs.
func (w *bookWorld) clone() *bookWorld {
	rec := *w.rec
	rec.frames, rec.events = nil, nil
	book := lockBook{sink: &rec, hdr: w.book.hdr, members: w.book.members}
	ls := *w.ls()
	ls.held.in, ls.queue, ls.pending = slices.Clone(ls.held.in), slices.Clone(ls.queue), slices.Clone(ls.pending)
	*book.locks.at(tLock) = ls
	rec.book = &book
	return &bookWorld{rec: &rec, book: &book}
}

func (w *bookWorld) ls() *lockState { return w.book.lock(tLock) }

func (w *bookWorld) from(node int) wire.Hdr { return wire.Hdr{Group: uint32(tGroup), Src: int32(node)} }

// apply feeds in to the book, reporting false when the input means
// nothing in this state (a release by a non-holder, a second clock step,
// an ack with nothing to commit).
func (w *bookWorld) apply(in bookInput) bool {
	ls := w.ls()
	var m wire.Message
	switch in.kind {
	case 'q':
		dl := int64(0)
		if in.deadline {
			dl = scopeT0.Add(time.Second).UnixNano()
		}
		m = w.from(in.node).LockReq(uint32(tLock), uint32(in.node+1), in.session, dl)
	case 'r', 's':
		h := ls.held.find(in.node)
		if h == nil && in.kind == 'r' {
			return false
		}
		e := ls.epoch // a non-holder's release quotes an entry of the past
		if h != nil {
			e = h.epoch
			if in.kind == 's' {
				e--
			}
		}
		m = w.from(in.node).LockRel(uint32(tLock), e, ls.held.session)
	case 'c':
		m = w.from(in.node).LockCancel(uint32(tLock))
	case 't':
		if !w.rec.clock.Equal(scopeT0) {
			return false
		}
		w.rec.clock = scopeT0.Add(2 * time.Second)
		return true
	case 'a':
		if !w.rec.quorum || w.rec.cm >= w.rec.sq {
			return false
		}
		w.rec.cm = w.rec.sq
		w.book.resume()
		return true
	}
	w.book.step(&m)
	return true
}

// scopeKey is the state a future of the book depends on: its record, the
// clock, where the watermarks stand against each other, and what has
// been announced.
type scopeKey struct {
	session                   uint32
	held                      [scopeNodes]holder
	queue                     [scopeNodes]lockWaiter
	pending                   [scopeNodes]int // node+1, so node 0 is not the zero value
	epoch, foreign, newest    uint32
	winner                    int
	lastSession               uint32
	parks, acks, clockStepped bool
	announced                 [scopeNodes]uint32 // of the holders
}

func (w *bookWorld) key() scopeKey {
	ls := w.ls()
	k := scopeKey{
		session: ls.held.session, epoch: ls.epoch, foreign: ls.foreignEpoch, newest: w.rec.newest,
		winner: ls.lastWinner, lastSession: ls.lastSession,
		parks: w.rec.cm < ls.needSeq, acks: w.rec.cm < w.rec.sq, clockStepped: !w.rec.clock.Equal(scopeT0),
	}
	copy(k.held[:], ls.held.in)
	copy(k.queue[:], ls.queue)
	for i, p := range ls.pending {
		k.pending[i] = p + 1
	}
	for _, h := range ls.held.in {
		k.announced[h.node] = w.rec.announced[h.node]
	}
	return k
}

// check reports what is wrong with the state the book is in.
func (w *bookWorld) check() error {
	ls := w.ls()
	switch {
	case len(w.rec.bad) > 0:
		return fmt.Errorf("%s", w.rec.bad[0])
	case ls.held.session == 0 && len(ls.held.in) > 1:
		return fmt.Errorf("%d holders in an exclusive section: %v", len(ls.held.in), ls.held.in)
	case w.rec.gauge != len(ls.held.in):
		return fmt.Errorf("holders gauge reads %d, the books hold %d", w.rec.gauge, len(ls.held.in))
	case len(w.rec.sent) > 0 || w.rec.errs > 0:
		return fmt.Errorf("sent %v with leasing off and the reign unfenced, %d protocol errors", w.rec.sent, w.rec.errs)
	}
	for i, q := range ls.queue {
		if ls.holds(q.node) || ls.waiting(q.node) != i {
			return fmt.Errorf("node %d queued twice, or queued while in: holders %v queue %v", q.node, ls.held.in, ls.queue)
		}
	}
	for _, p := range ls.pending {
		if !ls.holds(p) {
			return fmt.Errorf("parked entry of node %d is not on the books: %v", p, ls.held.in)
		}
	}
	if (len(ls.pending) == 0) != ls.deferredAt.IsZero() {
		return fmt.Errorf("park stamp %v with %d entries parked", ls.deferredAt, len(ls.pending))
	}
	return nil
}

// drain releases every holder in turn — the commit watermark catching up
// first, as a parked holder learns of its grant only then — until the
// lock comes to rest free, and checks that no waiter was lost: each one
// queued, and each entry parked, when it began was granted exactly once,
// except the waiters whose deadline had passed, which were dropped
// exactly once with deadline-drop; nobody else was granted anything.
func (w *bookWorld) drain() error {
	ls := w.ls()
	want := map[int]obs.EventType{}
	for _, q := range ls.queue {
		want[q.node] = obs.EvLockGrant
		if q.deadline != 0 && q.deadline <= w.rec.clock.UnixNano() {
			want[q.node] = obs.EvDeadlineDrop
		}
	}
	for _, p := range ls.pending {
		want[p] = obs.EvLockGrant
	}
	from := len(w.rec.events)
	for round := 0; !ls.free() || len(ls.queue) > 0; round++ {
		if round > 2*scopeNodes {
			return fmt.Errorf("the lock never came to rest: holders %v queue %v pending %v", ls.held.in, ls.queue, ls.pending)
		}
		w.apply(bookInput{kind: 'a'})
		for _, h := range slices.Clone(ls.held.in) {
			w.apply(bookInput{kind: 'r', node: h.node})
		}
	}
	got := map[int]map[obs.EventType]int{}
	for _, e := range w.rec.events[from:] {
		if e.Type == obs.EvLockGrant || e.Type == obs.EvDeadlineDrop {
			if got[int(e.B)] == nil {
				got[int(e.B)] = map[obs.EventType]int{}
			}
			got[int(e.B)][e.Type]++
		}
	}
	for node := 0; node < scopeNodes; node++ {
		grants, drops := got[node][obs.EvLockGrant], got[node][obs.EvDeadlineDrop]
		wantGrants, wantDrops := 0, 0
		switch want[node] {
		case obs.EvLockGrant:
			wantGrants = 1
		case obs.EvDeadlineDrop:
			wantDrops = 1
		}
		if grants != wantGrants || drops != wantDrops {
			return fmt.Errorf("draining granted node %d %d times and dropped it %d times, want %d and %d", node, grants, drops, wantGrants, wantDrops)
		}
	}
	return w.check()
}

// TestLockBookSmallScope checks the lock book alone over every input
// sequence of a small scope, breadth first, each state once at the depth
// it is first reached: three nodes and one lock; requests in sessions 0-2,
// with and without a deadline; releases quoting the entry epoch or a
// stale one; cancels; one clock step past the deadlines; and quorum-ack
// parking off and on, the commit watermark catching up as one more
// input. In every state it checks that an exclusive section has at most
// one holder (one holder set means one open session), that announced
// entries name a holder on the books at the announced epoch with epochs
// strictly increasing, and that no waiter is lost (drain); each input
// also must keep the group-mutual-exclusion fairness rule — once a
// foreign session is queued, no later request joins the open session
// ahead of it — and a stale release must change nothing.
func TestLockBookSmallScope(t *testing.T) {
	inputs := scopeInputs()
	for _, quorum := range []bool{false, true} {
		t.Run(fmt.Sprintf("quorum=%v", quorum), func(t *testing.T) {
			type state struct {
				path []bookInput
				w    *bookWorld
			}
			seen := map[scopeKey]bool{newBookWorld(quorum).key(): true}
			frontier := []state{{nil, newBookWorld(quorum)}}
			for depth := 1; depth <= scopeDepth && len(frontier) > 0; depth++ {
				var next []state
				for _, from := range frontier {
					for _, in := range inputs {
						w := from.w.clone()
						ls := w.ls()
						var before string
						if in.kind == 's' {
							before = fmt.Sprintf("%+v", *ls)
						}
						foreign := !ls.free() && slices.ContainsFunc(ls.queue, func(q lockWaiter) bool { return !shares(q.session, ls.held.session) })
						wasIn := ls.holds(in.node)
						if !w.apply(in) {
							continue
						}
						path := append(slices.Clone(from.path), in)
						fail := func(format string, args ...any) {
							t.Fatalf("after %v: %s", path, fmt.Sprintf(format, args...))
						}
						if in.kind == 's' && (fmt.Sprintf("%+v", *ls) != before || len(w.rec.frames)+len(w.rec.events) > 0) {
							fail("a stale release changed the books: %s -> %+v", before, *ls)
						}
						if in.kind == 'q' && foreign && !wasIn && ls.holds(in.node) {
							fail("node %d joined session %d ahead of a queued foreign session: %v", in.node, in.session, ls.queue)
						}
						if err := w.check(); err != nil {
							fail("%v", err)
						}
						k := w.key()
						if seen[k] {
							continue
						}
						seen[k] = true
						if err := w.clone().drain(); err != nil {
							fail("%v", err)
						}
						next = append(next, state{path, w})
					}
				}
				frontier = next
			}
			t.Logf("%d states visited to depth %d", len(seen), scopeDepth)
		})
	}
}
