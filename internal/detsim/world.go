// Package detsim runs the real GWC runtime (internal/gwc, not the
// internal/model toy) under a deterministic, seeded scheduler: a virtual
// clock plus an in-memory transport whose every delivery, drop,
// duplication, and timer firing is chosen by one seeded random walk.
// The same seed therefore replays the same execution bit for bit, so
// any failure an exploration run finds reproduces from its seed alone.
//
// The scheduler advances the world one event at a time, and only at
// quiescence: it waits until every node goroutine is parked (blocked in
// Recv with an empty inbox, with no fired-but-unprocessed timer), then
// picks the next event — deliver the head of some link, drop or
// duplicate it, or advance virtual time to the earliest armed timer.
// Between events the whole cluster is at rest, so scenario scripts can
// read node state, issue non-blocking protocol operations, and inject
// faults without racing the protocol.
//
// Determinism rests on three properties, each enforced elsewhere:
// gwc nodes schedule every timeout on an injected vclock.Clock; gwc
// sorts every map iteration that emits messages; and each (src,dst)
// link is FIFO, matching the in-process transport the protocol's
// ordering assumptions (e.g. sync barriers riding behind flushed
// writes) were built on. Reordering happens across links, never within
// one.
package detsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"optsync/internal/transport"
	"optsync/internal/vclock"
	"optsync/internal/wire"
)

// World is the deterministic network-and-clock a simulated cluster runs
// in. It implements transport.Network; World.Clock supplies the matching
// vclock.Clock. All state is guarded by one mutex shared with the
// endpoints and timers, so the scheduler observes a consistent cut.
type World struct {
	n    int
	opts Options

	mu   sync.Mutex
	cond *sync.Cond

	now          time.Time
	timers       timerHeap
	timerSeq     uint64
	pendingFires int // channel-timer fires not yet Reset/Stopped by their owner

	links   [][]wire.Message // links[from*n+to], FIFO
	eps     []*endpoint
	crashed []bool
	cuts    map[[2]int]bool

	// Scenario-controlled fault probabilities (see Env.SetLoss).
	drop, dup   float64
	drops, dups int
	rng         *rand.Rand
	steps       int
	trace       []Event
	closed      bool
}

// NewWorld builds a deterministic world for n nodes, seeded so every
// scheduling choice is a pure function of seed. Virtual time starts at
// the epoch.
func NewWorld(n int, seed int64, opts Options) *World {
	w := &World{
		n:       n,
		opts:    opts.withDefaults(),
		now:     time.Unix(0, 0),
		links:   make([][]wire.Message, n*n),
		eps:     make([]*endpoint, n),
		crashed: make([]bool, n),
		cuts:    make(map[[2]int]bool),
		rng:     rand.New(rand.NewSource(seed)),
	}
	w.cond = sync.NewCond(&w.mu)
	for i := range w.eps {
		w.eps[i] = &endpoint{w: w, id: i}
	}
	return w
}

// Size implements transport.Network.
func (w *World) Size() int { return w.n }

// Endpoint implements transport.Network.
func (w *World) Endpoint(id int) (transport.Endpoint, error) {
	if id < 0 || id >= w.n {
		return nil, fmt.Errorf("detsim: endpoint %d out of range [0,%d)", id, w.n)
	}
	return w.eps[id], nil
}

// Close implements transport.Network.
func (w *World) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for _, e := range w.eps {
		e.closed = true
	}
	w.cond.Broadcast()
	return nil
}

// Clock returns the virtual clock every node of this world must be
// built with (gwc.NewNodeClock).
func (w *World) Clock() vclock.Clock { return worldClock{w} }

// Trace returns a copy of the event trace so far. Two runs of the same
// scenario from the same seed produce identical traces — the property
// the replay tests pin down.
func (w *World) Trace() []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Event(nil), w.trace...)
}

// Steps reports how many scheduler events have run.
func (w *World) Steps() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.steps
}

// Inflight counts messages queued on links but not yet delivered (or
// dropped); inboxes are empty whenever the world is quiesced, so this
// is the whole of the in-flight traffic at a quiescent cut.
func (w *World) Inflight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for _, l := range w.links {
		total += len(l)
	}
	return total
}

// endpoint is one node's attachment. The inbox holds at most one
// message: the scheduler only delivers at quiescence, and the receiver
// drains before the next event is picked.
type endpoint struct {
	w       *World
	id      int
	inbox   []wire.Message
	waiting bool
	closed  bool
}

func (e *endpoint) Send(to int, m wire.Message) error {
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	if to < 0 || to >= w.n {
		return fmt.Errorf("detsim: send to %d out of range [0,%d)", to, w.n)
	}
	// Crashes and partitions sever the link at send time, matching the
	// Flaky wrapper's semantics: messages already in flight still land.
	if w.crashed[e.id] || w.crashed[to] || w.cuts[[2]int{e.id, to}] {
		return nil
	}
	w.links[e.id*w.n+to] = append(w.links[e.id*w.n+to], m)
	return nil
}

func (e *endpoint) Recv() (wire.Message, bool) {
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if len(e.inbox) > 0 {
			m := e.inbox[0]
			e.inbox = e.inbox[1:]
			return m, true
		}
		if e.closed {
			return wire.Message{}, false
		}
		// Parking here is what the scheduler's quiescence wait watches
		// for; tell it.
		e.waiting = true
		w.cond.Broadcast()
		w.cond.Wait()
		e.waiting = false
	}
}

func (e *endpoint) Close() error {
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	e.closed = true
	w.cond.Broadcast()
	return nil
}

// quiescedLocked reports whether every node goroutine is parked and no
// timer has fired without being re-armed: the cluster cannot take
// another step until the scheduler delivers a message or advances time.
func (w *World) quiescedLocked() bool {
	for _, e := range w.eps {
		if !e.closed && !(e.waiting && len(e.inbox) == 0) {
			return false
		}
	}
	return w.pendingFires == 0
}

// lockAtRest blocks until the cluster is at rest and returns with w.mu
// held, so the caller changes the world between events, never under one.
func (w *World) lockAtRest() {
	w.mu.Lock()
	for !w.quiescedLocked() {
		w.cond.Wait()
	}
}

// waitQuiesce blocks until the cluster is at rest.
func (w *World) waitQuiesce() {
	w.lockAtRest()
	w.mu.Unlock()
}

// ---- virtual clock ----

type worldClock struct{ w *World }

func (c worldClock) Now() time.Time {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.w.now
}

func (c worldClock) NewTimer(d time.Duration) vclock.Timer {
	return c.w.newTimer(d, nil)
}

func (c worldClock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return c.w.newTimer(d, f)
}

// vtimer is one virtual timer. gen invalidates stale heap entries after
// a Stop or Reset (lazy deletion); id is creation order, the
// deterministic tie-break for timers due at the same instant.
type vtimer struct {
	w     *World
	id    uint64
	gen   uint64
	when  time.Time
	armed bool
	fired bool
	ch    chan time.Time
	f     func()
}

func (w *World) newTimer(d time.Duration, f func()) *vtimer {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := &vtimer{w: w, id: w.timerSeq, f: f}
	w.timerSeq++
	if f == nil {
		t.ch = make(chan time.Time, 1)
	}
	w.armLocked(t, d)
	return t
}

func (w *World) armLocked(t *vtimer, d time.Duration) {
	t.gen++
	t.when = w.now.Add(d)
	t.armed = true
	heap.Push(&w.timers, timerEntry{t: t, gen: t.gen, when: t.when, id: t.id})
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	was := t.armed
	t.armed = false
	t.gen++
	t.drainLocked()
	return was
}

func (t *vtimer) Reset(d time.Duration) bool {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	was := t.armed
	t.armed = false
	t.gen++
	t.drainLocked()
	w.armLocked(t, d)
	return was
}

// drainLocked retires a fired-but-unacknowledged tick. The owning
// goroutine calling Stop or Reset is the signal that the fire's effects
// are complete, which is when the scheduler may consider the world
// quiet again.
func (t *vtimer) drainLocked() {
	if !t.fired {
		return
	}
	t.fired = false
	if t.ch != nil {
		select {
		case <-t.ch:
		default:
		}
	}
	t.w.pendingFires--
	t.w.cond.Broadcast()
}

// timerEntry is a heap record; stale ones (gen mismatch) are skipped on
// pop.
type timerEntry struct {
	t    *vtimer
	gen  uint64
	when time.Time
	id   uint64
}

type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].id < h[j].id
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// popDue removes and returns all valid heap entries due at the earliest
// deadline (there may be several: every node arms its maintenance timer
// at construction, so ties are the common case). Caller holds w.mu.
func (w *World) popDue() []timerEntry {
	var due []timerEntry
	for w.timers.Len() > 0 {
		e := heap.Pop(&w.timers).(timerEntry)
		if !e.t.armed || e.t.gen != e.gen {
			continue // stale: stopped or re-armed since pushed
		}
		if len(due) > 0 && !e.when.Equal(due[0].when) {
			heap.Push(&w.timers, e)
			break
		}
		due = append(due, e)
	}
	return due
}

// fire advances virtual time to the entry's deadline and fires it.
// AfterFunc callbacks run synchronously on the scheduler goroutine with
// w.mu released (they re-enter the world through Send and the clock);
// channel timers hand their tick to the owning goroutine and raise
// pendingFires until the owner acknowledges via Stop/Reset.
func (w *World) fire(e timerEntry) {
	t := e.t
	if t.when.After(w.now) {
		w.now = t.when
	}
	t.armed = false
	t.gen++
	if t.f != nil {
		f := t.f
		w.mu.Unlock()
		f()
		w.mu.Lock()
		return
	}
	t.fired = true
	w.pendingFires++
	t.ch <- w.now
	w.cond.Broadcast()
}
