// Package transport moves wire messages between the nodes of a live GWC
// cluster. Three implementations are provided:
//
//   - InProc: goroutine-to-goroutine delivery through unbounded mailboxes,
//     the default for single-process clusters and tests.
//   - TCP: a full mesh of TCP connections with the wire codec, for
//     clusters spanning processes or hosts.
//   - Flaky: a fault-injecting wrapper (drop, duplicate, reorder) used to
//     exercise the runtime's gap detection and retransmission.
//
// In Sesame the spanning-tree interfaces route, sequence, and retransmit
// sharing messages in hardware; here the transport provides point-to-point
// delivery and the gwc package implements sequencing and retransmission in
// software (the substitution is recorded in DESIGN.md).
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// Send delivers m to node `to`. It must not block indefinitely on a
	// slow receiver (the GWC root fans out to every member; a blocking
	// fanout could deadlock the sequencer).
	Send(to int, m wire.Message) error
	// Recv blocks until a message arrives or the endpoint closes, in
	// which case ok is false.
	Recv() (m wire.Message, ok bool)
	// Close shuts the endpoint; pending and future Recv calls return
	// ok=false.
	Close() error
}

// batchReceiver is the optional capability behind RecvBatch: an endpoint
// whose inbox can hand over everything queued in one swap.
type batchReceiver interface {
	recvBatch(spare []wire.Message) (batch []wire.Message, ok bool)
}

// RecvBatch blocks until at least one message has arrived, then returns
// everything the endpoint has queued, in arrival order; ok is false once
// the endpoint is closed and emptied. spare is the previous batch handed
// back for recycling — the endpoint may keep it as its next queue, so
// the caller must not touch it afterwards — and is zeroed first, so a
// consumed batch frame's inner slice is not pinned until the slot is
// overwritten a lap later. An endpoint without the capability (detsim's,
// a decorator written against Endpoint alone) yields one-message batches
// from Recv, so Endpoint keeps its three methods and this is the only
// place that asks.
func RecvBatch(ep Endpoint, spare []wire.Message) (batch []wire.Message, ok bool) {
	clear(spare)
	if br, can := ep.(batchReceiver); can {
		return br.recvBatch(spare)
	}
	m, ok := ep.Recv()
	if !ok {
		return nil, false
	}
	return append(spare[:0], m), true
}

// runDeliverer is the optional capability behind DeliverTo: an endpoint
// whose link readers can call the consumer themselves instead of queueing
// for Recv.
type runDeliverer interface {
	deliverTo(h func(run []wire.Message)) bool
}

// DeliverTo asks ep to hand what its links receive straight to h, on the
// goroutine that read it off the link, and reports whether it will. Each
// call carries one link's next frames in link order — everything one
// socket read brought in — and the slice is the reader's own: h may read
// it in place but must keep nothing of it past its return. Links call h
// concurrently; the order across links is not defined (it never was: two
// readers raced into one inbox). A reader that is inside h is not reading
// its socket, so an h that blocks pushes back on that link alone, through
// TCP, into the sender's bounded outbox. Close returns only after every
// reader has left h.
//
// What no link carries still goes through Recv: a self-send (the caller
// may hold whatever h takes, so it must queue) and anything that arrived
// before the call; the consumer keeps its receive loop for those.
// Register once, before traffic. Only the TCP endpoint has the capability
// (and Flaky forwards it): InProc has no link reader to lend — its way of
// skipping the inbox is the sender's own goroutine, which may block on
// nothing, so it is a capability of its own (Push, ConsumeInPlace) — and
// detsim's endpoint and decorators written against Endpoint alone are
// left exactly as they were: false means nothing changed and
// Recv/RecvBatch see every message. This is the only place that asks.
func DeliverTo(ep Endpoint, h func(run []wire.Message)) bool {
	if rd, can := ep.(runDeliverer); can {
		return rd.deliverTo(h)
	}
	return false
}

// pusher is the optional capability behind Push and ConsumeInPlace: an
// endpoint whose sends can run the destination's consumer on the
// sender's goroutine.
type pusher interface {
	push(to int, m wire.Message) error
	consumeInPlace(h func(run []wire.Message) bool) bool
}

// Push is Send for a frame the sender would rather apply at the
// destination itself than wake the destination for: if the destination
// registered a consumer (ConsumeInPlace), has nothing queued and is not
// consuming right now, the consumer runs on the caller's goroutine, under
// whatever the caller holds; in every other case — and on every endpoint
// without the capability — it is Send. Either way everything this sender
// sent to `to` earlier has been consumed in full before m is, so a link
// stays FIFO however its frames mix the two calls.
func Push(ep Endpoint, to int, m wire.Message) error {
	if p, can := ep.(pusher); can {
		return p.push(to, m)
	}
	return ep.Send(to, m)
}

// ConsumeInPlace registers h as the consumer Push may run for frames
// addressed to ep, and reports whether ep can. h is called with a run of
// one message, on a goroutine that is not ep's owner's and may hold any
// lock of its own, so it must not block: it takes what it needs with a
// try-lock and returns false to decline, which queues the run for
// Recv/RecvBatch as if it had been sent. The slice is the endpoint's: h
// reads it in place and keeps nothing of it. No two calls of h overlap,
// and none overlaps the owner's handling of what it last received (the
// endpoint takes that to end when the owner comes back to receive).
// Register once, before traffic. Close does not wait for an h in
// progress, but the owner's receive call does before it reports the
// endpoint closed, so an owner that waits for its receive loop to end
// has waited for h too. Only InProc has the capability (and Flaky
// forwards it).
func ConsumeInPlace(ep Endpoint, h func(run []wire.Message) bool) bool {
	if p, can := ep.(pusher); can {
		return p.consumeInPlace(h)
	}
	return false
}

// Network hands out the endpoints of an n-node cluster.
type Network interface {
	// Size is the number of nodes.
	Size() int
	// Endpoint returns node id's endpoint. Each node must call this
	// exactly once.
	Endpoint(id int) (Endpoint, error)
	// Close shuts the whole network down.
	Close() error
}

// mailbox is a FIFO with blocking receive, unbounded by default. The
// unbounded default is deliberate: the group root multicasts every
// sequenced write to every member, and blocking the producer on a full
// queue would let one slow member block the sequencer for the whole
// group (the paper's hardware interfaces buffer in memory for the same
// reason). Where unbounded growth is a liability instead — a TCP peer's
// outbox behind a dead-slow link — newBoundedMailbox caps the queue and
// sheds the oldest entries, which the GWC layer's NACK/retry recovery
// treats exactly like network loss. "A slow peer never blocks the
// caller" holds either way; only the memory story differs.
type mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	// The live entries are queue[head:]. Popping advances head instead
	// of re-slicing the front (queue = queue[1:] permanently forfeits
	// the popped slot's capacity, so a steady-state consumer would
	// reallocate the backing array on every lap); put compacts the live
	// tail down to index 0 only when append would otherwise grow the
	// array, which amortizes to O(1) copies per element.
	queue []T
	head  int

	// bound caps the live entry count (0 = unbounded); overflow evicts
	// the oldest entries and counts them into drops.
	bound int
	drops *atomic.Uint64

	// The in-place path (offer). consumer is what a producer may run
	// itself. At most one of receiving and producing is set, and says who
	// is consuming right now: the receiver, from taking a batch until it
	// comes back for the next, or a producer inside consumer. slot holds
	// that producer's one-message run, so the flag owns it and nothing is
	// allocated. inPlace, queued and declined count how offers ended: the
	// consumer ran; it was never asked (a backlog, or somebody consuming);
	// it was asked and said no.
	consumer                  func(run []T) bool
	receiving, producing      bool
	slot                      [1]T
	inPlace, queued, declined uint64
}

func newMailbox[T any]() *mailbox[T] {
	mb := &mailbox[T]{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// newBoundedMailbox builds a mailbox that holds at most bound entries,
// dropping the oldest on overflow and counting each eviction into drops.
func newBoundedMailbox[T any](bound int, drops *atomic.Uint64) *mailbox[T] {
	mb := newMailbox[T]()
	mb.bound = bound
	mb.drops = drops
	return mb
}

// put enqueues m and wakes the consumer. The wake-up comes after the
// unlock, so the woken consumer does not collide with the producer on the
// lock it was just handed; none is lost, because a consumer registers on
// the condition's notify list before it releases mb.mu.
func (mb *mailbox[T]) put(m T) error {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return ErrClosed
	}
	mb.push(m)
	mb.mu.Unlock()
	mb.cond.Signal()
	return nil
}

// putAll enqueues ms in order under one lock acquisition and one
// wake-up — what a producer that already holds a run of messages (a TCP
// reader after one socket read) pays instead of a lock, a signal and a
// consumer wake per message. The bound applies exactly as in put.
func (mb *mailbox[T]) putAll(ms []T) error {
	if len(ms) == 0 {
		return nil
	}
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return ErrClosed
	}
	for _, m := range ms {
		mb.push(m)
	}
	mb.mu.Unlock()
	mb.cond.Signal()
	return nil
}

// offer hands m to the registered consumer on the caller's goroutine when
// nothing is queued and nobody is consuming, and is put otherwise or when
// the consumer declines. Whatever the caller put or offered earlier was
// therefore consumed in full before m is: it left the queue before the
// check (the queue is FIFO), and its consumer returned before the flag
// it ran under was cleared.
func (mb *mailbox[T]) offer(m T) error {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return ErrClosed
	}
	asked, took := false, false
	if mb.consumer != nil && mb.head == len(mb.queue) && !mb.receiving && !mb.producing {
		asked = true
		mb.producing = true
		mb.slot[0] = m
		mb.mu.Unlock()
		took = mb.consumer(mb.slot[:])
		mb.mu.Lock()
		clear(mb.slot[:])
		mb.producing = false
	}
	switch {
	case took:
		mb.inPlace++
	case asked:
		mb.declined++
	default:
		mb.queued++
	}
	if !took {
		mb.push(m)
	}
	// The receiver sleeps through an in-place run; it is woken only for
	// what queued up meanwhile, or to see the mailbox closed.
	wake := mb.head != len(mb.queue) || mb.closed
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
	return nil
}

// push appends one entry, shedding the oldest first when the mailbox is
// at its bound. Caller holds mb.mu.
func (mb *mailbox[T]) push(m T) {
	if live := len(mb.queue) - mb.head; mb.bound > 0 && live >= mb.bound {
		// Shed an eighth of the queue at once so the eviction cost
		// amortizes to O(1) per put even when the queue stays saturated.
		evict := max(1, mb.bound/8)
		if evict > live {
			evict = live
		}
		var zero T
		for i := mb.head; i < mb.head+evict; i++ {
			mb.queue[i] = zero
		}
		mb.head += evict
		mb.drops.Add(uint64(evict))
	}
	if len(mb.queue) == cap(mb.queue) && mb.head > 0 {
		// Reclaim the popped prefix before append would grow the array.
		n := copy(mb.queue, mb.queue[mb.head:])
		clear(mb.queue[n:])
		mb.queue = mb.queue[:n]
		mb.head = 0
	}
	mb.queue = append(mb.queue, m)
}

// await blocks the receiver until it may take from the queue: something
// is queued and no producer is inside the consumer. Coming back is how
// the receiver says it is done with what it took last. False once the
// mailbox is closed and emptied. Caller holds mb.mu.
func (mb *mailbox[T]) await() bool {
	mb.receiving = false
	for mb.producing || (mb.head == len(mb.queue) && !mb.closed) {
		mb.cond.Wait()
	}
	mb.receiving = mb.head != len(mb.queue)
	return mb.receiving
}

func (mb *mailbox[T]) get() (T, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var zero T
	if !mb.await() {
		return zero, false
	}
	m := mb.queue[mb.head]
	mb.queue[mb.head] = zero // release any references the slot held
	mb.head++
	if mb.head == len(mb.queue) {
		mb.queue = mb.queue[:0]
		mb.head = 0
	}
	return m, true
}

// drain blocks until the mailbox is non-empty (or closed), then hands
// the caller the whole queue in one swap. spare becomes the new backing
// queue, so a consumer that recycles the previous batch keeps the
// steady state allocation-free. ok is false once the mailbox is closed
// and emptied.
func (mb *mailbox[T]) drain(spare []T) (batch []T, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if !mb.await() {
		return nil, false
	}
	batch = mb.queue[mb.head:]
	mb.queue = spare[:0]
	mb.head = 0
	return batch, true
}

func (mb *mailbox[T]) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// InProc is an in-process network: node i's sends go straight into node
// j's mailbox.
type InProc struct {
	boxes []*mailbox[wire.Message]
}

var _ Network = (*InProc)(nil)

// NewInProc builds an in-process network for n nodes.
func NewInProc(n int) (*InProc, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: in-proc network needs >= 1 node, got %d", n)
	}
	boxes := make([]*mailbox[wire.Message], n)
	for i := range boxes {
		boxes[i] = newMailbox[wire.Message]()
	}
	return &InProc{boxes: boxes}, nil
}

// Size implements Network.
func (p *InProc) Size() int { return len(p.boxes) }

// Endpoint implements Network.
func (p *InProc) Endpoint(id int) (Endpoint, error) {
	if id < 0 || id >= len(p.boxes) {
		return nil, fmt.Errorf("transport: endpoint %d out of range [0,%d)", id, len(p.boxes))
	}
	return &inProcEndpoint{net: p, id: id}, nil
}

// Close implements Network.
func (p *InProc) Close() error {
	for _, b := range p.boxes {
		b.close()
	}
	return nil
}

// TransportStats reports how the network's pushes ended: run in place at
// the destination; queued like a send without the consumer being asked
// (something was queued ahead, a consumer was active or none was
// registered); or offered to the consumer, declined, and then queued.
func (p *InProc) TransportStats() obs.TransportStats {
	var s obs.TransportStats
	for _, b := range p.boxes {
		b.mu.Lock()
		s.PushedInPlace += b.inPlace
		s.PushedQueued += b.queued
		s.PushedDeclined += b.declined
		b.mu.Unlock()
	}
	return s
}

type inProcEndpoint struct {
	net *InProc
	id  int
}

func (e *inProcEndpoint) Send(to int, m wire.Message) error { return e.send(to, m, false) }

func (e *inProcEndpoint) push(to int, m wire.Message) error { return e.send(to, m, true) }

func (e *inProcEndpoint) send(to int, m wire.Message, inPlace bool) error {
	if to < 0 || to >= len(e.net.boxes) {
		return fmt.Errorf("transport: send to %d out of range [0,%d)", to, len(e.net.boxes))
	}
	if inPlace {
		return e.net.boxes[to].offer(m)
	}
	return e.net.boxes[to].put(m)
}

func (e *inProcEndpoint) consumeInPlace(h func(run []wire.Message) bool) bool {
	mb := e.net.boxes[e.id]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.consumer = h
	return true
}

func (e *inProcEndpoint) Recv() (wire.Message, bool) {
	return e.net.boxes[e.id].get()
}

func (e *inProcEndpoint) recvBatch(spare []wire.Message) ([]wire.Message, bool) {
	return e.net.boxes[e.id].drain(spare)
}

func (e *inProcEndpoint) Close() error {
	e.net.boxes[e.id].close()
	return nil
}
