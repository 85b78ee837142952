package transport

import (
	"math/rand"
	"sync"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// FaultPlan configures the Flaky wrapper's misbehaviour. Probabilities
// are per message, in [0,1].
type FaultPlan struct {
	// DropRate silently discards sent messages.
	DropRate float64
	// DupRate delivers a second copy of a message. The duplicate rolls
	// the delay dice independently, so it may arrive reordered behind
	// later traffic.
	DupRate float64
	// DelayRate holds a message back for Delay before delivery,
	// reordering it behind later traffic.
	DelayRate float64
	// CorruptRate flips one random bit in a message's encoded payload
	// before delivery, modeling transport-level bit rot. The corrupted
	// bytes are run back through the wire codec: a decode error counts
	// as caught (the frame is discarded like a drop, and the receiver's
	// NACK/retry machinery recovers it); a successful decode counts as
	// missed and the corrupted message is delivered — with CRC-trailed
	// frames that should never happen, which is exactly what the chaos
	// tests assert.
	CorruptRate float64
	// Delay is how long a delayed message is held.
	Delay time.Duration
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Spare exempts message types from the probabilistic faults (empty
	// means none spared). NACKs are typically spared so loss recovery
	// itself stays reliable when testing data-plane faults. Crash and
	// partition faults ignore Spare: a dead node drops everything.
	Spare []wire.Type
	// DownOnly restricts faults to the root-to-member frames whose loss a
	// retry repairs (wire's Repairable): the sequenced multicast, which
	// the GWC runtime repairs with NACK-driven retransmission, and the
	// rejoin/sync answers, which the requester re-requests every
	// maintenance tick. Up-path messages (update, lock request/release,
	// NACK, ack, join/sync requests) pass through untouched, matching
	// the paper's reliable member-to-root links.
	DownOnly bool
}

// spares reports whether the plan exempts t from probabilistic faults. On
// a pointer: a value receiver would copy the plan, CorruptRate included,
// outside the lock Corrupt writes it under.
func (p *FaultPlan) spares(t wire.Type) bool {
	for _, s := range p.Spare {
		if s == t {
			return true
		}
	}
	return false
}

// FaultEvent is one step of a scripted fault schedule: after After has
// elapsed (measured from Run), the listed actions apply.
type FaultEvent struct {
	// After is the delay from the start of the schedule.
	After time.Duration
	// Crash isolates these nodes (see Flaky.Crash).
	Crash []int
	// Revive reconnects these nodes.
	Revive []int
	// PartitionA/PartitionB cut the links between the two sides (both
	// empty means no partition change; see Flaky.Partition).
	PartitionA, PartitionB []int
	// Heal removes all partitions (crashed nodes stay crashed).
	Heal bool
}

// Flaky wraps a Network and injects faults on Send, to exercise the GWC
// runtime's sequence-gap detection, retransmission, and crash-failover
// machinery. Beyond the probabilistic faults of the FaultPlan it offers
// deterministic chaos primitives: Crash/Revive isolate whole nodes and
// Partition cuts the links between two sets of nodes.
type Flaky struct {
	inner Network
	plan  FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	wg      sync.WaitGroup
	crashed map[int]bool
	cuts    map[[2]int]bool // partitioned (a,b) pairs, stored both ways

	dropped    int
	duplicated int
	delayed    int
	isolated   int // messages cut by crash/partition

	corrupted     int // bit-flips injected
	corruptCaught int // rejected by the codec checksum
	corruptMissed int // decoded cleanly and delivered corrupt
}

var _ Network = (*Flaky)(nil)

// NewFlaky wraps inner with the given fault plan.
func NewFlaky(inner Network, plan FaultPlan) *Flaky {
	return &Flaky{
		inner:   inner,
		plan:    plan,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		crashed: make(map[int]bool),
		cuts:    make(map[[2]int]bool),
	}
}

// Size implements Network.
func (f *Flaky) Size() int { return f.inner.Size() }

// Endpoint implements Network.
func (f *Flaky) Endpoint(id int) (Endpoint, error) {
	ep, err := f.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &flakyEndpoint{net: f, id: id, inner: ep}, nil
}

// Close implements Network. It waits for any delayed messages to flush.
func (f *Flaky) Close() error {
	f.wg.Wait()
	return f.inner.Close()
}

// Stats reports how many messages were dropped, duplicated, and delayed
// by the probabilistic faults.
func (f *Flaky) Stats() (dropped, duplicated, delayed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped, f.duplicated, f.delayed
}

// TransportStats surfaces the wrapped network's transport counters when
// it keeps any (the TCP mesh and InProc do); a zero snapshot otherwise.
func (f *Flaky) TransportStats() obs.TransportStats {
	if ts, ok := f.inner.(interface{ TransportStats() obs.TransportStats }); ok {
		return ts.TransportStats()
	}
	return obs.TransportStats{}
}

// Corrupt sets the bit-flip corruption rate at runtime, so a soak can
// turn corruption on mid-workload (or off for a clean wind-down).
func (f *Flaky) Corrupt(rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan.CorruptRate = rate
}

// CorruptStats reports the corruption outcomes: injected bit-flips,
// frames the codec checksum caught (discarded and recovered by retry),
// and frames that decoded cleanly despite the flip (delivered corrupt
// — silent acceptance, which checksummed frames should make
// impossible).
func (f *Flaky) CorruptStats() (injected, caught, missed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corrupted, f.corruptCaught, f.corruptMissed
}

// Isolated reports how many messages were cut by crashes or partitions.
func (f *Flaky) Isolated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.isolated
}

// Crash isolates a node: every message to or from it is silently
// dropped until Revive. The node's goroutines keep running (this is a
// network-level crash simulation), so a "revived" node models a
// rebooted machine rejoining with stale state.
func (f *Flaky) Crash(node int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[node] = true
}

// Revive reconnects a crashed node. Reconnection restores links only;
// the node's protocol state is whatever it held at crash time, which
// after a long outage or a root failover is arbitrarily stale. A node
// that missed less than the root's retransmission window catches up by
// itself (NACK repair, or a snapshot once the root's heartbeat shows it
// has fallen past the window); a deposed ex-root is demoted and resyncs
// on first contact; and a revived member can be told to gwc.Rejoin to
// discard its stale state outright and be re-admitted at the current
// epoch — the path chaos tests should exercise for "rebooted machine"
// semantics.
func (f *Flaky) Revive(node int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.crashed, node)
}

// Partition cuts every link between the nodes of a and the nodes of b
// (both directions). Links within each side are unaffected. Partitions
// accumulate until Heal.
func (f *Flaky) Partition(a, b []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			f.cuts[[2]int{x, y}] = true
			f.cuts[[2]int{y, x}] = true
		}
	}
}

// Heal removes all partitions. Crashed nodes stay crashed.
func (f *Flaky) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts = make(map[[2]int]bool)
}

// Run plays a scripted fault schedule in the background and returns a
// channel that closes when the last event has fired.
func (f *Flaky) Run(schedule []FaultEvent) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, ev := range schedule {
			if d := ev.After - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			if ev.Heal {
				f.Heal()
			}
			for _, n := range ev.Crash {
				f.Crash(n)
			}
			for _, n := range ev.Revive {
				f.Revive(n)
			}
			if len(ev.PartitionA) > 0 || len(ev.PartitionB) > 0 {
				f.Partition(ev.PartitionA, ev.PartitionB)
			}
		}
	}()
	return done
}

// cut reports (under the lock) whether the link from -> to is severed by
// a crash or partition, counting the message if so.
func (f *Flaky) cut(from, to int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed[from] || f.crashed[to] || f.cuts[[2]int{from, to}] {
		f.isolated++
		return true
	}
	return false
}

// roll draws a uniform [0,1) sample under the lock.
func (f *Flaky) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// corruptRate reads the corruption rate under the lock; unlike the
// other plan fields it is mutable at runtime via Corrupt.
func (f *Flaky) corruptRate() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan.CorruptRate
}

type flakyEndpoint struct {
	net   *Flaky
	id    int
	inner Endpoint
}

// sendFunc is how a frame leaves for the wrapped endpoint: Endpoint.Send,
// or pushVia when the caller pushed.
type sendFunc func(ep Endpoint, to int, m wire.Message) error

// pushVia is Push for a frame the fault path already holds by value.
func pushVia(ep Endpoint, to int, m wire.Message) error { return Push(ep, to, &m) }

// deliver sends one copy of m, rolling the delay dice first so both the
// original and any duplicate can be independently reordered.
func (e *flakyEndpoint) deliver(to int, m wire.Message, via sendFunc) error {
	f := e.net
	if f.plan.DelayRate > 0 && f.roll() < f.plan.DelayRate {
		f.mu.Lock()
		f.delayed++
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			time.Sleep(f.plan.Delay)
			// Delivery into a closed mailbox is a benign race during
			// shutdown; the error is intentionally discarded.
			_ = via(e.inner, to, m)
		}()
		return nil
	}
	return via(e.inner, to, m)
}

func (e *flakyEndpoint) Send(to int, m wire.Message) error {
	return e.send(to, m, Endpoint.Send)
}

// push forwards the capability: the same faults, and what survives them
// is pushed.
func (e *flakyEndpoint) push(to int, m *wire.Message) error {
	return e.send(to, *m, pushVia)
}

func (e *flakyEndpoint) send(to int, m wire.Message, via sendFunc) error {
	f := e.net
	// Crashes and partitions sever the link outright: even spared types
	// cannot cross a dead wire.
	if f.cut(e.id, to) {
		return nil
	}
	if f.plan.spares(m.Type) {
		return via(e.inner, to, m)
	}
	if f.plan.DownOnly && !m.Repairable() {
		return via(e.inner, to, m)
	}
	if f.plan.DropRate > 0 && f.roll() < f.plan.DropRate {
		f.mu.Lock()
		f.dropped++
		f.mu.Unlock()
		return nil
	}
	if r := f.corruptRate(); r > 0 && f.roll() < r {
		return e.corrupt(to, m, via)
	}
	if err := e.deliver(to, m, via); err != nil {
		return err
	}
	if f.plan.DupRate > 0 && f.roll() < f.plan.DupRate {
		f.mu.Lock()
		f.duplicated++
		f.mu.Unlock()
		return e.deliver(to, m, via)
	}
	return nil
}

// rawSender is the transport back door fault injection uses to put
// literal bytes on the wire: the TCP endpoints implement it, so a
// corrupted frame really crosses the socket and the remote reader's
// decode path — not a local simulation of it.
type rawSender interface {
	SendEncoded(to int, frame []byte) error
}

// corrupt encodes m, flips one random bit, and ships the damage. When
// the inner endpoint exposes a raw-bytes path (TCP), the corrupt frame
// is sent verbatim over the real wire and the receiver's decoder — with
// its DecodeErrors accounting and skip-or-reset classification — deals
// with it end to end. Otherwise (InProc, detsim pass structs around)
// the bytes are run back through the codec locally, faithfully modeling
// what a byte-stream receiver would see. Either way a decode error
// means the checksum caught the flip: the frame is discarded like a
// drop and the usual retry machinery recovers it. A clean decode means
// silent acceptance: the corrupted message is delivered, and the
// corruptMissed counter convicts the codec.
func (e *flakyEndpoint) corrupt(to int, m wire.Message, via sendFunc) error {
	f := e.net
	buf := wire.Encode(nil, m)
	f.mu.Lock()
	bit := f.rng.Intn(len(buf) * 8)
	f.corrupted++
	f.mu.Unlock()
	buf[bit/8] ^= 1 << (bit % 8)
	// Classify locally either way, so CorruptStats stays comparable
	// between transports.
	dm, err := wire.Decode(buf)
	if err != nil {
		f.mu.Lock()
		f.corruptCaught++
		f.mu.Unlock()
	} else {
		f.mu.Lock()
		f.corruptMissed++
		f.mu.Unlock()
	}
	if rs, ok := e.inner.(rawSender); ok {
		return rs.SendEncoded(to, buf)
	}
	if err != nil {
		return nil
	}
	return e.deliver(to, dm, via)
}

func (e *flakyEndpoint) Recv() (wire.Message, bool) { return e.inner.Recv() }

func (e *flakyEndpoint) recvBatch(spare []wire.Message) ([]wire.Message, bool) {
	return RecvBatch(e.inner, spare)
}

func (e *flakyEndpoint) deliverTo(h func([]wire.Message)) bool {
	return DeliverTo(e.inner, h)
}

func (e *flakyEndpoint) Close() error { return e.inner.Close() }
