// Package gwc is the live (really concurrent, not simulated) runtime for
// Sesame-style eagersharing with group write consistency:
//
//   - every shared write is applied locally at once and shipped to the
//     group root;
//   - the root sequences all writes in a group and multicasts them, so
//     every member applies the same total order (GWC);
//   - the root doubles as the queue-based lock manager of Section 2: a
//     request writes the negated node ID, the grant writes the positive
//     ID, and -99..99 (Free) means free;
//   - sequence gaps are detected by members and repaired with NACK-driven
//     retransmission from the root's history buffer, standing in for the
//     reliable tree multicast of the Sesame hardware interfaces.
//
// The optimistic mutual exclusion of Section 4 is built on these hooks by
// package core.
package gwc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"optsync/internal/obs"
	"optsync/internal/transport"
	"optsync/internal/vclock"
	"optsync/internal/wire"
)

// Sentinel errors, matchable with errors.Is on anything a Node returns.
var (
	// ErrClosed marks operations that failed because the node shut down.
	ErrClosed = errors.New("node closed")
	// ErrNotMember marks joins by nodes outside the group's member list.
	ErrNotMember = errors.New("not a group member")
	// ErrUnknownGroup marks operations on groups the node never joined.
	ErrUnknownGroup = errors.New("unknown group")
	// ErrNested marks an attempt to enter a lock this node is already
	// inside or acquiring (the paper's line 28: "ERROR(Cannot safely nest
	// mutex lock requests)"). A lock has one holder per node: a second
	// caller would share the first one's request, and both would wake on
	// the one grant.
	ErrNested = errors.New("cannot safely nest mutex lock requests")
	// ErrRolledBack marks a write refused because the speculating section
	// that makes it has been rolled back: it will run again.
	ErrRolledBack = errors.New("write from a rolled-back speculation")
)

// GroupID names a sharing group.
type GroupID uint32

// VarID names an eagerly shared variable within a group.
type VarID uint32

// LockID names a queue-based lock within a group.
type LockID uint32

// Free is the distinguished "lock free" value (the paper's -99..99: a
// unique negative number not matching any processor ID).
const Free int64 = wire.Free

// GrantValue encodes "node holds the lock" as the paper's positive
// processor ID (offset by one so node 0 is nonzero).
func GrantValue(node int) int64 { return wire.GrantValue(node) }

// RequestValue is the negated request form a requester writes into its
// local lock copy.
func RequestValue(node int) int64 { return wire.RequestValue(node) }

// GroupConfig describes one sharing group. All members (and the root)
// must join with identical configuration.
type GroupConfig struct {
	ID      GroupID
	Root    int
	Members []int
	// Guards maps variables in mutex data groups to their lock: the root
	// discards writes to them from non-holders, and origins drop their
	// echoes (hardware blocking).
	Guards map[VarID]LockID
	// HistorySize bounds the root's retransmission buffer (default 4096
	// sequenced messages).
	HistorySize int
}

// indexOf is node id's position in the member list, or -1.
func (c *GroupConfig) indexOf(id int) int {
	for i, m := range c.Members {
		if m == id {
			return i
		}
	}
	return -1
}

// memberOf reports whether node id belongs to the group.
func (c *GroupConfig) memberOf(id int) bool { return c.indexOf(id) >= 0 }

// Stats counts protocol events at one node. Every field is read off the
// node's per-type event counts (Metrics().Trace.Count), which Stats names
// field by field.
type Stats struct {
	Suppressed         int // root: speculative writes discarded
	Duplicates         int // member: re-delivered sequenced messages dropped
	Gaps               int // member: sequence gaps detected
	Nacks              int // member: retransmit requests sent
	Retransmits        int // root: sequenced messages re-sent
	EchoDropped        int // member: own guarded echoes dropped (hardware blocking)
	EchoRestored       int // member: own echoes re-applied after a snapshot re-base rolled the eager store back
	LostHistory        int // root: NACKs it could no longer serve
	LockRequests       int
	LockGrants         int
	LockCancels        int // root: lock requests withdrawn (abort/timeout)
	StaleEpochRejected int // messages rejected for carrying an old root epoch
	Failovers          int // member: promotions of this node to group root
	Demotions          int // root: reigns ended by a newer epoch
	IDRangeDrops       int // messages dropped for naming a lock or variable past the table bound

	// Partition safety and crash recovery (failover.go, rejoin.go).
	Elections      int // member: root-failure elections this node entered
	Fenced         int // root: reigns fenced after losing quorum contact
	Rejoins        int // member: rejoin handshakes completed; root: members re-admitted
	QuorumAckWaits int // root: lock handoffs / sync barriers deferred for quorum acks
	FencedDrops    int // root: messages dropped (or evicted) past the fenced-queue bound

	// Control-plane resilience (backoff.go, watchdog.go, degraded.go).
	WatchdogStuck    int // operations reported past their liveness budget
	WatchdogReissues int // watchdog-forced re-sends / re-services of stuck operations
	DeadlineDrops    int // root: lock requests dropped because the caller's deadline passed
	DegradedReads    int // bounded-staleness reads served while degraded

	// Session locks / group mutual exclusion (root.go).
	SessionOpens  int // root: critical sections opened under a non-zero session
	SessionCloses int // root: non-zero-session sections fully closed (last holder left)
	SessionJoins  int // root: concurrent entries into an already-open session

	// Batched update plane (batch.go).
	Batches      int          // batch frames sent (member flushes, root fan-out, streams)
	Coalesced    int          // member: writes combined into a queued write in-window
	FlushReasons FlushReasons // member: batch flushes by trigger

	// State integrity / anti-entropy (integrity.go).
	DigestSweeps int // root: anti-entropy digest sweeps initiated
	Divergences  int // state-digest mismatches detected (root: per acked watermark; member: self-check or repair directive)
	EagerResends int // member: unconfirmed guarded writes re-shipped to the root (up-path loss recovery)

	// Lock leasing (lease.go).
	LeaseGrants   int // root: leases issued or extended
	LeaseReturns  int // root: leases returned by their holders
	LeaseRevokes  int // root: revoke demands sent to leaseholders
	LeaseLocal    int // member: leased re-acquires decided locally, zero wire messages
	LeaseRenewals int // member: lease renewal requests sent
}

// Node is one processor's memory-sharing interface: it owns the local
// copies of every group it joined, applies sequenced updates in order,
// and (if it is a group's root) sequences traffic and manages locks.
type Node struct {
	id int
	ep transport.Endpoint
	// clock drives every timeout in the node (maintenance ticks, failure
	// detection, batch windows). Production nodes run on the wall clock;
	// deterministic schedule exploration (internal/detsim) injects a
	// virtual one.
	clock vclock.Clock

	mu sync.Mutex
	// msgNow is the dispatch timestamp: stamped once per lock hold at the
	// top of dispatch and tick, then reused by the per-message liveness
	// bookkeeping (rootHandle's lastHeard, ingest's lastRoot) instead
	// of a clock read per message. A batch frame's thousands of inner
	// messages land within one dispatch, so one timestamp is exactly as
	// informative — and the clock read was the dominant per-message cost
	// once encoding went flat. Guarded by n.mu.
	msgNow time.Time
	groups map[GroupID]*memberGroup
	roots  map[GroupID]*rootGroup
	errs   []error
	closed bool
	// freeWaits is the free list lock waits draw their wake channel from
	// (getWait, member.go).
	freeWaits []chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	retryIn   time.Duration // retry/heartbeat/maintenance interval

	// pushedInPlace counts the frames pushed at this node that it ran on
	// the pusher's goroutine (tryDeliver): obs.TransportStats'
	// PushedInPlace, this node's share. Guarded by n.mu.
	pushedInPlace uint64

	// Crash-fault tolerance timing: a member that has not heard from its
	// group root for failAfter starts an election, and a candidate waits
	// electWait after detection for peer state reports before promoting
	// itself.
	failAfter time.Duration
	electWait time.Duration

	// Write-coalescing configuration (batch.go): batching is enabled when
	// batchMax >= 2, and batchDelay bounds how long a queued write waits.
	batchDelay time.Duration
	batchMax   int

	// quorumAcks makes the node's root reigns defer lock handoffs and
	// sync barriers until a majority of members acked the sequenced
	// prefix they depend on (see SetQuorumAcks).
	quorumAcks bool

	// The retry backoff's seeded jitter source (backoff.go), drawn only
	// under n.mu.
	rng *rand.Rand

	// wdBudget is the stuck-operation watchdog's liveness budget
	// (watchdog.go; zero means 4x failAfter, derived at use).
	wdBudget time.Duration

	// leaseTTL enables lock leasing (lease.go) when positive: grants to
	// sole contenders come with a lease of this duration. Ignored while
	// quorumAcks is on.
	leaseTTL time.Duration

	// integrityEvery is the anti-entropy sweep interval: every such
	// period a reign this node roots compares member state digests at a
	// sequence watermark and repairs divergence (integrity.go). Zero
	// disables the sweep; frame checksums are always on.
	integrityEvery time.Duration

	// misapply, when set, mutates sequenced data frames just before the
	// member applies them — a test-only fault hook modeling bit rot past
	// the frame checksum (memory corruption, an apply-path bug). The
	// corrupted triple is both folded and applied, so the anti-entropy
	// sweep must convict the member. Called with n.mu held.
	misapply func(*wire.Message)

	// metrics holds the node's latency histograms and event tracer
	// (internal/obs): the node's one set of protocol counters. Histograms
	// and per-type event counts are always on — recording is a few
	// atomic adds — while the event ring costs one atomic load until
	// enabled via Metrics().Trace.Enable. Neither takes n.mu, so
	// instrumentation adds no lock traffic to the hot paths.
	metrics obs.Metrics
}

// NewNode attaches a sharing interface to an endpoint and starts its
// receive loop. Callers must Close the node when done.
func NewNode(id int, ep transport.Endpoint) *Node {
	return NewNodeClock(id, ep, vclock.Real())
}

// NewNodeClock is NewNode with an injected clock: every timeout the node
// schedules — maintenance ticks, root-failure detection, election grace,
// batch-flush windows — reads and arms this clock instead of the time
// package. The deterministic simulation harness (internal/detsim) uses
// it to drive the full protocol on virtual time.
func NewNodeClock(id int, ep transport.Endpoint, clock vclock.Clock) *Node {
	n := &Node{
		id:        id,
		ep:        ep,
		clock:     clock,
		msgNow:    clock.Now(),
		groups:    make(map[GroupID]*memberGroup),
		roots:     make(map[GroupID]*rootGroup),
		stop:      make(chan struct{}),
		retryIn:   50 * time.Millisecond,
		failAfter: 2 * time.Second,
		electWait: 200 * time.Millisecond,
		// Jitter source for retry backoff, seeded by node ID alone:
		// under detsim the draw order is fixed by the schedule, so the
		// whole retry pattern replays bit-identically from the seed.
		rng: rand.New(rand.NewSource(int64(id)*2654435761 + 1)),
	}
	// The maintenance timer is armed here, not inside resyncLoop, so that
	// node construction fully determines timer creation order — a
	// deterministic scheduler breaks firing ties by it.
	maint := clock.NewTimer(n.retryIn)
	// A TCP endpoint's link readers call deliver themselves; recvLoop is
	// then left with the node's self-sends. Any other endpoint ignores the
	// request and recvLoop sees everything.
	transport.DeliverTo(ep, n.deliver)
	// An InProc endpoint lets whoever pushes at this node run it (tryDeliver):
	// a writer sequences here, a root's fan-out applies itself here; recvLoop
	// keeps everything that was sent, not pushed.
	transport.ConsumeInPlace(ep, n.tryDeliver)
	n.metrics.SetTransport(n.pushStats)
	n.wg.Add(2)
	go n.recvLoop()
	go n.resyncLoop(maint)
	return n
}

// ID reports the node's identifier.
func (n *Node) ID() int { return n.id }

// SetTimers tunes the maintenance interval (retries, heartbeats), the
// root-failure detection deadline, and the election grace period during
// which a candidate collects peer state reports. Zero values keep the
// current setting. Intended for tests and aggressive deployments; the
// defaults (50ms / 2s / 200ms) suit wide-area clusters.
func (n *Node) SetTimers(retry, failAfter, electWait time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if retry > 0 {
		n.retryIn = retry
	}
	if failAfter > 0 {
		n.failAfter = failAfter
	}
	if electWait > 0 {
		n.electWait = electWait
	}
}

// SetQuorumAcks switches the node's durability level. When on, members
// acknowledge the sequenced prefix they applied (piggybacked on the
// resync probes, plus explicit TAck frames), and any reign this node
// roots only hands a released lock to the next waiter — and only answers
// Sync barriers — once a majority of the configured membership holds
// every write sequenced before the release. Combined with quorum-gated
// elections this makes such writes durable across a root failover: any
// elected successor merges reports from a majority, and two majorities
// always share a member that acked. All nodes of a group should agree on
// the setting; it is read on both the member and root paths.
func (n *Node) SetQuorumAcks(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.quorumAcks = on
}

// SetIntegrity enables the root-driven anti-entropy sweep: every
// interval, each reign this node roots sends its state digest at the
// current sequence watermark to every member (TDigestReq piggybacked
// on the maintenance tick), compares the TDigestAck replies against
// its digest checkpoint ring, and re-drives any diverged member
// through the rejoin/snapshot catch-up path. Zero disables sweeping.
// It is a set-up call, like SetBatching: make it on every node of the
// group before the group carries data. A node folds sequenced writes into
// its digests only while its interval is set, so a node that turned it on
// late holds a digest that misses the earlier writes, and a member that
// inherits the reign keeps sweeping only if it was set there too. While
// off it costs the data path nothing.
func (n *Node) SetIntegrity(interval time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.integrityEvery = interval
}

// SetMisapply installs a test-only fault hook that may mutate each
// sequenced data frame just before the member applies it, modeling
// corruption past the frame checksum (bad RAM, an apply bug). The hook
// runs with the node lock held and must not call back into the node.
// Pass nil to remove.
func (n *Node) SetMisapply(f func(*wire.Message)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.misapply = f
}

// interval reads the maintenance interval under the lock.
func (n *Node) interval() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retryIn
}

// Join registers the node in a sharing group. If the node is the group's
// root it also becomes the group's sequencer and lock manager.
func (n *Node) Join(cfg GroupConfig) error {
	if !cfg.memberOf(n.id) {
		return fmt.Errorf("gwc: node %d is not a member of group %d: %w", n.id, cfg.ID, ErrNotMember)
	}
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 4096
	}
	for v, l := range cfg.Guards {
		if id := max(uint32(v), uint32(l)); id >= maxRecords {
			return idErr(cfg.ID, "guarded variable or guarding lock", id)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("gwc: node %d is closed: %w", n.id, ErrClosed)
	}
	if _, ok := n.groups[cfg.ID]; ok {
		return fmt.Errorf("gwc: node %d already joined group %d", n.id, cfg.ID)
	}
	now := n.clock.Now()
	g := newMemberGroup(n.id, cfg, now)
	g.locks.sink = &memberShell{n, g}
	n.groups[cfg.ID] = g
	if cfg.Root == n.id {
		n.roots[cfg.ID] = n.newRootGroup(cfg, g, 0, now)
	}
	return nil
}

// Close shuts the node down: the endpoint closes and the receive loop
// exits. Blocked waiters are woken with their operations unsatisfied.
// The endpoint is closed with n.mu released: its Close waits for link
// readers, and one of them may be inside deliver, waiting for n.mu.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	groups := make([]*memberGroup, 0, len(n.groups))
	for _, gid := range sortedKeys(n.groups) {
		g := n.groups[gid]
		// Drain the write-coalescing queue while the endpoint still works,
		// so a Close right after a burst of batched writes loses nothing.
		n.flushWrites(g, obs.EvFlushClose)
		groups = append(groups, g)
	}
	n.mu.Unlock()

	close(n.stop)
	err := n.ep.Close()
	n.wg.Wait()
	n.mu.Lock()
	for _, g := range groups {
		g.data.closeAll()
		g.lock.closeAll()
		for tok, sw := range g.syncPending {
			// Wake Sync callers unsatisfied (sw.ok stays false).
			delete(g.syncPending, tok)
			close(sw.ch)
		}
	}
	n.mu.Unlock()
	return err
}

// Stats returns the node's protocol counters, each one event type's
// count (or the sum of two). Every count is exact, but they are read one
// by one without the node lock, so on a running node two fields may be a
// transition apart.
func (n *Node) Stats() Stats {
	c := func(t obs.EventType) int { return int(n.metrics.Trace.Count(t)) }
	return Stats{
		Suppressed:         c(obs.EvSuppressed),
		Duplicates:         c(obs.EvDuplicate),
		Gaps:               c(obs.EvGap),
		Nacks:              c(obs.EvNack),
		Retransmits:        c(obs.EvRetransmit),
		EchoDropped:        c(obs.EvEchoDropped),
		EchoRestored:       c(obs.EvEchoRestored),
		LostHistory:        c(obs.EvLostHistory),
		LockRequests:       c(obs.EvLockRequest),
		LockGrants:         c(obs.EvLockGrant),
		LockCancels:        c(obs.EvLockCancel),
		StaleEpochRejected: c(obs.EvStaleEpoch),
		Failovers:          c(obs.EvPromoted),
		Demotions:          c(obs.EvDemoted),
		IDRangeDrops:       c(obs.EvIDRangeDrop),
		Elections:          c(obs.EvElection),
		Fenced:             c(obs.EvFence),
		Rejoins:            c(obs.EvRejoined),
		QuorumAckWaits:     c(obs.EvLockParked) + c(obs.EvSyncParked),
		FencedDrops:        c(obs.EvFencedDrop),
		WatchdogStuck:      c(obs.EvWatchdogStuck),
		WatchdogReissues:   c(obs.EvWatchdogReissue),
		DeadlineDrops:      c(obs.EvDeadlineDrop),
		DegradedReads:      c(obs.EvDegradedRead),
		SessionOpens:       c(obs.EvSessOpen),
		SessionCloses:      c(obs.EvSessClose),
		SessionJoins:       c(obs.EvSessJoin),
		Batches:            c(obs.EvBatchSent),
		Coalesced:          c(obs.EvCoalesced),
		FlushReasons: FlushReasons{
			Size:    c(obs.EvFlushSize),
			Delay:   c(obs.EvFlushDelay),
			Release: c(obs.EvFlushRelease),
			Sync:    c(obs.EvFlushSync),
		},
		DigestSweeps:  c(obs.EvDigestSweep),
		Divergences:   c(obs.EvDivergence),
		EagerResends:  c(obs.EvEagerResend),
		LeaseGrants:   c(obs.EvLeaseGrant),
		LeaseReturns:  c(obs.EvLeaseReturn),
		LeaseRevokes:  c(obs.EvLeaseRevoke),
		LeaseLocal:    c(obs.EvLeaseLocal),
		LeaseRenewals: c(obs.EvLeaseRenew),
	}
}

// Metrics exposes the node's observability layer: latency histograms
// and per-type event counts (always recording) and the protocol event
// ring (off until Metrics().Trace.Enable is called). Safe to use
// concurrently with all node operations.
func (n *Node) Metrics() *obs.Metrics { return &n.metrics }

// emit counts one protocol transition and, while tracing is on, records
// it in the ring. The On check keeps the disabled cost to one atomic add
// and one load, and skips building the Event and its clock read. Safe
// with or without n.mu held.
func (n *Node) emit(typ obs.EventType, gid GroupID, a, b int64) {
	t := &n.metrics.Trace
	if !t.On() {
		t.Tally(typ)
		return
	}
	t.Emit(obs.Event{
		At:    n.clock.Now().UnixNano(),
		Type:  typ,
		Node:  int32(n.id),
		Group: int32(gid),
		A:     a,
		B:     b,
	})
}

// Emit counts an event attributed to this node and, while tracing is on,
// records it stamped with the node's (possibly virtual) clock. It exists
// for layers built on top of the node — the optimistic engine, simulators
// — so their events land in the same per-node counts and ring as the
// protocol's own.
func (n *Node) Emit(typ obs.EventType, gid GroupID, a, b int64) {
	n.emit(typ, gid, a, b)
}

// Now returns the current time on the node's clock — wall time in
// production, virtual time under deterministic simulation. Layers
// instrumenting around node operations must use this rather than
// time.Now so recorded latencies are meaningful under both clocks.
func (n *Node) Now() time.Time { return n.clock.Now() }

// Errors returns protocol errors observed so far (e.g. unknown groups on
// incoming traffic).
func (n *Node) Errors() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]error(nil), n.errs...)
}

// protoErr records a protocol error for later inspection: every one is
// counted (EvProtoErr), the first 100 are kept for Errors. It must be
// called with n.mu held.
func (n *Node) protoErr(format string, args ...any) {
	n.emit(obs.EvProtoErr, 0, 0, 0)
	if len(n.errs) < 100 {
		n.errs = append(n.errs, fmt.Errorf(format, args...))
	}
}

// dispatchChunk bounds how many messages deliver dispatches under one
// hold of the node lock, and so how long a Read or Write caller can wait
// behind a backlog. It is not a tuning knob: the per-hold costs (lock,
// clock read) are already amortized well below the per-message work at
// this size.
const dispatchChunk = 64

// recvLoop takes what the endpoint queues for Recv — everything, on an
// endpoint whose links do not deliver for themselves (detsim, a decorator;
// on InProc everything but the frames their pushers ran here themselves,
// tryDeliver); the node's self-sends alone on TCP. Each pass drains the
// whole queue, so the fixed costs of a wake-up are paid per backlog, not
// per message. A lone message is a backlog of one.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	var batch []wire.Message
	for {
		var ok bool
		if batch, ok = transport.RecvBatch(n.ep, batch); !ok {
			return
		}
		n.deliver(batch)
	}
}

// deliver is the sharing interface proper: it applies one arrival — a
// drained receive queue, or the run a TCP link reader decoded from one
// socket read, on that reader's goroutine — under the node lock a chunk
// at a time. Several goroutines may be in it at once (one per inbound
// link, plus recvLoop); n.mu serializes them chunk by chunk, each keeps
// its own arrival in order, and nothing above depends on the order
// between links. ms is read in place and not kept.
func (n *Node) deliver(ms []wire.Message) {
	n.metrics.Gauge(obs.GaugeRecvBacklog).Set(int64(len(ms)))
	for rest := ms; len(rest) > 0; {
		k := min(len(rest), dispatchChunk)
		n.dispatch(rest[:k])
		rest = rest[k:]
	}
}

// dispatch applies ms in order under one hold of the node lock. msgNow
// is stamped once for the hold, so it is at most one chunk stale.
func (n *Node) dispatch(ms []wire.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.msgNow = n.clock.Now()
	for i := range ms {
		n.route(&ms[i])
	}
}

// tryDeliver is dispatch for a frame that was pushed here (transport.Push),
// on the pusher's goroutine: a root's fan-out, under that root's node lock,
// or a writer's update (Node.Write, this node the root), under nothing — in
// which case this node's multicast pushes on from here, and the writer ends
// up running the root and every idle member. n.mu is all that excludes it
// from another pusher and from recvLoop's dispatch: the mailbox only keeps
// it from overtaking what the same sender queued. It may not wait for n.mu:
// two nodes that each root a group the other is a member of push at each
// other, each holding its own lock, and would wait forever, and a pusher
// that is this very node holding n.mu (a release's batch flush would be one,
// were it pushed) would wait for itself. So it takes n.mu if it is free and
// declines otherwise, which queues the frame for recvLoop; it declines as
// well a lock request or release the root leaves for its receive loop, as
// its lock book rules (lockBook.runsInPlace; no other kind asks the reign,
// and a node that roots no reign of the group drops the frame, or points
// its sender at the reign, wherever it runs). It stamps no clock: msgNow
// keeps the stamp of the last tick or queued dispatch, so the proof of life
// a pushed frame leaves — lastRoot at a member, lastHeard at the root —
// reads up to one maintenance interval early (the tick re-stamps it every
// interval; heartbeats and probes are sent, not pushed) and never late:
// the failure detector and the fence can only fire early, by that much.
// The data plane reads no clock at all; a lock frame run here reads it
// only where the root's lock book asks for the time (a caller's deadline,
// the quorum park, a revoke demand). A frame it takes — run, or dropped by
// a closed node — it counts in pushedInPlace, under the n.mu it holds: the
// transport counts only the pushes that queued. m is the hop's one copy
// of the frame (transport.ConsumeInPlace has why it is by value).
func (n *Node) tryDeliver(m wire.Message) bool {
	if !n.mu.TryLock() {
		return false
	}
	defer n.mu.Unlock()
	if n.closed {
		n.pushedInPlace++
		return true // dropped, like a send to a closed mailbox
	}
	if m.Type == wire.TLockReq || m.Type == wire.TLockRel {
		if r := n.roots[GroupID(m.Group)]; r != nil && !r.book.runsInPlace(&m) {
			n.emit(obs.EvLockDeferred, GroupID(m.Group), int64(m.Type), int64(m.Src))
			return false
		}
	}
	n.pushedInPlace++
	n.route(&m)
	return true
}

// pushStats is the node's share of the transport counters: the pushed
// frames it ran in place.
func (n *Node) pushStats() obs.TransportStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return obs.TransportStats{PushedInPlace: n.pushedInPlace}
}

// resyncLoop drives the node's periodic maintenance: resync probes and
// failure detection on the member side, heartbeats on the root side.
// Transient send errors are recorded via protoErr and the loop carries
// on; it exits only when the node is closed.
func (n *Node) resyncLoop(timer vclock.Timer) {
	defer n.wg.Done()
	defer timer.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-timer.C():
		}
		n.tick()
		// Re-armed only after the tick's sends are out, so a virtual
		// scheduler observing "no timer pending" knows the tick finished.
		timer.Reset(n.interval())
	}
}

// tick runs one maintenance round under the node lock. Sends go through
// n.send, which records (rather than returns) transport errors, so one
// transient failure never silences the maintenance machinery for good.
// Iteration is in key order: the messages a tick emits must not depend
// on map layout, or two runs of the same schedule would diverge.
//
// The tick fires at the fixed maintenance interval — failure detection,
// the fencing lease, and heartbeats need a steady cadence — but the
// retransmission paths inside it are gated by per-request backoff
// schedules (backoff.go): a request is re-sent only when its schedule
// is due, so recovery from a long outage costs O(log downtime) frames
// per request instead of O(downtime / tick). The tick is the node's one
// retry engine: blocked callers park on a channel and keep no timer or
// schedule of their own. The stuck-operation watchdog (watchdog.go) runs
// first, so a budget trip's schedule reset takes effect within the same
// tick.
func (n *Node) tick() {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.msgNow = now
	for _, gid := range sortedKeys(n.groups) {
		g := n.groups[gid]
		// The node that roots the group does not watch its own requests.
		g.locks.tickLocks(now, g.rootID != n.id, n.watchBudget())
		g.sweepVars()
		if g.rootID == n.id {
			continue // the rest of the root's member state is fed directly
		}
		n.watchMember(gid, g, now)
		switch {
		case g.rejoining:
			// A restarted member asks for re-admission instead of probing:
			// its sequence state is meaningless until the root answers with
			// a fresh epoch and snapshot (rejoin.go). The request carries the
			// attempt's ticket so the root can serve duplicate handshakes
			// idempotently.
			if g.joinB.ready(now) {
				n.arm(&g.joinB, now, n.boBase(), n.boCap())
				n.send(g.rootID, n.hdr(g).JoinReq(g.joinToken))
			}
		case g.snapWanted:
			// A member waiting for a snapshot skips the resync probe: the
			// snapshot supersedes any retransmission it could trigger.
			if g.snapB.ready(now) {
				n.arm(&g.snapB, now, n.boBase(), n.boCap())
				n.send(g.rootID, n.hdr(g).SnapReq())
			}
		default:
			// Resync probe. The probe doubles as the member's cumulative ack
			// (Seq-1 is applied) and as root-side proof of contact for the
			// fencing lease, so its backoff cap is clamped to a fraction of
			// failAfter (probeCap) and its schedule resets whenever the
			// stream moves — a member with a gap to repair probes at full
			// cadence. The requested range depends on what the member can
			// prove: while the stream is moving gaplessly, delivery is
			// demonstrably working, so the probe asks for nothing (an empty
			// range — pure ack). Only when the stream has stalled — which is
			// how a silently lost burst tail looks, the one loss gap
			// detection cannot notice — or a gap is open does it request
			// everything from the next expected sequence number. Without
			// that distinction every probe under load re-requests the whole
			// in-flight suffix and the root floods members with duplicates.
			moved := g.nextSeq != g.probeSeq
			if len(g.pending) > 0 || moved {
				g.probeB.reset()
				g.probeSeq = g.nextSeq
			}
			if g.probeB.ready(now) {
				n.arm(&g.probeB, now, n.boBase(), n.probeCap())
				want := uint64(math.MaxInt64)
				if moved && len(g.pending) == 0 {
					want = g.nextSeq - 1 // nextSeq >= 1 always
				}
				n.send(g.rootID, n.hdr(g).Nack(g.nextSeq, want))
			}
		}
		// Re-ship due eager stores whose echo never came back. The update
		// hop is the protocol's one unacknowledged send, so a lost (or
		// checksum-discarded) carrier frame would otherwise lose the write
		// silently. Skipped while detached from the reign: a rejoin resets
		// the eager store, a pending snapshot retires what the root
		// answered (settle), and an election's report carries the frame to
		// the candidate, whose replay sees its nonce, so a re-ship of it
		// drops there as a duplicate. A re-base re-addresses the frame to the reign it
		// starts (rebase), so a reign change does not doom it to the
		// stale-epoch filter; the grant-epoch tag (Seq) is kept, so the
		// root's speculation gate judges the re-send exactly as it would
		// have judged the original.
		if !g.rejoining && !g.snapWanted && !g.electing {
			// The lock plane's second pass over its busy locks (tickDeleg)
			// runs first: a lease return or renewal should beat this
			// tick's failure detector.
			g.locks.tickDeleg(now)
			for _, v := range g.busyVars {
				mv := &g.vars.recs[v]
				if !mv.eagerOut || !mv.eagerB.ready(now) {
					continue
				}
				n.arm(&mv.eagerB, now, n.boBase(), n.boCap())
				n.emit(obs.EvEagerResend, gid, int64(v), 0)
				n.send(g.rootID, mv.eagerMsg)
			}
		}
		// Re-send due sync barriers; the root dedupes by token.
		for _, tok := range sortedKeys(g.syncPending) {
			sw := g.syncPending[tok]
			if !sw.bo.ready(now) {
				continue
			}
			n.arm(&sw.bo, now, n.boBase(), n.boCap())
			n.send(g.rootID, n.hdr(g).SyncReq(tok))
		}
		n.detectFailure(gid, g, now)
	}
	for _, gid := range sortedKeys(n.roots) {
		r := n.roots[gid]
		n.checkFence(r, now)
		n.watchRoot(gid, r, now)
		n.heartbeat(r)
		n.sweepDigests(r, now)
		r.book.recall(now, false)
	}
}

// route hands one message to its handler, reading it in place: m points
// into the drained receive batch, and handlers copy only what must
// outlive the dispatch. Caller holds n.mu and has stamped msgNow.
func (n *Node) route(m *wire.Message) {
	if !n.idsOK(m) {
		return
	}
	switch {
	case m.Type.ToRoot():
		r, ok := n.roots[GroupID(m.Group)]
		if !ok {
			if g, member := n.groups[GroupID(m.Group)]; member {
				// Routine during failover: a peer still (or again)
				// believes this node is root. Point stale senders at the
				// current root; otherwise drop and let retries converge.
				// A frame of a reign to come is a peer's election report
				// carrying its up-path (reportFrames).
				if n.offReign(g, m, true) && m.Epoch > g.epoch {
					n.reportPiece(g, m)
				}
				return
			}
			n.protoErr("gwc: node %d got %v for group %d but is not its root", n.id, m.Type, m.Group)
			return
		}
		n.rootHandle(r, m)
	case m.Type == wire.TJoinReq:
		n.handleJoinReq(m)
	case m.Type == wire.TBatch:
		n.handleBatch(m)
	default:
		g, ok := n.groups[GroupID(m.Group)]
		if !ok {
			n.protoErr("gwc: node %d got %v for unknown group %d", n.id, m.Type, m.Group)
			return
		}
		switch m.Type {
		case wire.TJoinAck:
			n.handleJoinAck(g, m)
		case wire.TSyncAck:
			n.handleSyncAck(g, m)
		case wire.TSeqUpdate, wire.TSeqLock:
			n.ingest(g, m)
			n.maybeSendAck(g)
		case wire.THeartbeat:
			n.handleHeartbeat(g, m)
		case wire.TSnapVar, wire.TSnapLock, wire.TSnapDone:
			n.handleSnap(g, m)
		case wire.TDigestReq:
			n.handleDigestReq(g, m)
		case wire.TLeaseGrant:
			n.lockFrame(g, m)
		default:
			n.protoErr("gwc: node %d got unexpected message type %v", n.id, m.Type)
		}
	}
}

// hdr is the header of a frame this node sends as g's member, in the
// reign it follows; rootHdr that of a frame r's reign sends.
func (n *Node) hdr(g *memberGroup) wire.Hdr {
	return wire.Hdr{Group: uint32(g.cfg.ID), Src: int32(n.id), Epoch: g.epoch}
}

func (n *Node) rootHdr(r *rootGroup) wire.Hdr {
	return wire.Hdr{Group: uint32(r.cfg.ID), Src: int32(n.id), Epoch: r.epoch}
}

// send ships a message, recording (not returning) transport errors: the
// caller is often a dispatch, and the sequence/NACK machinery recovers
// from losses.
func (n *Node) send(to int, m wire.Message) {
	if err := n.ep.Send(to, m); err != nil {
		n.protoErr("gwc: node %d send to %d: %w", n.id, to, err)
	}
}

// push is send for a copy of the sequenced stream on its way down: an
// in-process member that is idle has it applied here and now, on this
// goroutine, instead of being woken for it (tryDeliver). Three frames are
// pushed up, each by its caller holding nothing and calling transport.Push
// itself, to return the error: Node.Write's unbatched update, a caller's
// lock request (sendOwn) and Release's release. The rule for what is
// pushed, stated once: the data plane is pushed both ways; so is the lock
// plane, but the root runs in place only a lock frame that changes nobody
// else's wait (lockBook.runsInPlace); everything that asks for an answer,
// repairs a loss or carries a liveness duty is sent. So the tick's request
// retries, the entries a member hands back (lockPlane.handBack, under n.mu),
// cancels, acks, NACKs, sync, snapshot, join and lease frames and
// heartbeats are sent, as are the tick's eager re-ships (loss repair) and
// the batched plane's flush frames (flushWrites runs under n.mu: a push at
// the node's own root would only be declined). DESIGN.md "InProc: push"
// has why. m is passed on by pointer — for the fan-out it is the root's
// ring slot, which every member is pushed — and read, not kept: the copy
// into the destination's consumer is the hop's one copy.
func (n *Node) push(to int, m *wire.Message) {
	if err := transport.Push(n.ep, to, m); err != nil {
		n.protoErr("gwc: node %d send to %d: %w", n.id, to, err)
	}
}
