package gwc

import (
	"slices"
	"time"

	"optsync/internal/integrity"
	"optsync/internal/obs"
	"optsync/internal/wire"
)

// rootGroup is the authoritative state the group root keeps: the write
// sequencer, the retransmission history, and the lock manager.
type rootGroup struct {
	cfg GroupConfig

	// epoch identifies this root's reign; every down-message carries it
	// and up-messages from other reigns are rejected. The founding root
	// reigns in epoch 0, each failover promotion starts a higher one.
	epoch uint32

	// member is this node's member-side state for the group: the root
	// applies its own multicasts there, and reads variable guards from
	// its records (a root is always a member).
	member *memberGroup

	// vars and locks hold the reign's one record per variable and per
	// lock, indexed by ID (table.go). A lockState is live once lock()
	// has touched it (used); snapshots and the maintenance passes skip
	// the rest.
	vars  table[VarID, rootVar]
	locks table[LockID, lockState]

	// ring is the reign's sequencer and retransmission window: the last
	// HistorySize sequenced messages, with digest checkpoints (see
	// seqring.go). r.ring.seq() is the sequence watermark.
	ring *seqRing

	// Batch collection window (batch.go): while an incoming batch frame is
	// being sequenced — one node-lock hold for the whole frame — multicast
	// parks its output here and rootEndBatch fans the contiguous sequence
	// range out as one frame per destination.
	collecting bool
	outBatch   []wire.Message

	// Fencing lease (fence.go): a root that heard from fewer than quorum
	// members (itself included) within failAfter stops sequencing —
	// up-traffic parks in fencedQ until contact returns, so a minority
	// partition cannot commit writes a healed group would discard.
	quorum     int
	fenced     bool
	fencedAt   time.Time // when the current fence began (degraded.go staleness origin)
	fenceWatch time.Time // watchdog budget clock for the fence; re-stamped per trip
	fencedQ    []wire.Message
	lastHeard  map[int]time.Time

	// joinSeen is the last rejoin token served per member (rejoin.go): a
	// duplicate TJoinReq gets its ack and snapshot re-sent but skips the
	// destructive lock-freeing a first admission performs.
	joinSeen map[int]uint64

	// Quorum-ack watermark (fence.go): acks[m] is the highest sequence
	// number member m cumulatively acknowledged, commit the quorum-th
	// highest of those (counting the root at r.ring.seq()). Sync barriers and,
	// under SetQuorumAcks, lock handoffs wait for commit to reach the
	// prefix they depend on.
	acks      map[int]uint64
	commit    uint64
	waitSyncs []syncBarrier

	// Anti-entropy digest state (integrity.go): digest accumulates every
	// sequenced data message this reign multicast, and the ring
	// checkpoints the cumulative digest as of each sequence number
	// (alongside the retained message), so a member's TDigestAck at any
	// buffered watermark can be compared without replay. lastSweep paces
	// the sweep.
	digest    integrity.Digest
	lastSweep time.Time
}

// rootVar is the reign's record of one shared variable.
type rootVar struct {
	// auth is the authoritative value; written is false until something
	// was sequenced (or merged at promotion) into it, and snapshots carry
	// only written variables.
	auth    int64
	written bool
	// seen is the highest guarded-store nonce dispositioned per origin,
	// indexed by the origin's position in cfg.Members (allocated on the
	// variable's first guarded store). Members stamp every guarded update
	// with a monotonically increasing per-group nonce so the up-path
	// loss-recovery re-sends (the eager re-ship in tick) are idempotent
	// here: a nonce at or below the recorded one is a duplicate — or a
	// superseded older store that a delay fault reordered — of a frame
	// this reign already sequenced or suppressed, and is dropped without
	// sequencing the same value twice or double-counting a suppression.
	seen []uint64
}

// syncBarrier is a deferred TSyncReq: answered once the commit watermark
// reaches needSeq.
type syncBarrier struct {
	src     int
	token   uint64
	needSeq uint64
}

// lockWaiter is one queued lock request: the requesting node and the
// acquisition token its request carried (see memberGroup.reqToken).
// Requests re-queued from failover reports carry token 0, which never
// matches a live acquisition; the member declines such a grant and its
// request retry re-queues with the real token. deadline (Unix nanos, 0
// = none) is the caller's give-up time from the wire: granting past it
// only bounces, so popWaiter discards expired entries at dequeue.
// session is the group-mutual-exclusion session the request wants to
// enter (0 = exclusive).
type lockWaiter struct {
	node     int
	token    uint32
	deadline int64
	session  uint32
}

// popWaiter dequeues the next live waiter, discarding entries whose
// request deadline has passed — their callers gave up, so a grant would
// only be declined and cost the lock an extra round trip. The clock is
// read lazily; most queues carry no deadlines at all. Caller holds n.mu.
func (n *Node) popWaiter(ls *lockState) (lockWaiter, bool) {
	var now int64
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		ls.queue = ls.queue[1:]
		if w.deadline != 0 {
			if now == 0 {
				now = n.clock.Now().UnixNano()
			}
			if w.deadline <= now {
				n.stats.DeadlineDrops++
				continue
			}
		}
		return w, true
	}
	return lockWaiter{}, false
}

// lockState is the manager's books on one queue-based lock: the open
// section (holders.go), the epoch counter and the queue behind it.
type lockState struct {
	// used marks a record lock() has initialized.
	used bool
	// held is the open critical section: its session and, per holder, the
	// epoch its entry was announced with and the token of the request it
	// answered. The section is open while anyone is in it.
	held  holderSet
	epoch uint32
	queue []lockWaiter
	// lastWinner is the node that opened the newest section (-1: none on
	// these books) and lastSession that section's session. foreignEpoch is
	// the epoch of the newest *foreign* entry — one that rolls other
	// nodes' speculative sections back. A speculative
	// write is clean iff its sender observed every foreign entry before
	// speculating (tag >= foreignEpoch). Consecutive exclusive grants to
	// the same node never roll its sections back, and entries into (or
	// reopens of) the session a speculator itself targets never roll that
	// speculation back, so neither advances foreignEpoch.
	lastWinner   int
	lastSession  uint32
	foreignEpoch uint32
	// needSeq is the sequence number the closing section's data reached;
	// under SetQuorumAcks the next grant waits until commit covers it.
	needSeq uint64
	// pending lists designated holders — present in held, epoch
	// assigned — whose entry multicast is deferred until the commit
	// watermark covers needSeq. Designating eagerly keeps the lock from
	// going holderless across the park: a clean speculation whose request
	// wins the park window has its guarded writes sequenced (it is a
	// holder) instead of suppressed not-holder, while the pessimistic
	// waiter still only *receives* the grant once the previous section's
	// data is quorum-held.
	pending []int
	// deferredAt marks when a handoff first parked behind the quorum-ack
	// watermark; the eventual grant records the wait in HistQuorumWait.
	deferredAt time.Time
	// watchAt is the stuck-operation watchdog's last clean observation of
	// this lock (watchdog.go): re-stamped whenever the lock looks healthy
	// or the watchdog trips, so a trip re-fires per budget, not per tick.
	watchAt time.Time

	// Lease bookkeeping (lease.go): leaseTo is the member the lock is
	// leased to (-1 none), leaseEpoch/leaseToken the entry the lease was
	// issued against, leaseExpiry when the member's clock runs it out
	// (advisory here — the root frees only on a return, release, or the
	// holder's rejoin), and revokeB the revoke demand's re-send schedule.
	leaseTo     int
	leaseExpiry time.Time
	leaseEpoch  uint32
	leaseToken  uint32
	revokeB     backoff
	// hintNode/hintToken name the head queued waiter the newest grant
	// designated as its holder's direct-handoff target (-1 none). The
	// waiter stays queued: a committed handoff dequeues it, anything
	// else leaves the classic churn to serve it.
	hintNode  int
	hintToken uint32
}

// free reports whether no critical section is open.
func (ls *lockState) free() bool { return len(ls.held.in) == 0 }

// holds reports whether node is a current holder.
func (ls *lockState) holds(node int) bool { return ls.held.has(node) }

// holdsAt reports whether node holds the entry announced at epoch — what
// a release, a lease return or a handoff notice must quote, so that a
// stale duplicate can never close a later entry.
func (ls *lockState) holdsAt(node int, epoch uint32) bool {
	h := ls.held.find(node)
	return h != nil && h.epoch == epoch
}

// sole returns the holder of an open exclusive section, or nil: the one
// state of the books in which a lock can be leased or handed over peer
// to peer (lease.go).
func (ls *lockState) sole() *holder {
	if ls.held.session == 0 && len(ls.held.in) == 1 {
		return &ls.held.in[0]
	}
	return nil
}

// enter books node into the open section at the lock's next epoch.
func (n *Node) enter(ls *lockState, node int, token uint32) {
	ls.epoch++
	ls.held.put(holder{node: node, epoch: ls.epoch, token: token})
	n.metrics.Gauge(obs.GaugeSessHolders).Add(1)
}

// leave takes node off the books — its entry, an announcement still
// deferred, a lease — and returns the epoch the entry was announced with.
func (n *Node) leave(ls *lockState, node int) uint32 {
	// Leaving a designated-but-unannounced entry simply retires it; the
	// multicast that never went out owes nobody anything.
	ls.pending = slices.DeleteFunc(ls.pending, func(p int) bool { return p == node })
	left := ls.held.find(node).epoch
	ls.held.drop(node)
	n.metrics.Gauge(obs.GaugeSessHolders).Add(-1)
	if ls.leaseTo == node {
		ls.leaseTo = -1 // the leaseholder leaving retires its lease
	}
	return left
}

// parked reports whether node's entry announcement is deferred on the
// quorum watermark.
func (ls *lockState) parked(node int) bool {
	for _, p := range ls.pending {
		if p == node {
			return true
		}
	}
	return false
}

func newRootGroup(cfg GroupConfig, member *memberGroup, now time.Time) *rootGroup {
	r := &rootGroup{
		cfg:       cfg,
		member:    member,
		ring:      newSeqRing(cfg.HistorySize),
		quorum:    len(cfg.Members)/2 + 1,
		lastHeard: make(map[int]time.Time),
		acks:      make(map[int]uint64),
		joinSeen:  make(map[int]uint64),
		lastSweep: now,
	}
	r.cfg.Guards = nil
	// Every member starts "recently heard": the lease must observe a full
	// failAfter of silence before fencing a fresh reign. (The acting root
	// is skipped by checkFence, so its own entry is inert.)
	for _, m := range cfg.Members {
		r.lastHeard[m] = now
	}
	return r
}

// newLockState is a live lock record with nobody in it: no holder, no
// past winner, no lease out, no handoff target. Node 0 is a member, so
// the node-valued fields' zero value would name it.
func newLockState() lockState {
	return lockState{used: true, lastWinner: -1, leaseTo: -1, hintNode: -1}
}

// lock returns l's record, initializing it on first use.
func (r *rootGroup) lock(l LockID) *lockState {
	ls := r.locks.at(l)
	if !ls.used {
		*ls = newLockState()
	}
	return ls
}

// queued reports whether node id is already waiting for the lock.
func (ls *lockState) queued(id int) bool {
	for _, q := range ls.queue {
		if q.node == id {
			return true
		}
	}
	return false
}

// rootHandle processes an up-message at the group root. Caller holds
// n.mu.
func (n *Node) rootHandle(r *rootGroup, m *wire.Message) {
	if src := int(m.Src); src != n.id && r.cfg.memberOf(src) {
		// Any up-traffic from a configured member proves connectivity for
		// the fencing lease, whatever epoch the sender believes in. The
		// dispatch timestamp stands in for a per-message clock read: every
		// inner message of a batch frame arrived in the same dispatch.
		r.lastHeard[src] = n.msgNow
	}
	if m.Epoch != r.epoch {
		if m.Epoch < r.epoch {
			// The sender is following a deposed root. Tell it about this
			// reign so it resyncs; its retry then arrives with the right
			// epoch.
			n.stats.StaleEpochRejected++
			n.send(int(m.Src), wire.Message{
				Type:  wire.THeartbeat,
				Group: uint32(r.cfg.ID),
				Src:   int32(n.id),
				Seq:   r.ring.seq(),
				Val:   int64(n.id),
				Epoch: r.epoch,
			})
		}
		// A higher epoch means this node has itself been deposed; the new
		// root's heartbeat will demote it through the member path.
		return
	}
	if r.fenced {
		switch m.Type {
		case wire.TUpdate, wire.TLockReq, wire.TLockRel, wire.TLockCancel, wire.TSyncReq,
			wire.TLeaseRet, wire.THandoff:
			// A fenced root must not sequence, grant, or promise anything
			// new; park the traffic until quorum contact returns (or the
			// reign is deposed, which drops the queue — nothing in it was
			// ever acknowledged). Retransmits, snapshots, and acks below
			// still flow: they only serve already-sequenced state.
			n.fenceQueue(r, *m)
			return
		}
	}
	switch m.Type {
	case wire.TUpdate:
		n.rootUpdate(r, m)
	case wire.TLockReq:
		n.rootLockReq(r, m)
	case wire.TLockRel:
		n.rootLockRel(r, m)
	case wire.TLockCancel:
		n.rootLockCancel(r, m)
	case wire.TNack:
		// A resync probe doubles as a cumulative ack: everything below the
		// sender's next expected sequence number has been applied there.
		if m.Seq > 0 {
			n.rootAck(r, int(m.Src), m.Seq-1)
		}
		n.rootNack(r, m)
	case wire.TAck:
		n.rootAck(r, int(m.Src), m.Seq)
	case wire.TSyncReq:
		n.rootSyncReq(r, m)
	case wire.TSnapReq:
		n.rootSnapSend(r, int(m.Src))
	case wire.TLeaseRet:
		n.rootLeaseRet(r, m)
	case wire.THandoff:
		n.rootHandoff(r, m)
	case wire.TDigestAck:
		// Digest comparisons only read already-sequenced state, so they
		// flow while fenced — a member that rotted during the fence is
		// found, and its repair snapshot serves committed state only.
		n.rootDigestAck(r, m)
	}
}

// rootUpdate sequences a shared write, discarding speculative writes to
// guarded variables from nodes that do not hold the lock — the root "is
// both the lock owner and the sequencing arbiter for all data changes
// within the group", so improper changes never enter the group.
func (n *Node) rootUpdate(r *rootGroup, m *wire.Message) {
	rv := r.vars.at(VarID(m.Var))
	if m.Guarded {
		// Idempotence against the origin's loss-recovery re-sends: a
		// nonce at or below the highest dispositioned one for this
		// (origin, var) is a duplicate — or a delay-reordered older
		// store the origin has since superseded — of a frame this reign
		// already sequenced or suppressed. Re-sequencing it would let an
		// old value overtake a newer one, and re-suppressing it would
		// double-count one rollback.
		if i := r.cfg.indexOf(int(m.Origin)); m.Deadline != 0 && i >= 0 {
			if rv.seen == nil {
				rv.seen = make([]uint64, len(r.cfg.Members))
			}
			nonce := uint64(m.Deadline)
			if nonce <= rv.seen[i] {
				return
			}
			rv.seen[i] = nonce
		}
		mv := r.member.vars.peek(VarID(m.Var))
		if mv == nil || !mv.guarded {
			n.stats.Suppressed++
			n.emit(obs.EvSuppressed, r.cfg.ID, int64(m.Var), obs.ReasonNotHolder)
			return
		}
		guard := mv.guard
		ls := r.lock(guard)
		// Accept only from a holder, and only when the sender had
		// observed every foreign entry before speculating (its epoch tag
		// covers the newest foreign entry). A write whose tag predates a
		// foreign entry belongs to a section that rolled back (or will —
		// the sender's interrupt fires on that same entry), so it must
		// not enter the group. Entries the sender won itself — or other
		// nodes' entries into the sender's own session — are harmless:
		// they never roll the sender's sections back, and counting them
		// here would suppress the writes of a legitimately committed
		// section.
		if !ls.holds(int(m.Origin)) {
			// Not a holder on the books — unless its tagged epoch is exactly
			// the one the newest handoff hint reserved, in which case this
			// write is proof the peer transfer happened and the notice is
			// still in flight: commit the handoff first (lease.go), then
			// judge the write against the updated record.
			if !n.inferHandoff(r, guard, ls, int(m.Origin), uint32(m.Seq)) {
				n.stats.Suppressed++
				n.emit(obs.EvSuppressed, r.cfg.ID, int64(m.Var), obs.ReasonNotHolder)
				return
			}
		}
		if m.Seq < uint64(ls.foreignEpoch) {
			n.stats.Suppressed++
			n.emit(obs.EvSuppressed, r.cfg.ID, int64(m.Var), obs.ReasonStaleGrant)
			return
		}
	}
	rv.auth, rv.written = m.Val, true
	n.multicast(r, wire.Message{
		Type:    wire.TSeqUpdate,
		Group:   m.Group,
		Src:     int32(n.id),
		Origin:  m.Origin,
		Var:     m.Var,
		Val:     m.Val,
		Guarded: m.Guarded,
	})
}

// rootLockReq queues or grants a lock request. A retry from a current
// holder re-announces its entry (covering an entry multicast that died
// with a deposed root) without minting a new one; retries from queued
// waiters are ignored. A request for the session already open enters
// concurrently — but only while nobody else waits, so a queued foreign
// session is never starved by a stream of same-session joins (the
// fairness rule of group mutual exclusion).
func (n *Node) rootLockReq(r *rootGroup, m *wire.Message) {
	l := LockID(m.Lock)
	ls := r.lock(l)
	origin := int(m.Origin)
	token := uint32(m.Seq)
	sess := m.Session
	if m.Deadline != 0 && m.Deadline <= n.clock.Now().UnixNano() {
		// The caller already gave up on this acquisition; queueing (or
		// re-announcing) would grant into the void and bounce. Its cancel
		// is on the way — and if the grant raced ahead of the deadline,
		// cancellation releases it through the normal path.
		n.stats.DeadlineDrops++
		return
	}
	if h := ls.held.find(origin); h != nil {
		if ls.parked(origin) {
			// Designated but not yet announced: the retry changes nothing,
			// and announcing early would leak the grant past the quorum
			// watermark. serviceQuorum sends it when commit catches up.
			return
		}
		if n.leasing() && ls.leaseTo == origin && m.Var != 0 &&
			m.Var == ls.leaseEpoch && h.token == token {
			// Lease renewal: the holder quotes its lease's grant epoch in
			// Var (ordinary retries carry zero) and its granted token.
			// Extend while nobody waits; with waiters the answer is the
			// revoke demand, re-sent here in case the original was lost.
			now := n.clock.Now()
			if len(ls.queue) == 0 {
				ls.leaseExpiry = now.Add(n.leaseTTL)
				n.stats.LeaseGrants++
				n.send(origin, wire.Message{
					Type:     wire.TLeaseGrant,
					Group:    uint32(r.cfg.ID),
					Src:      int32(n.id),
					Origin:   int32(ls.leaseToken),
					Lock:     uint32(l),
					Var:      ls.leaseEpoch,
					Deadline: int64(n.leaseTTL),
					Epoch:    r.epoch,
				})
			} else {
				n.sendLeaseRevoke(r, l, ls, now)
			}
			return
		}
		// Re-announce with the granted request's token, not the retry's:
		// if they differ the member has moved on to a new acquisition and
		// must decline this entry (its decline releases it here and its
		// retry re-queues the new request).
		n.multicast(r, wire.Message{
			Type:    wire.TSeqLock,
			Group:   uint32(r.cfg.ID),
			Src:     int32(n.id),
			Origin:  int32(h.token),
			Lock:    uint32(l),
			Var:     h.epoch,
			Val:     GrantValue(origin),
			Session: ls.held.session,
		})
		return
	}
	for i := range ls.queue {
		if ls.queue[i].node == origin {
			// Duplicate. A retry reuses its acquisition token, so a
			// differing one means this entry's request was cancelled but
			// the cancel was lost — the newer acquisition supersedes it.
			// Either way the retry's deadline is the freshest word on when
			// the caller gives up.
			ls.queue[i].token = token
			ls.queue[i].deadline = m.Deadline
			ls.queue[i].session = sess
			return
		}
	}
	if !ls.free() {
		if shares(sess, ls.held.session) && len(ls.queue) == 0 {
			// Concurrent entering: the requested session is already open
			// and nobody waits, so the requester joins it immediately.
			// Once any other session queues, later same-session requests
			// line up behind it instead — the open session drains and the
			// waiter gets its turn within one section churn.
			n.stats.SessionJoins++
			n.grant(r, l, ls, lockWaiter{origin, token, m.Deadline, sess})
			return
		}
		ls.queue = append(ls.queue, lockWaiter{origin, token, m.Deadline, sess})
		n.emit(obs.EvLockQueued, r.cfg.ID, int64(l), int64(origin))
		if ls.leaseTo >= 0 {
			// The lock is leased out and now has a waiter: demand it back.
			// The demand re-sends from the lease tick until the return (or
			// the holder's release) lands.
			n.sendLeaseRevoke(r, l, ls, n.clock.Now())
		}
		return
	}
	// A free lock always designates the requester immediately; grant
	// itself defers the multicast when the quorum watermark has not
	// caught up, so the lock never sits holderless across the park.
	n.grant(r, l, ls, lockWaiter{origin, token, m.Deadline, sess})
}

// rootLockRel removes origin from the holder set, validating the quoted
// entry epoch so a duplicated release cannot free a later entry by the
// same node, and — when the section closes — immediately appends the
// next grant behind the closing section's (already sequenced) data.
func (n *Node) rootLockRel(r *rootGroup, m *wire.Message) {
	l := LockID(m.Lock)
	ls := r.lock(l)
	origin := int(m.Origin)
	if !ls.holdsAt(origin, m.Var) {
		// A release quoting exactly the epoch the newest handoff hint
		// reserved is the new holder already leaving a section this
		// manager has not committed yet (the notice is in flight): commit
		// the transfer first, then re-validate (lease.go).
		if !n.inferHandoff(r, l, ls, origin, m.Var) || !ls.holdsAt(origin, m.Var) {
			return // stale or duplicate release
		}
	}
	n.leaveLock(r, l, ls, origin)
}

// rootLockCancel withdraws origin's request from the queue. If the grant
// raced the cancellation, origin's entry is released on its behalf
// instead, so an aborted acquisition can never strand the queue.
func (n *Node) rootLockCancel(r *rootGroup, m *wire.Message) {
	l := LockID(m.Lock)
	ls := r.lock(l)
	origin := int(m.Origin)
	n.stats.LockCancels++
	n.emit(obs.EvLockCancel, r.cfg.ID, int64(l), int64(origin))
	if ls.holds(origin) {
		n.leaveLock(r, l, ls, origin)
		return
	}
	for i, q := range ls.queue {
		if q.node == origin {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			if ls.hintNode == origin {
				// The designated handoff target withdrew. The holder may
				// still transfer to it (its hint is already out); the
				// notice path re-validates and the decline machinery
				// returns the lock if the waiter is truly gone.
				ls.hintNode = -1
			}
			return
		}
	}
}

// leaveLock removes origin from the holder set. While other holders of
// the open session remain, only a leave notice is multicast; when the
// last holder leaves the section closes and the next waiter's section
// opens (together with every queued waiter of the same session — they
// all enter concurrently), or the free value is multicast when nobody
// is queued. Under SetQuorumAcks a handoff's *announcement* is deferred
// until a quorum of members acked everything sequenced so far — the
// closing section's data in particular — so the next holder can never
// observe (and build on) writes that a root failover could lose; the
// winner itself is designated at once (see lockState.pending).
func (n *Node) leaveLock(r *rootGroup, l LockID, ls *lockState, origin int) {
	sess := ls.held.session
	notice := wire.Message{
		Type:    wire.TSeqLock,
		Group:   uint32(r.cfg.ID),
		Src:     int32(n.id),
		Lock:    uint32(l),
		Var:     n.leave(ls, origin),
		Val:     RequestValue(origin),
		Session: sess,
	}
	if !ls.free() {
		// The session stays open; tell the group this holder is out so
		// member-side holder sets (and waiters on them) stay exact.
		n.multicast(r, notice)
		return
	}
	if sess != 0 {
		n.stats.SessionCloses++
		n.emit(obs.EvSessClose, r.cfg.ID, int64(l), int64(sess))
	}
	if n.quorumAcks {
		ls.needSeq = r.ring.seq()
	}
	next, ok := n.popWaiter(ls)
	if !ok {
		// Nobody waiting: propagate the free value to all group memories.
		n.emit(obs.EvLockFree, r.cfg.ID, int64(l), 0)
		n.multicast(r, wire.Message{
			Type:    wire.TSeqLock,
			Group:   uint32(r.cfg.ID),
			Src:     int32(n.id),
			Lock:    uint32(l),
			Var:     ls.epoch,
			Val:     Free,
			Session: sess,
		})
		return
	}
	if sess != 0 {
		// Handoff out of a session: members still holding the old view
		// must see its last holder leave before the next section's entry
		// frames arrive, so a same-session reopen extends an exact holder
		// set. (An exclusive close needs no notice — the next entry frame
		// opens a new section in member copies by itself, exactly as it
		// always has.)
		n.multicast(r, notice)
	}
	n.grant(r, l, ls, next)
	n.admitSession(r, l, ls)
}

// admitSession grants every queued waiter of the session that just
// opened: concurrent entering means a session's waiters all enter with
// its head, rather than serializing one per section churn. Exclusive
// sections (session 0) admit exactly one holder, so this is a no-op.
func (n *Node) admitSession(r *rootGroup, l LockID, ls *lockState) {
	if ls.free() {
		return
	}
	var now int64
	i := 0
	for i < len(ls.queue) {
		w := ls.queue[i]
		if !shares(w.session, ls.held.session) {
			i++
			continue
		}
		ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
		if w.deadline != 0 {
			if now == 0 {
				now = n.clock.Now().UnixNano()
			}
			if w.deadline <= now {
				n.stats.DeadlineDrops++
				continue
			}
		}
		n.stats.SessionJoins++
		n.grant(r, l, ls, w)
	}
}

// grant designates the winner — holder-set entry, token, and grant
// epoch are assigned immediately — and multicasts the entry, unless the
// quorum-ack watermark has not yet covered the previous section's data,
// in which case only the multicast is deferred (serviceQuorum sends it
// once commit catches up). Designating before the park closes the
// window in which the lock would otherwise sit holderless and a clean
// speculation committing into it would be suppressed not-holder.
func (n *Node) grant(r *rootGroup, l LockID, ls *lockState, w lockWaiter) {
	winner := w.node
	// A classic grant supersedes whatever handoff target the previous
	// grant designated; sendGrant re-reserves from the live queue.
	ls.hintNode = -1
	if ls.free() {
		// Opening a new critical section. The entry is foreign — it rolls
		// other nodes' speculative sections back — unless it re-extends
		// what the previous section already allowed: a reopen of a session
		// it shares, or the same exclusive winner back to back (see
		// lockState.foreignEpoch).
		if !shares(w.session, ls.lastSession) && (w.session != ls.lastSession || winner != ls.lastWinner) {
			ls.foreignEpoch = ls.epoch
		}
		if w.session != 0 {
			n.stats.SessionOpens++
			n.emit(obs.EvSessOpen, r.cfg.ID, int64(l), int64(w.session))
		}
		ls.lastWinner, ls.lastSession = winner, w.session
		ls.held.open(w.session)
	}
	n.enter(ls, winner, w.token)
	if n.quorumAcks && r.commit < ls.needSeq {
		// Durability gate: the winner is designated (its clean speculative
		// writes sequence as holder writes) but must not *learn* of the
		// grant until a quorum holds the prefix its section would build on.
		ls.pending = append(ls.pending, winner)
		n.stats.QuorumAckWaits++
		if ls.deferredAt.IsZero() {
			ls.deferredAt = n.clock.Now()
		}
		n.emit(obs.EvLockParked, r.cfg.ID, int64(l), int64(winner))
		return
	}
	n.sendGrant(r, l, ls, winner)
}

// sendGrant multicasts winner's already-designated entry: its positive
// ID in the lock variable, tagged with its entry epoch and echoing the
// winning request's token so the member can verify the grant answers
// its current acquisition. The frame carries the open session.
func (n *Node) sendGrant(r *rootGroup, l LockID, ls *lockState, winner int) {
	n.stats.LockGrants++
	if !ls.deferredAt.IsZero() && len(ls.pending) == 0 {
		// This handoff sat behind the quorum-ack watermark; record how
		// long durability gated the lock.
		n.metrics.Hist(obs.HistQuorumWait).Record(n.clock.Now().Sub(ls.deferredAt))
		ls.deferredAt = time.Time{}
	}
	n.emit(obs.EvLockGrant, r.cfg.ID, int64(l), int64(winner))
	h := ls.held.find(winner)
	msg := wire.Message{
		Type:    wire.TSeqLock,
		Group:   uint32(r.cfg.ID),
		Src:     int32(n.id),
		Origin:  int32(h.token),
		Lock:    uint32(l),
		Var:     h.epoch,
		Val:     GrantValue(winner),
		Session: ls.held.session,
	}
	// Piggyback the head waiter as the winner's direct-handoff target
	// (lease.go); with nobody queued, lease the lock to the winner
	// instead. Deadline is unused by classic grants, so old members
	// ignore the packing.
	if h := n.reserveHint(r, ls, winner); h != 0 {
		msg.Deadline = h
	}
	n.multicast(r, msg)
	n.maybeLease(r, l, ls, winner)
}

// rootNack retransmits the sequenced range [m.Seq, m.Val] to the
// requester, as far back as the ring's retained window still reaches.
func (n *Node) rootNack(r *rootGroup, m *wire.Message) {
	from, to := m.Seq, uint64(m.Val)
	if to > r.ring.seq() {
		to = r.ring.seq()
	}
	var out []wire.Message
	for s := from; s <= to; s++ {
		h := r.ring.slot(s)
		if h == nil {
			// Overwritten — older than the retained window.
			n.stats.LostHistory++
			continue
		}
		n.stats.Retransmits++
		out = append(out, h.msg)
	}
	// Packed into batch frames when batching is on, so the repair of a
	// dropped batch costs as few frames as the original.
	n.sendStream(int(m.Src), r.cfg.ID, r.epoch, out)
}

// multicast stamps the next sequence number on a down-message, records it
// for retransmission, and fans it out — to every member directly, or to
// the root's tree children when the group uses tree fanout (members relay
// onward in ingest). The root applies locally through the same path, so
// its own member state stays in order.
func (n *Node) multicast(r *rootGroup, m wire.Message) {
	m.Seq = r.ring.tick()
	m.Epoch = r.epoch
	// Fold data messages into the reign digest and checkpoint the
	// cumulative sum at every sequence number (lock traffic folds
	// nothing but still claims a checkpoint slot), so any watermark a
	// member acks within the retained window is comparable directly.
	if m.Type == wire.TSeqUpdate {
		r.digest.Fold(m.Var, m.Seq, m.Val)
	}
	r.ring.publish(&m, r.digest.Sum())
	if r.collecting {
		// Batch collection window: park the stamped message for the single
		// fan-out frame and advance the root's own member state now (tree
		// relay suppressed — rootEndBatch forwards the whole frame).
		r.outBatch = append(r.outBatch, m)
		n.ingestFwd(r.member, &m, false)
		if len(r.outBatch) >= wire.MaxBatch {
			// Keep frames within the codec bound; reopen the window for the
			// rest of the incoming batch.
			n.rootEndBatch(r)
			r.collecting = true
		}
		return
	}
	if !r.cfg.TreeFanout {
		for _, member := range r.cfg.Members {
			if member == n.id {
				continue
			}
			n.push(member, m)
		}
	}
	// Tree mode: ingest forwards to the root's children.
	n.ingest(r.member, &m)
}
