package gwc

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"optsync/internal/integrity"
	"optsync/internal/obs"
	"optsync/internal/topo"
	"optsync/internal/transport"
	"optsync/internal/vclock"
	"optsync/internal/wire"
)

// notifyList wakes blocked waiters when state they watch may have
// changed. Waiters hold a buffered channel; notifications are lossy
// (waiters re-check their predicate), which keeps notifiers non-blocking
// even from the receive loop.
type notifyList struct {
	waiters []chan struct{}
	closed  bool
}

// register adds a waiter channel (buffered, capacity 1); a closed list
// closes it at once. The caller must unregister it.
func (nl *notifyList) register(ch chan struct{}) {
	if nl.closed {
		close(ch)
		return
	}
	nl.waiters = append(nl.waiters, ch)
}

func (nl *notifyList) unregister(ch chan struct{}) {
	if i := slices.Index(nl.waiters, ch); i >= 0 {
		nl.waiters = slices.Delete(nl.waiters, i, i+1)
	}
}

// notifyAll pokes every waiter without blocking.
func (nl *notifyList) notifyAll() {
	for _, ch := range nl.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// closeAll permanently wakes all current and future waiters (node
// shutdown).
func (nl *notifyList) closeAll() {
	if nl.closed {
		return
	}
	nl.closed = true
	for _, ch := range nl.waiters {
		close(ch)
	}
	nl.waiters = nil
}

// memberVar is everything a member keeps about one shared variable. The
// fields every applied write touches come first, so the common case
// stays within the record's first cache line.
type memberVar struct {
	// val is the local copy; written is false until something stored to
	// it (an unwritten variable reads as zero, and election reports and
	// promotions carry only written ones).
	val     int64
	written bool
	// guard is the lock guarding the variable when guarded is set (a
	// mutex data group): the root discards writes to it from non-holders,
	// and origins drop their echoes (hardware blocking).
	guarded bool
	// eagerOut marks a guarded local store whose root echo has not come
	// back yet; eagerMsg is its carrier frame (eagerMsg.Val the stored
	// value). Hardware blocking normally drops own echoes outright, but a
	// failover snapshot can re-base the local copy to a cut taken before
	// the write was sequenced — rolling the eager store back. The echo is
	// then the only message that carries the write, so applyData lets the
	// newest own echo through instead of suppressing it.
	eagerOut bool
	// busy: listed in the group's busyVars (see memberGroup).
	busy  bool
	guard LockID
	// hooks observe applied data updates (Watch).
	hooks []hook[func(int64)]
	// batchSlot is the variable's slot in the write-coalescing queue plus
	// one (batch.go), zero when it has no write queued: an in-window
	// rewrite combines into the slot instead of appending.
	batchSlot int
	// The eager store's frame is kept because the member-to-root update
	// hop is the protocol's one unacknowledged send: every other loss is
	// repaired by NACKs, probes, or per-request retries, but a dropped (or
	// checksum-discarded) update frame would lose the write silently. The
	// maintenance tick re-ships it on eagerB's schedule until the echo
	// lands. Duplicate sequencing is harmless — the value is identical and
	// hardware blocking drops the extra echo — and the root's grant-epoch
	// gate still judges a late re-send exactly as it would have judged
	// the original.
	eagerB   backoff
	eagerMsg wire.Message
}

// memberLock is everything a member keeps about one lock.
type memberLock struct {
	// held is the local copy of the lock's open section: who is inside,
	// and in which session (holders.go). This node is in it exactly while
	// it is inside the lock — or holds an idle lease on it, the cached
	// exclusive entry lease.go keeps across releases. The paper's lock
	// word (value) and SessionInfo are read off it.
	held holderSet
	// grantEpoch is the newest grant epoch observed for the lock: guarded
	// writes are tagged with it (Write), and state streams carry it.
	grantEpoch uint32
	// lockDone is the highest grant epoch this node has finished with
	// (released or handed back). A self-grant at or below it is a stale
	// duplicate — e.g. the root's re-announce of a grant whose original
	// multicast this node already consumed and released — and must not
	// be mistaken for the grant of a later acquisition.
	lockDone uint32

	// want marks a lock this node has requested and not yet released or
	// cancelled. A grant arriving for an unwanted lock is auto-released,
	// so a lost cancel message cannot strand the lock.
	want bool
	// reqToken numbers this node's logical acquisitions of the lock. A
	// fresh token is minted when a request goes out with none
	// outstanding; retries of the same acquisition reuse it. The root
	// echoes the winner's token in the grant multicast, and a self-grant
	// is consumed only when that echo matches the outstanding request:
	// a grant minted for a since-cancelled request (which the root's
	// cancel handling auto-releases) can therefore never be mistaken for
	// the answer to a newer acquisition — consuming one would leave this
	// node inside a section the root already handed to someone else.
	reqToken uint32
	// reqSession is the session the outstanding acquisition wants to enter
	// (0 = exclusive), reused by request retries.
	reqSession uint32
	// reqSince stamps when the in-flight acquisition minted its token, for
	// the stuck-operation watchdog (watchdog.go); zero when none is.
	reqSince time.Time
	// reqDeadline is the caller's give-up time for the outstanding
	// acquisition (Unix nanoseconds, 0 = none); every request frame quotes
	// it, so the root can drop the request instead of granting into the
	// void.
	reqDeadline int64
	// reqB schedules the request's next re-send; the maintenance tick
	// drives it (retryLocks). Armed by every request frame, reset when the
	// reign changes and when the lock's grant epoch moves: the delay was
	// sized against a world that no longer exists.
	reqB backoff
	// parked counts the callers blocked in WaitEnteredContext on behalf of
	// an acquisition of this lock. While it is non-zero and the lock is not
	// entered, the tick keeps a request alive — minting a fresh one if a
	// rejoin or a re-base wiped the record under the waiter — and
	// forgetState keeps the count: the callers are still there.
	parked int
	// busy: listed in the group's busyLocks (see memberGroup).
	busy bool

	// Lock leasing and peer handoff (lease.go): lease is this node's
	// cached claim; hint the handoff target the root designated on the
	// newest grant; pendingHandoff the unacknowledged root-bound notice;
	// handoffIn a direct grant parked on its sequence watermark.
	lease          *memberLease
	hint           handoffHint
	pendingHandoff *handoffNotice
	handoffIn      *wire.Message

	// lockHooks run (under the node lock) on every lock-value change;
	// the optimistic engine uses them as the paper's interrupt. A hook
	// returning HookSuspend parks insharing atomically with the interrupt.
	lockHooks []hook[LockHook]
	// spec is the interrupt of the section speculating on the lock and
	// specSession the session it wants (speculate.go); nil when none is.
	// It lives here beside the hooks so that arming it is a store in the
	// hold that sends the request, and dropping it one in the hold that
	// frees the lock.
	spec        Interrupt
	specSession uint32
}

// value projects the paper's lock word from the record: the grant of an
// exclusive section's holder, else this node's own request marker, else
// Free. (A shared section reads as Free here; SessionState carries it.)
func (lk *memberLock) value(self int) int64 {
	switch {
	case len(lk.held.in) > 0 && lk.held.session == 0:
		return GrantValue(lk.held.in[0].node)
	case lk.want && !lk.held.has(self):
		return RequestValue(self)
	}
	return Free
}

// sawGrant records a newly observed grant epoch. The lock moved, so an
// outstanding request's retry restarts at base cadence (e.g. a lease
// granted mid-retry means the next change is the revoke answer, which
// deserves a prompt re-register).
func (lk *memberLock) sawGrant(epoch uint32) {
	if epoch != lk.grantEpoch {
		lk.grantEpoch = epoch
		lk.reqB.reset()
	}
}

// inside reports whether node self is inside the lock, in the given
// session.
func (lk *memberLock) inside(self int, session uint32) bool {
	return lk.held.session == session && lk.held.has(self)
}

// inUse reports whether this node is inside the lock or acquiring it:
// an acquisition outstanding or held (want stays set until the release),
// a caller parked for one, or a leased re-entry.
func (lk *memberLock) inUse() bool {
	return lk.want || lk.parked > 0 || (lk.lease != nil && lk.lease.held)
}

// endRequest closes the outstanding acquisition's bookkeeping: released,
// cancelled, or handed on.
func (lk *memberLock) endRequest() {
	lk.want = false
	lk.reqSince = time.Time{}
	lk.reqSession = 0
	lk.reqDeadline = 0
}

// memberGroup is one node's member-side state for a sharing group.
type memberGroup struct {
	// cfg is the joined configuration. Its Guards map is consumed at Join:
	// each variable's guard lives in its record.
	cfg GroupConfig

	// vars and locks hold the one record per variable and per lock,
	// indexed by ID (table.go). parkedHandoffs counts lock records with a
	// handoffIn, so the per-message check for deliverable direct grants is
	// a comparison, not a scan.
	vars           table[VarID, memberVar]
	locks          table[LockID, memberLock]
	parkedHandoffs int
	// busyLocks and busyVars list, ascending, the records that carry state
	// the maintenance tick and the lease paths visit: a lock with an
	// acquisition stamp or any lease/handoff state, a variable with an
	// unconfirmed eager store. They walk these lists, not the tables, so
	// their cost follows what is in flight and not the highest ID seen.
	// Setting such state marks the record; clearing it does nothing, and
	// the tick's sweepBusy unlists what went idle.
	busyLocks []LockID
	busyVars  []VarID

	// storeSeq stamps every guarded update with a per-group nonce
	// (carried in the frame's otherwise-unused Deadline field) so the
	// root can tell a loss-recovery re-send from a fresh store and
	// disposition each store exactly once (see rootUpdate).
	storeSeq uint64

	// Sequenced-stream reassembly.
	nextSeq  uint64
	pending  map[uint64]wire.Message
	lastNack time.Time

	// Crash-fault tolerance (failover.go): epoch counts root reigns and
	// rootID is the root this member currently follows; lastRoot is the
	// last proof of life (heartbeat or sequenced traffic) from it.
	epoch    uint32
	rootID   int
	lastRoot time.Time

	// Election bookkeeping while the root is suspected dead.
	suspected  map[int]bool
	electing   bool
	electEpoch uint32
	electBegan time.Time

	// Peer state reports collected while this node is the election
	// candidate, keyed by reporter; reportEpoch is the election they
	// belong to.
	reports     map[int]*snapReport
	reportEpoch uint32

	// Snapshot catch-up after adopting a new root's epoch.
	snapWanted bool
	snapBuf    *snapReport
	snapBufSeq uint64
	lastNotice time.Time

	// Crash recovery (rejoin.go): rejoining marks a restarted member
	// waiting for the root's re-admission handshake. joinToken numbers
	// this member's rejoin attempts; the root remembers the last token
	// it served per member and answers retries idempotently instead of
	// re-freeing locks the member may have re-acquired since.
	rejoining   bool
	joinToken   uint32
	rejoinBegan time.Time

	// Adaptive-retry schedules (backoff.go), one per resend path the
	// maintenance tick drives. probeSeq is the stream position the last
	// probe was sent at: movement resets the probe's schedule, so only a
	// member with nothing to repair backs off.
	joinB    backoff
	snapB    backoff
	probeB   backoff
	probeSeq uint64

	// Quorum-ack plumbing (fence.go): acked is the highest sequence
	// number this member has explicitly acknowledged to the root this
	// reign; syncPending holds outstanding Sync barriers by token and
	// syncToken mints them.
	acked       uint64
	syncToken   uint64
	syncPending map[uint64]*syncWaiter

	// Insharing suspension (optimistic rollback window): data updates are
	// parked, lock updates still flow.
	suspended bool
	suspendQ  []wire.Message

	// hookSeq mints the tokens hooks are registered under.
	hookSeq uint64

	// children are this node's spanning-tree children when the group
	// uses tree fanout.
	children []int

	// Write-coalescing queue (batch.go): outgoing updates awaiting a
	// size/delay/release-boundary flush.
	batchQ     []wire.Message
	batchTimer vclock.Timer
	// batchFirst is when the oldest write in batchQ was enqueued; the
	// flush latency histogram measures from here, so it captures the
	// real queueing delay a coalesced write experienced.
	batchFirst time.Time

	// digest accumulates every sequenced data apply — the member's half
	// of the anti-entropy protocol (integrity.go). It is reset on every
	// wholesale re-base (new reign, rejoin, snapshot) and re-anchored to
	// the root's sum carried on TSnapDone.
	digest integrity.Digest
	// diverged marks that a digest comparison convicted this member's
	// copy: the value plane cannot be trusted until the corrective
	// snapshot re-bases it. Health counts it and ReadStale refuses to
	// serve from it.
	diverged bool

	data notifyList
	lock notifyList
}

func newMemberGroup(id int, cfg GroupConfig, now time.Time) *memberGroup {
	var children []int
	if cfg.TreeFanout {
		// The config was validated at Join time; the tree over the torus
		// embedding is deterministic, so every member derives the same
		// one.
		tree, err := topo.SpanningTree(topo.MustNew(len(cfg.Members)), cfg.Root)
		if err != nil {
			panic(fmt.Sprintf("gwc: spanning tree: %v", err))
		}
		children = tree.Children[id]
	}
	g := &memberGroup{
		children:    children,
		cfg:         cfg,
		nextSeq:     1,
		pending:     make(map[uint64]wire.Message),
		rootID:      cfg.Root,
		lastRoot:    now,
		suspected:   make(map[int]bool),
		syncPending: make(map[uint64]*syncWaiter),
	}
	for v, l := range cfg.Guards {
		mv := g.vars.at(v)
		mv.guarded, mv.guard = true, l
	}
	g.cfg.Guards = nil
	return g
}

// forgetState drops every record's volatile state: what a restarted
// process has lost (rejoin.go). Guards are configuration and hooks
// belong to callers that are still there, so both stay; reqToken keeps
// counting, so a grant minted for a pre-crash request can never match a
// later one. Callers parked in a lock wait are still there too: their
// lock stays listed with what they asked for, and the tick mints them a
// fresh request (retryLocks).
func (g *memberGroup) forgetState() {
	for i := range g.vars.recs {
		mv := &g.vars.recs[i]
		*mv = memberVar{guarded: mv.guarded, guard: mv.guard, hooks: mv.hooks}
	}
	g.parkedHandoffs = 0
	g.busyLocks, g.busyVars = g.busyLocks[:0], g.busyVars[:0]
	for i := range g.locks.recs {
		lk := &g.locks.recs[i]
		kept := memberLock{reqToken: lk.reqToken, lockHooks: lk.lockHooks, spec: lk.spec, specSession: lk.specSession}
		if lk.parked > 0 {
			kept.parked, kept.reqSession, kept.reqDeadline = lk.parked, lk.reqSession, lk.reqDeadline
			kept.busy = true
			g.busyLocks = append(g.busyLocks, LockID(i))
		}
		*lk = kept
	}
}

// markBusy lists record id (whose busy flag is *busy) unless it already
// is, keeping the list in ID order: the order the tick visited map keys
// in, and table order.
func markBusy[K ~uint32](list *[]K, busy *bool, id K) {
	if !*busy {
		*busy = true
		i, _ := slices.BinarySearch(*list, id)
		*list = slices.Insert(*list, i, id)
	}
}

// sweepBusy unlists the records whose tick-driven state is gone.
func (g *memberGroup) sweepBusy() {
	g.busyLocks = slices.DeleteFunc(g.busyLocks, func(l LockID) bool {
		lk := &g.locks.recs[l]
		lk.busy = !lk.reqSince.IsZero() || lk.parked > 0 || lk.lease != nil || lk.hint.set ||
			lk.pendingHandoff != nil || lk.handoffIn != nil
		return !lk.busy
	})
	g.busyVars = slices.DeleteFunc(g.busyVars, func(v VarID) bool {
		mv := &g.vars.recs[v]
		mv.busy = mv.eagerOut
		return !mv.busy
	})
}

// resetRetrySchedules forgets every adaptive-retry schedule in the
// group. It is rebase's: when the member comes to follow a reign, the
// first retry of every outstanding operation fires on the next
// maintenance tick instead of waiting out a backoff armed against the
// old regime.
func (g *memberGroup) resetRetrySchedules() {
	g.joinB.reset()
	g.snapB.reset()
	g.probeB.reset()
	g.probeSeq = g.nextSeq
	for _, sw := range g.syncPending {
		sw.bo.reset()
	}
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		lk.reqB.reset()
		if lk.lease != nil {
			lk.lease.renewB.reset()
		}
		if lk.pendingHandoff != nil {
			lk.pendingHandoff.bo.reset()
		}
	}
}

// lockValue is node self's lock word for lock l (memberLock.value), Free
// for a lock never seen. It never grows the table.
func (g *memberGroup) lockValue(l LockID, self int) int64 {
	if lk := g.locks.peek(l); lk != nil {
		return lk.value(self)
	}
	return Free
}

// varValue is the local copy of v, zero for one never written. It never
// grows the table.
func (g *memberGroup) varValue(v VarID) int64 {
	if mv := g.vars.peek(v); mv != nil {
		return mv.val
	}
	return 0
}

// lockOf resolves an API call's group and lock record, growing the lock
// table to hold it. Caller holds n.mu.
func (n *Node) lockOf(gid GroupID, l LockID) (*memberGroup, *memberLock, error) {
	g, err := n.group(gid)
	if err != nil {
		return nil, nil, err
	}
	if l >= maxRecords {
		return nil, nil, idErr(gid, "lock", uint32(l))
	}
	return g, g.locks.at(l), nil
}

// varOf is lockOf for a variable. Caller holds n.mu.
func (n *Node) varOf(gid GroupID, v VarID) (*memberGroup, *memberVar, error) {
	g, err := n.group(gid)
	if err != nil {
		return nil, nil, err
	}
	if v >= maxRecords {
		return nil, nil, idErr(gid, "variable", uint32(v))
	}
	return g, g.vars.at(v), nil
}

// forwardDown relays a fresh sequenced message to this node's tree
// children. Caller holds n.mu.
func (n *Node) forwardDown(g *memberGroup, m *wire.Message) {
	for _, child := range g.children {
		n.stats.Forwarded++
		n.push(child, *m)
	}
}

// ingest performs sequence reassembly for a sequenced message, then
// applies in-order messages. Caller holds n.mu. Fresh messages are
// relayed down the spanning tree before local processing when the group
// uses tree fanout; duplicates (including retransmissions of messages the
// subtree already has) are not re-forwarded — descendants that are still
// missing them NACK the root directly.
func (n *Node) ingest(g *memberGroup, m *wire.Message) {
	n.ingestFwd(g, m, true)
}

// ingestFwd is ingest with the tree relay controllable: batch frames are
// forwarded whole (handleBatch), so their inner messages ingest with
// forward=false instead of being re-sent one by one. m is read in place
// (it usually points into the drained receive batch) and copied only
// where it must outlive the call. Caller holds n.mu.
func (n *Node) ingestFwd(g *memberGroup, m *wire.Message, forward bool) {
	if m.Epoch != g.epoch {
		if m.Epoch < g.epoch {
			// A deposed root (or a retransmission from its reign) is still
			// multicasting: its sequence numbering no longer means anything
			// here.
			n.stats.StaleEpochRejected++
			n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
			return
		}
		n.adoptEpoch(g, m.Epoch, int(m.Src))
		if m.Epoch != g.epoch {
			return // adoption declined (e.g. hearsay self-promotion)
		}
	}
	// Sequenced traffic from the current root is proof of life; the
	// dispatch timestamp (stamped once per dispatch/tick lock hold) stands
	// in for a per-message clock read. The root applying its own
	// multicast locally skips the stamp — it never failure-detects
	// itself, and that apply can run outside a dispatch (a write API
	// call), where msgNow would be stale.
	if g.rootID != n.id {
		g.lastRoot = n.msgNow
	}
	g.electing = false
	switch {
	case m.Seq < g.nextSeq:
		n.stats.Duplicates++
		return
	case g.snapWanted:
		// Not re-based into this reign yet: the stream and the snapshot
		// are unordered on the wire, and applying live traffic against
		// pre-snapshot state breaks the stream's ordering guarantee — a
		// failover lock grant could start a critical section that reads
		// pre-merge data. Park everything; snapApply discards what the
		// snapshot's cut covers and replays the rest in order.
		if _, dup := g.pending[m.Seq]; !dup {
			g.pending[m.Seq] = *m
			if forward {
				n.forwardDown(g, m)
			}
		}
		return
	case m.Seq > g.nextSeq:
		if _, dup := g.pending[m.Seq]; !dup {
			g.pending[m.Seq] = *m
			n.stats.Gaps++
			if forward {
				n.forwardDown(g, m)
			}
		}
		n.maybeNack(g)
		return
	}
	if forward {
		n.forwardDown(g, m)
	}
	n.applySeq(g, m)
	g.nextSeq++
	n.drainPending(g)
	// The prefix advanced: direct handoff grants parked on a sequence
	// watermark may be deliverable now.
	n.deliverHandoffs(g)
}

// drainPending applies the buffered messages that now continue the
// prefix. Caller holds n.mu.
func (n *Node) drainPending(g *memberGroup) {
	for len(g.pending) > 0 {
		next, ok := g.pending[g.nextSeq]
		if !ok {
			return
		}
		delete(g.pending, g.nextSeq)
		n.applySeq(g, &next)
		g.nextSeq++
	}
}

// maybeNack asks the root to retransmit the missing range, rate-limited
// so a burst of out-of-order arrivals produces one request.
func (n *Node) maybeNack(g *memberGroup) {
	if len(g.pending) == 0 {
		return
	}
	now := n.clock.Now()
	if now.Sub(g.lastNack) < 5*time.Millisecond {
		return
	}
	g.lastNack = now
	// Request everything from the first missing seq up to the highest
	// buffered one; the root re-sends the whole range and duplicates are
	// dropped here.
	maxSeq := g.nextSeq
	for s := range g.pending {
		if s > maxSeq {
			maxSeq = s
		}
	}
	n.stats.Nacks++
	n.send(g.rootID, wire.Message{
		Type:  wire.TNack,
		Group: uint32(g.cfg.ID),
		Src:   int32(n.id),
		Seq:   g.nextSeq,
		Val:   int64(maxSeq),
		Epoch: g.epoch,
	})
}

// maybeSendAck tells the root how far this member's contiguous prefix
// reaches, once per advance, feeding the quorum commit watermark
// (fence.go). Sent only under quorum acks — without them the periodic
// resync probe carries the same information at no extra cost. Callers
// invoke it once per incoming frame, not per message, so a batch costs
// one ack. Caller holds n.mu.
func (n *Node) maybeSendAck(g *memberGroup) {
	if !n.quorumAcks || g.rootID == n.id || g.rejoining || g.nextSeq == 0 {
		return
	}
	applied := g.nextSeq - 1
	if applied <= g.acked {
		return
	}
	g.acked = applied
	n.send(g.rootID, wire.Message{
		Type:  wire.TAck,
		Group: uint32(g.cfg.ID),
		Src:   int32(n.id),
		Seq:   applied,
		Epoch: g.epoch,
	})
}

// applySeq applies one in-order sequenced message. Caller holds n.mu.
func (n *Node) applySeq(g *memberGroup, m *wire.Message) {
	switch m.Type {
	case wire.TSeqUpdate:
		if n.misapply != nil {
			// Test-only corruption past the wire checksum: whatever the
			// hook mutates is what this member folds and applies, so the
			// digest faithfully reflects the (corrupted) local state and
			// the root's sweep must catch the mismatch. The hook gets a
			// copy: handing it m would make every caller's message escape
			// to the heap even with the hook unset.
			mm := *m
			n.misapply(&mm)
			m = &mm
		}
		g.digest.Fold(m.Var, m.Seq, m.Val)
		if g.suspended {
			// Insharing suspension: hold data back until the rollback
			// finishes so restored values are not clobbered.
			g.suspendQ = append(g.suspendQ, *m)
			return
		}
		n.applyData(g, m)
	case wire.TSeqLock:
		n.applyLock(g, m)
	}
}

// sendRelease hands a grant (or a session entry) back to the root,
// quoting the entry epoch it closes. Caller holds n.mu.
func (n *Node) sendRelease(g *memberGroup, l LockID, entryEpoch, session uint32) {
	n.send(g.rootID, wire.Message{
		Type:    wire.TLockRel,
		Group:   uint32(g.cfg.ID),
		Src:     int32(n.id),
		Origin:  int32(n.id),
		Lock:    uint32(l),
		Var:     entryEpoch,
		Epoch:   g.epoch,
		Session: session,
	})
}

// runLockHooks fires the lock's value hooks with val. Caller holds n.mu.
func (g *memberGroup) runLockHooks(lk *memberLock, val int64) {
	for _, h := range lk.lockHooks {
		if h.fn(val) == HookSuspend {
			// The paper's atomic interrupt-and-sharing-suspension: no data
			// update can slip in between the lock change that triggers the
			// rollback and the suspension.
			g.suspended = true
		}
	}
}

// lostClaim records that the sequenced stream (or a re-base) put someone
// else in the lock, or nobody: any cached lease is dead. Mid-section the
// Release in progress returns it; idle it just evaporates.
func (lk *memberLock) lostClaim() {
	if le := lk.lease; le != nil {
		if le.held {
			le.revoked = true
		} else {
			lk.lease = nil
		}
	}
}

// caughtUp retires this node's handoff notice once a lock frame shows the
// root's epoch at or past the transfer: it is committed there.
func (lk *memberLock) caughtUp(epoch uint32) {
	if ph := lk.pendingHandoff; ph != nil && epoch >= ph.doneEpoch {
		lk.pendingHandoff = nil
	}
}

// applyLock installs one sequenced lock frame, the one reader of TSeqLock
// (and of a direct handoff grant, which is laid out like the entry it
// stands in for): an entry (Val > 0: the entrant's grant value, Session
// its session, Var its entry epoch, Origin the token of the request it
// answers, Deadline a packed handoff hint or 0), a holder leaving a
// section that stays open (Val its request-encoded ID), or the close
// (Val == Free). Caller holds n.mu.
func (n *Node) applyLock(g *memberGroup, m *wire.Message) {
	l := LockID(m.Lock)
	lk := g.locks.at(l)
	lk.caughtUp(m.Var)
	switch {
	case m.Val > 0:
		n.applyEntry(g, l, lk, m)
		return
	case m.Val == Free:
		lk.held.in = lk.held.in[:0]
		lk.hint = handoffHint{}
		lk.lostClaim()
		g.runLockHooks(lk, Free)
	case lk.held.session == m.Session:
		lk.held.drop(holderOf(-m.Val))
	}
	g.lock.notifyAll()
}

// applyEntry is applyLock's entry half. An entry into a session the open
// section shares extends it; any other opens a new section in its place
// — an exclusive close sends no notice of its own, the next entry is the
// notice. A self-entry is consumed only when its echoed token matches
// this node's outstanding request: one arriving for a lock this node no
// longer wants, or answering a since-cancelled request, is handed back
// on the spot, so a later acquisition cannot mistake it for its own.
// Caller holds n.mu.
func (n *Node) applyEntry(g *memberGroup, l LockID, lk *memberLock, m *wire.Message) {
	s, epoch := m.Session, m.Var
	h := holder{node: holderOf(m.Val), epoch: epoch, token: uint32(m.Origin)}
	self := h.node == n.id
	if self && epoch <= lk.lockDone {
		// Stale duplicate of an entry this node already finished with (a
		// re-announce the root minted for a racing request retry). Taking
		// it would let a later acquisition run unlocked, so it must not
		// enter the copy; the stream's next lock frame supersedes it
		// everywhere else too. But answer it with a release quoting the
		// stale epoch: a root that still books this node as a holder lost
		// the original release (e.g. it fell past the fenced-queue bound
		// during a partition) and would otherwise re-announce forever while
		// we ignore it forever — the reply breaks that livelock, and a root
		// that has moved on discards it as stale.
		n.sendRelease(g, l, epoch, s)
		return
	}
	// An entry this node already consumed (the copy shows it inside) is
	// only ever the root's re-announce of that same entry, so it is taken
	// again whatever its token.
	had := lk.inside(n.id, s)
	if shares(s, lk.held.session) && len(lk.held.in) > 0 {
		// Re-announces of earlier entrants carry their older epochs.
		epoch = max(epoch, lk.grantEpoch)
	} else {
		lk.held.open(s)
	}
	// Record the observed epoch even for an entry about to be declined:
	// the next speculation tags its writes with grantEpoch, and leaving it
	// stale would make the root suppress a *committed* section's writes as
	// StaleGrant — silent data loss.
	lk.sawGrant(epoch)
	if self && !had && (!lk.want || h.token != lk.reqToken) {
		// Unwanted, or minted for a different acquisition than the one
		// outstanding (a cancel in flight, or a token-less failover
		// re-queue): hand it straight back. When a live request is
		// outstanding the periodic retry re-registers with the root, so a
		// declined entry costs one round trip, never liveness.
		lk.lockDone = max(lk.lockDone, h.epoch)
		n.sendRelease(g, l, h.epoch, s)
		g.lock.notifyAll()
		return
	}
	lk.held.put(h)
	// Capture (or clear) the handoff target the root designated for this
	// entry. A re-announce without a hint clears a stale one: the queue
	// the old hint peeked no longer exists.
	lk.hint = handoffHint{}
	if self {
		// Acquisition complete: stop the watchdog's clock on it.
		lk.reqSince = time.Time{}
		if hint := m.Deadline; hint != 0 && n.leasing() {
			if wn := int(uint32(hint)) - 1; wn >= 0 && wn != n.id {
				lk.hint = handoffHint{node: wn, token: uint32(hint >> 32), set: true}
				markBusy(&g.busyLocks, &lk.busy, l)
			}
		}
	} else {
		lk.lostClaim()
	}
	g.runLockHooks(lk, m.Val)
	g.sawEntry(lk, h.node, n.id, s)
	g.lock.notifyAll()
}

// install re-bases a lock's copy from a failover snapshot or a promotion:
// the reconstructed section sec (the lock's newest epoch beside it)
// replaces the local one wholesale. A reconstructed self-entry is kept
// only if the copy already showed this node inside that session — the
// entry tokens died with the old root, so belief is the only validation
// left — and handed back like a declined entry otherwise. Caller holds
// n.mu.
func (n *Node) install(g *memberGroup, l LockID, sec *holderSet, epoch uint32) {
	lk := g.locks.at(l)
	lk.caughtUp(epoch)
	had := lk.inside(n.id, sec.session)
	lk.held.open(sec.session)
	for _, h := range sec.in {
		if h.node == n.id && (!had || h.epoch <= lk.lockDone) {
			lk.lockDone = max(lk.lockDone, h.epoch)
			n.sendRelease(g, l, h.epoch, sec.session)
			continue
		}
		lk.held.put(h)
	}
	lk.sawGrant(epoch)
	lk.hint = handoffHint{}
	if lk.held.has(n.id) {
		lk.reqSince = time.Time{}
	} else {
		lk.lostClaim()
	}
	val := Free
	if len(lk.held.in) > 0 {
		val = GrantValue(lk.held.in[0].node)
	}
	g.runLockHooks(lk, val)
	for _, h := range lk.held.in {
		g.sawEntry(lk, h.node, n.id, lk.held.session)
	}
	g.lock.notifyAll()
}

// applyData installs a data update, honouring hardware blocking.
func (n *Node) applyData(g *memberGroup, m *wire.Message) {
	mv := g.vars.at(VarID(m.Var))
	if m.Guarded && int(m.Origin) == n.id {
		// Hardware blocking (Figure 6): drop root-echoed copies of our own
		// mutex-group writes. The local store already happened at write
		// time; applying the echo could overwrite rollback state — and an
		// echo of an older store must never clobber a newer one.
		//
		// One exception keeps the origin convergent: a failover snapshot
		// may have re-based the local copy to a cut taken before this
		// write was sequenced, rolling the eager store back. The echo of
		// the NEWEST own store (and only that one — older echoes are
		// still superseded locally) is then the only message carrying the
		// write, so it must land. When no re-base happened the re-apply
		// is a no-op and counts as dropped like before.
		restore := mv.eagerOut && mv.eagerMsg.Val == m.Val
		if restore {
			mv.eagerOut = false // confirmed: stop re-shipping
			restore = mv.val != m.Val
		}
		if !restore {
			n.stats.EchoDropped++
			n.emit(obs.EvEchoDropped, g.cfg.ID, int64(m.Var), 0)
			return
		}
		n.stats.EchoRestored++
		n.emit(obs.EvEchoRestored, g.cfg.ID, int64(m.Var), 0)
	}
	mv.val, mv.written = m.Val, true
	for _, h := range mv.hooks {
		h.fn(m.Val)
	}
	g.data.notifyAll()
}

// group looks a member group up. Caller holds n.mu.
func (n *Node) group(id GroupID) (*memberGroup, error) {
	g, ok := n.groups[id]
	if !ok {
		return nil, fmt.Errorf("gwc: node %d has not joined group %d: %w", n.id, id, ErrUnknownGroup)
	}
	return g, nil
}

// Write stores val to the group variable, applying locally at once (the
// writer never blocks under eagersharing) and shipping the change to the
// root for sequencing.
func (n *Node) Write(gid GroupID, v VarID, val int64) error {
	n.mu.Lock()
	g, mv, err := n.varOf(gid, v)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	mv.val, mv.written = val, true
	g.data.notifyAll()
	root := g.rootID
	msg := wire.Message{
		Type:    wire.TUpdate,
		Group:   uint32(gid),
		Src:     int32(n.id),
		Origin:  int32(n.id),
		Var:     uint32(v),
		Val:     val,
		Guarded: mv.guarded,
		Epoch:   g.epoch,
	}
	if mv.guarded {
		// Epoch tag: the root accepts this write only if it is post-grant
		// (tag == current epoch) or a clean speculation (tag+1 == current
		// epoch). A clean speculation provably never rolls back, so a
		// rolled-back section's stale writes can never slip in behind its
		// queued grant — a hole the paper's unconditional critical
		// sections never exposed.
		msg.Seq = uint64(g.locks.at(mv.guard).grantEpoch)
		// Per-store nonce (in the Deadline field, unused by updates):
		// lets the root disposition this store exactly once even when
		// the up-path loss recovery re-ships its frame.
		g.storeSeq++
		msg.Deadline = int64(g.storeSeq)
		// Remember the newest eager store so applyData can tell this
		// write's echo apart from echoes of older, superseded stores —
		// and restore it if a failover snapshot rolled the copy back.
		// The frame itself is kept, with a re-send schedule: if this one
		// unacknowledged hop loses the frame, the maintenance tick
		// re-ships it until the echo confirms sequencing. The schedule is
		// armed from the dispatch timestamp, not a clock read: that is at
		// most one tick stale, so a re-send can only come early, and the
		// root dedupes it by nonce.
		mv.eagerOut = true
		markBusy(&g.busyVars, &mv.busy, v)
		mv.eagerMsg = msg
		mv.eagerB.reset()
		n.arm(&mv.eagerB, n.msgNow, n.boBase(), n.boCap())
	}
	if n.batchMax >= 2 {
		// Batched plane: queue for a size/delay/release flush instead of
		// shipping now. Flush-time transport errors surface via Errors().
		n.enqueueWrite(gid, g, mv, msg)
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	// Pushed, not sent: the caller holds nothing now, so on an idle
	// in-process group this goroutine sequences the write at the root and
	// applies it at every member before it returns (push, gwc.go).
	return transport.Push(n.ep, root, msg)
}

// Read returns the local copy of the group variable (zero if never
// written). Reads are always local under eagersharing.
func (n *Node) Read(gid GroupID, v VarID) (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return 0, err
	}
	return g.varValue(v), nil
}

// LockValue returns this node's lock word for the lock — the paper's lock
// variable, read off the local copy of the open section: the grant value
// of an exclusive section's holder, else this node's own request marker,
// else Free.
func (n *Node) LockValue(gid GroupID, l LockID) (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return 0, err
	}
	return g.lockValue(l, n.id), nil
}

// SessionInfo is a lock's locally observed session state.
type SessionInfo struct {
	Session uint32 // the open session, 0 when none is open locally
	Holders int    // concurrent holders currently observed
	Mine    bool   // whether this node holds an entry
}

// SessionState returns the lock's locally observed session state: the
// open session, how many concurrent holders this node has seen enter
// and not leave, and whether it holds an entry itself. Exclusive
// sections report as no open session — LockValue carries those.
func (n *Node) SessionState(gid GroupID, l LockID) (SessionInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return SessionInfo{}, err
	}
	lk := g.locks.peek(l)
	if lk == nil || len(lk.held.in) == 0 || lk.held.session == 0 {
		return SessionInfo{}, nil
	}
	return SessionInfo{Session: lk.held.session, Holders: len(lk.held.in), Mine: lk.held.has(n.id)}, nil
}

// WaitGE blocks until the local copy of v reaches at least min. It
// returns false if the node closes first.
func (n *Node) WaitGE(gid GroupID, v VarID, min int64) (bool, error) {
	return n.WaitGEContext(context.Background(), gid, v, min)
}

// WaitGEContext is WaitGE with cancellation: it additionally returns
// ctx's error if the context ends before the condition is met. The
// caller parks on one channel and nothing else. A sequence gap stalling
// the value is the maintenance tick's to repair — its probe re-requests
// everything from the next expected sequence number while a gap is open
// — so the wait keeps no timer of its own.
func (n *Node) WaitGEContext(ctx context.Context, gid GroupID, v VarID, min int64) (bool, error) {
	n.mu.Lock()
	g, err := n.group(gid)
	if err != nil {
		n.mu.Unlock()
		return false, err
	}
	// One channel per call, deliberately not pooled: see the note on
	// BenchmarkLiveWaitGE in ci/alloc_baseline.txt.
	ch := make(chan struct{}, 1)
	g.data.register(ch)
	ok, err := n.park(ctx, ch, func() bool { return g.varValue(v) >= min })
	g.data.unregister(ch)
	n.mu.Unlock()
	return ok, err
}

// park blocks until cond holds, the node closes (false, nil), or ctx
// ends (false, ctx.Err()). ch must be registered on the notify list that
// is poked whenever cond may have changed; cond runs under n.mu. The
// caller holds n.mu, and holds it again on return; while blocked the
// goroutine holds ch and nothing else. A context that cannot end costs a
// bare channel receive.
func (n *Node) park(ctx context.Context, ch chan struct{}, cond func() bool) (bool, error) {
	done := ctx.Done()
	for {
		if cond() {
			return true, nil
		}
		if n.closed {
			return false, nil
		}
		n.mu.Unlock()
		if done == nil {
			<-ch // a poke, or shutdown closing the channel
		} else {
			select {
			case <-done:
				n.mu.Lock()
				return false, ctx.Err()
			case <-ch:
			}
		}
		n.mu.Lock()
	}
}

// SendLockRequest issues the non-blocking half of an exclusive
// acquisition: SendSessionRequest for session 0.
func (n *Node) SendLockRequest(gid GroupID, l LockID) error {
	return n.SendSessionRequest(gid, l, 0)
}

// SendSessionRequest issues the non-blocking half of an acquisition: it
// records the request for the given session (0 = exclusive) and ships
// it. The maintenance tick re-sends it until the entry lands or the
// caller cancels. Pair it with WaitEnteredContext, or poll LockValue or
// SessionState.
func (n *Node) SendSessionRequest(gid GroupID, l LockID, session uint32) error {
	return n.sendLockRequestS(gid, l, session, 0, n.clock.Now())
}

// sendLockRequestS is the session-aware request sender: session names
// the session the acquisition wants to enter (0 = exclusive) and
// deadline the caller's context deadline (Unix nanoseconds, 0 = none).
// A fresh acquisition records both; a call while one is outstanding
// re-sends that one's request unchanged, so a duplicate call never
// changes what an acquisition asks for. now is the caller's clock
// reading.
func (n *Node) sendLockRequestS(gid GroupID, l LockID, session uint32, deadline int64, now time.Time) error {
	n.mu.Lock()
	g, lk, err := n.lockOf(gid, l)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	msg := n.newRequest(g, l, lk, session, deadline, now)
	root := g.rootID
	n.mu.Unlock()
	return n.ep.Send(root, msg)
}

// ownLockRequest starts the acquisition EnterSessionContext will wait
// for: an exclusive one enters through a live lease if this node has one
// (leased: the caller holds the lock now, zero wire messages); any other
// sends its request. It cannot share an acquisition — both callers would
// wake on the one entry and run their sections together — so it is
// refused with ErrNested, in the hold that would have recorded the
// request, while this node is inside the lock or acquiring it.
func (n *Node) ownLockRequest(gid GroupID, l LockID, session uint32, deadline int64, now time.Time) (leased bool, err error) {
	n.mu.Lock()
	g, lk, err := n.ownLock(gid, l)
	if err != nil {
		n.mu.Unlock()
		return false, err
	}
	if session == 0 && n.leaseEnter(gid, g, l) {
		n.mu.Unlock()
		return true, nil
	}
	msg := n.ownRequest(g, l, lk, session, deadline, now)
	root := g.rootID
	n.mu.Unlock()
	return false, n.sendOwn(gid, l, root, msg)
}

// ownRequest is newRequest for an acquisition its caller will wait for
// (ownLockRequest, Speculate). An idle lease the section did not enter
// through — it wants another session, or the lease has run out — goes
// back first: the return precedes the request on the same FIFO link, so
// the root has the lock free when the request arrives, where a request
// from the leaseholder on its books would only be answered with the old
// grant again until the lease expired. Caller holds n.mu.
func (n *Node) ownRequest(g *memberGroup, l LockID, lk *memberLock, session uint32, deadline int64, now time.Time) wire.Message {
	if le := lk.lease; le != nil && !le.held {
		n.returnIdleLease(g, l, lk)
	}
	return n.newRequest(g, l, lk, session, deadline, now)
}

// ownLock is lockOf for a caller about to start an acquisition of its
// own: ErrNested while this node is inside the lock or acquiring it.
// Caller holds n.mu.
func (n *Node) ownLock(gid GroupID, l LockID) (*memberGroup, *memberLock, error) {
	g, lk, err := n.lockOf(gid, l)
	if err == nil && lk.inUse() {
		err = fmt.Errorf("gwc: node %d is already inside or acquiring lock %d: %w", n.id, l, ErrNested)
	}
	return g, lk, err
}

// newRequest records what a fresh acquisition asks for (an outstanding
// one keeps its own) and builds the request frame. Caller holds n.mu.
func (n *Node) newRequest(g *memberGroup, l LockID, lk *memberLock, session uint32, deadline int64, now time.Time) wire.Message {
	if !lk.want {
		lk.reqSession, lk.reqDeadline = session, deadline
	}
	return n.lockRequest(g, l, lk, now)
}

// sendOwn ships the request of an acquisition its caller will wait for.
// The caller will not wait for a request it could not send, so that one
// (and its interrupt) must not stay on the record: the next acquisition
// would be refused as nested.
func (n *Node) sendOwn(gid GroupID, l LockID, root int, msg wire.Message) error {
	err := n.ep.Send(root, msg)
	if err != nil {
		_ = n.CancelLockRequest(gid, l) // its frame is as lost as the request's
	}
	return err
}

// lockRequest builds lock l's request frame from its record and arms the
// next re-send: the one builder behind the caller's first send and every
// retry the maintenance tick makes (retryLocks). With no acquisition
// outstanding — a first request, or a record a rejoin wiped under a
// parked caller — it mints the acquisition's token, which retries then
// reuse so the root can tell a retry from a new request that overtook a
// lost cancel; the mint also starts the watchdog's clock. The frame
// quotes the recorded deadline, so the root can drop the request
// outright once the caller has given up instead of granting into the
// void. Caller holds n.mu and sends the frame to g.rootID.
func (n *Node) lockRequest(g *memberGroup, l LockID, lk *memberLock, now time.Time) wire.Message {
	if !lk.want {
		lk.want = true
		lk.reqToken++
		lk.reqSince = now
		lk.reqB.reset()
		markBusy(&g.busyLocks, &lk.busy, l)
	}
	n.arm(&lk.reqB, now, n.boBase(), n.boCap())
	n.stats.LockRequests++
	m := n.lockReqFrame(g, l, lk.reqToken)
	m.Deadline, m.Session = lk.reqDeadline, lk.reqSession
	return m
}

// lockReqFrame is the bare TLockReq for lock l carrying token: what an
// acquisition request (lockRequest) and a lease renewal (tickLeases)
// share. Caller holds n.mu.
func (n *Node) lockReqFrame(g *memberGroup, l LockID, token uint32) wire.Message {
	return wire.Message{
		Type:   wire.TLockReq,
		Group:  uint32(g.cfg.ID),
		Src:    int32(n.id),
		Origin: int32(n.id),
		Seq:    uint64(token),
		Lock:   uint32(l),
		Epoch:  g.epoch,
	}
}

// retryLocks is the lock plane's loss recovery, run by the maintenance
// tick: it re-sends every lock request that is due — in flight and
// unanswered, or wanted by a caller still parked in WaitEnteredContext —
// through lockRequest, which mints a fresh request when a rejoin or a
// failover re-base wiped the old one. The root ignores duplicates. It runs on the
// node that roots the group too: a waiter there sends its request to
// itself, and a reign that began under it (promotion re-queues survivors
// token-less, and the grant is declined) knows its token only from the
// retry. Caller holds n.mu.
func (n *Node) retryLocks(g *memberGroup, now time.Time) {
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		if lk.parked == 0 && lk.reqSince.IsZero() {
			continue
		}
		if lk.held.has(n.id) || !lk.reqB.ready(now) {
			continue
		}
		n.send(g.rootID, n.lockRequest(g, l, lk, now))
	}
}

// ctxDeadline extracts a context's deadline as Unix nanoseconds for the
// wire's Deadline field (0 = none).
func ctxDeadline(ctx context.Context) int64 {
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano()
	}
	return 0
}

// getWait takes a lock waiter's wake channel off the node's free list,
// or makes one on a miss, so a lock wait in steady state allocates
// nothing. Caller holds n.mu.
func (n *Node) getWait() chan struct{} {
	if k := len(n.freeWaits) - 1; k >= 0 {
		ch := n.freeWaits[k]
		n.freeWaits[k] = nil
		n.freeWaits = n.freeWaits[:k]
		return ch
	}
	return make(chan struct{}, 1)
}

// putWait returns a wake channel. A closing node keeps none: shutdown
// closes the channels of registered waiters, and a closed channel must
// never be handed to a later wait. n.closed is set before any channel
// closes, so it covers every such waiter. Caller holds n.mu.
func (n *Node) putWait(ch chan struct{}) {
	if n.closed {
		return
	}
	select {
	case <-ch: // a poke that raced the unregister
	default:
	}
	n.freeWaits = append(n.freeWaits, ch)
}

// WaitEnteredContext blocks, on behalf of an acquisition this node has
// issued (SendLockRequest, SendSessionRequest, Speculate), until the node
// is inside lock l's given session (0 = it holds the lock exclusively),
// or giveUp — when not nil — reads true; both are checked immediately and
// after every lock change, and whoever sets giveUp under the node lock
// (an Interrupt's Fire) wakes the wait. It returns (false, ctx.Err()) if
// the context ends first, without withdrawing the request (use
// CancelLockRequest for that), and (false, nil) if the node closes. The
// caller parks on one channel and nothing else: while it is parked the
// maintenance tick owns the request's loss recovery (retryLocks) —
// re-sends on the record's backoff schedule, a prompt re-register with a
// new root after a reign change, a fresh request if a rejoin wiped the
// old one.
func (n *Node) WaitEnteredContext(ctx context.Context, gid GroupID, l LockID, session uint32, giveUp *atomic.Bool) (bool, error) {
	n.mu.Lock()
	g, lk, err := n.lockOf(gid, l)
	if err != nil {
		n.mu.Unlock()
		return false, err
	}
	ch := n.getWait()
	g.lock.register(ch)
	lk.parked++
	markBusy(&g.busyLocks, &lk.busy, l)
	if d := ctxDeadline(ctx); d != 0 {
		// The freshest word on when the caller gives up.
		lk.reqDeadline = d
	}
	ok, err := n.park(ctx, ch, func() bool {
		// The record is re-resolved: the table may have grown under the wait.
		return g.locks.at(l).inside(n.id, session) || (giveUp != nil && giveUp.Load())
	})
	g.locks.at(l).parked--
	g.lock.unregister(ch)
	n.putWait(ch)
	n.mu.Unlock()
	return ok, err
}

// Acquire blocks until this node holds the lock.
func (n *Node) Acquire(gid GroupID, l LockID) error {
	return n.EnterSessionContext(context.Background(), gid, l, 0)
}

// AcquireContext blocks until this node holds the lock or ctx ends; see
// EnterSessionContext.
func (n *Node) AcquireContext(ctx context.Context, gid GroupID, l LockID) error {
	return n.EnterSessionContext(ctx, gid, l, 0)
}

// EnterSession blocks until this node is inside the lock's given
// session. Session 0 is Acquire.
func (n *Node) EnterSession(gid GroupID, l LockID, session uint32) error {
	return n.EnterSessionContext(context.Background(), gid, l, session)
}

// EnterSessionContext blocks until this node is inside the lock's given
// session — alone in it for session 0 — or ctx ends. On cancellation or
// deadline it withdraws the queued request from the root (releasing the
// entry instead if it raced the cancellation) and returns ctx's error.
// Entering a session that is already open with nobody else waiting is
// near-free: the root admits the join without closing the section.
func (n *Node) EnterSessionContext(ctx context.Context, gid GroupID, l LockID, session uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// One clock reading serves the request's watchdog stamp, the first
	// re-send's schedule and the latency histogram's origin.
	start := n.clock.Now()
	if leased, err := n.ownLockRequest(gid, l, session, ctxDeadline(ctx), start); err != nil || leased {
		return err
	}
	ok, err := n.WaitEnteredContext(ctx, gid, l, session, nil)
	if err != nil {
		if cerr := n.CancelLockRequest(gid, l); cerr != nil {
			n.mu.Lock()
			n.protoErr("gwc: node %d cancel lock %d: %w", n.id, l, cerr)
			n.mu.Unlock()
		}
		return err
	}
	if !ok {
		return fmt.Errorf("gwc: node %d closed while entering session %d of lock %d: %w", n.id, session, l, ErrClosed)
	}
	// Request-to-entry wall time for a successful blocking acquire — the
	// latency the paper's speculation overlaps with useful work.
	n.metrics.Hist(obs.HistLockAcquire).Record(n.clock.Now().Sub(start))
	return nil
}

// CancelLockRequest withdraws an outstanding lock request. If the entry
// has already arrived locally, it is released instead, so the caller
// never retains it; if it is in flight, applyEntry hands it back when it
// lands.
func (n *Node) CancelLockRequest(gid GroupID, l LockID) error {
	n.mu.Lock()
	g, lk, err := n.lockOf(gid, l)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	lk.spec = nil
	if lk.held.has(n.id) {
		n.mu.Unlock()
		return n.Release(gid, l)
	}
	// The entry answering this request may already be in flight; its
	// echoed token no longer matches any outstanding acquisition (a new
	// request mints a fresh token), so applyEntry declines it.
	lk.endRequest()
	g.lock.notifyAll()
	root := g.rootID
	msg := wire.Message{
		Type:   wire.TLockCancel,
		Group:  uint32(gid),
		Src:    int32(n.id),
		Origin: int32(n.id),
		Lock:   uint32(l),
		Epoch:  g.epoch,
	}
	n.mu.Unlock()
	return n.ep.Send(root, msg)
}

// Release leaves the lock: whatever section this node is inside, the
// exclusive one or its entry in a shared session. The release follows
// the critical section's last shared write on the same path, so GWC
// ordering guarantees every member sees the data before the lock
// changes.
func (n *Node) Release(gid GroupID, l LockID) error {
	n.mu.Lock()
	g, lk, err := n.lockOf(gid, l)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	// The section is over, so its interrupt goes in the hold that frees
	// the lock: the next holder's entry must find nothing to fire.
	lk.spec = nil
	h := lk.held.find(n.id)
	if h == nil {
		n.mu.Unlock()
		return fmt.Errorf("gwc: node %d releasing lock %d it does not hold", n.id, l)
	}
	// Batched plane: the section's queued writes must reach the root
	// before the release does, so every member still sees the data before
	// the lock changes hands (the paper's GWC ordering guarantee).
	n.flushWrites(g, flushRelease)
	// Lease/handoff fast paths (lease.go): a hinted waiter may take the
	// lock directly, and a live lease keeps it cached here instead of
	// going back to the root.
	if handled, err := n.leaseRelease(gid, g, l, lk); handled {
		return err
	}
	msg := wire.Message{
		Type:    wire.TLockRel,
		Group:   uint32(gid),
		Src:     int32(n.id),
		Origin:  int32(n.id),
		Lock:    uint32(l),
		Var:     h.epoch, // quoted so the root can discard stale duplicates
		Epoch:   g.epoch,
		Session: lk.held.session,
	}
	lk.lockDone = max(lk.lockDone, h.epoch)
	lk.held.drop(n.id)
	lk.endRequest()
	g.lock.notifyAll()
	root := g.rootID
	n.mu.Unlock()
	return n.ep.Send(root, msg)
}

// HookAction is a lock-change hook's verdict.
type HookAction int

// Hook verdicts.
const (
	// HookNone takes no protocol action.
	HookNone HookAction = iota
	// HookSuspend atomically suspends insharing for the group, the
	// paper's interrupt-and-sharing-suspension (Figure 5).
	HookSuspend
)

// LockHook observes a lock-value change. It runs under the node's
// internal lock and must not block or call back into the node.
type LockHook func(val int64) HookAction

// OnLockChange registers a hook invoked whenever the lock's value
// changes. The returned function unregisters it.
func (n *Node) OnLockChange(gid GroupID, l LockID, fn LockHook) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, lk, err := n.lockOf(gid, l)
	if err != nil {
		return nil, err
	}
	g.hookSeq++
	token := g.hookSeq
	lk.lockHooks = append(lk.lockHooks, hook[LockHook]{token, fn})
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		lk := g.locks.at(l)
		lk.lockHooks = dropHook(lk.lockHooks, token)
	}, nil
}

// SuspendInsharing parks incoming data updates for the group (lock
// changes still flow), the atomic interrupt-and-suspension of Figure 5.
func (n *Node) SuspendInsharing(gid GroupID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return err
	}
	g.suspended = true
	return nil
}

// ResumeInsharing replays parked updates and resumes normal delivery.
func (n *Node) ResumeInsharing(gid GroupID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return err
	}
	g.suspended = false
	q := g.suspendQ
	g.suspendQ = nil
	for i := range q {
		n.applyData(g, &q[i])
	}
	return nil
}

// Saved is one entry of a speculative section's save-set: a variable and
// the value it held before the section first wrote it (the paper's
// compiler-generated saved_ copy).
type Saved struct {
	Var VarID
	Old int64
}

// RestoreLocal writes saved values back into local memory without
// propagating them — the rollback of Figure 4 lines 22-23.
func (n *Node) RestoreLocal(gid GroupID, saved []Saved) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return err
	}
	for _, sv := range saved {
		mv := g.vars.at(sv.Var)
		if mv == nil {
			continue // Write refuses such a variable, so it holds nothing to restore
		}
		mv.val, mv.written = sv.Old, true
		// The rolled-back section's stores are withdrawn: the root
		// suppresses them (or already has), so their echoes will never
		// come and their carrier frames must stop re-shipping — a
		// re-send would just be re-suppressed, and the eager entry
		// must not let a later same-value echo through as our own.
		mv.eagerOut = false
	}
	g.data.notifyAll()
	return nil
}

// OnVarChange registers a hook invoked (under the node's internal lock,
// so it must not block) whenever a sequenced update to v is applied. The
// origin's own writes trigger it when their (unguarded) echoes apply;
// guarded echoes are hardware-blocked and do not. The returned function
// unregisters the hook.
func (n *Node) OnVarChange(gid GroupID, v VarID, fn func(val int64)) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, mv, err := n.varOf(gid, v)
	if err != nil {
		return nil, err
	}
	g.hookSeq++
	token := g.hookSeq
	mv.hooks = append(mv.hooks, hook[func(int64)]{token, fn})
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		mv := g.vars.at(v)
		mv.hooks = dropHook(mv.hooks, token)
	}, nil
}

// SetGuard binds variable v to lock l in the group's mutex data map. The
// cluster layer calls this on every member when a guarded variable is
// declared, before the variable is first used.
func (n *Node) SetGuard(gid GroupID, v VarID, l LockID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, mv, err := n.varOf(gid, v)
	if err != nil {
		return err
	}
	if l >= maxRecords {
		return idErr(gid, "lock", uint32(l))
	}
	mv.guarded, mv.guard = true, l
	return nil
}
