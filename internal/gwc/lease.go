package gwc

import (
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// Lock leasing and peer-to-peer handoff.
//
// The uncontended lock path costs a three-message root round trip even
// when the same member re-acquires the same lock back to back — latency
// the speculation machinery can overlap but never remove. This file
// removes it in the two regimes that dominate lock traffic:
//
//   - *Leasing* (repeat re-acquire): when an exclusive grant goes out
//     and nobody is queued behind it, the root leases the lock to the
//     winner (TLeaseGrant). A leased member keeps the grant cached
//     across Release/Acquire pairs — re-entry is a purely local
//     decision, zero wire messages — renewing on the adaptive backoff
//     while the lease is in use and returning it (TLeaseRet) when it
//     expires idle or the root demands it back for a waiter.
//
//   - *Handoff* (convoy): when a grant goes out with waiters queued,
//     the root piggybacks a *hint* — the head waiter's identity and
//     request token — on the grant multicast. The releasing holder then
//     hands the lock to that waiter directly (one THandoff frame on the
//     critical path) and tells the root asynchronously with a second
//     THandoff notice, re-sent until a sequenced lock frame proves the
//     root caught up. The root stays the arbiter: it validates the
//     notice against its holder record and the epoch the hint reserved,
//     and every conflict path falls back to the classic queue.
//
// Epoch fencing makes the speculative transfer safe: a handoff reserves
// exactly the grant epoch the root's own next grant would mint
// (holder's entry epoch + 1), so the root can recognise the transfer in
// any frame that quotes it — the notice, the new holder's tagged
// writes, or its release — and a reign change invalidates everything at
// once through the ordinary stale-epoch gate. Leases die with their
// reign: members drop them on any re-base (dropLeases), idle cached
// locks reporting as free, and the root's records go down with the
// deposed rootGroup. The root never frees a leased lock on expiry alone
// — only a return, a release, or the rejoin of a crashed leaseholder
// does — so an expired clock can never create two exclusive holders.
//
// Both fast paths are disabled under SetQuorumAcks: a direct transfer
// would bypass the quorum-ack watermark that durable handoffs park on.
//
// This file is the member side. The root side — issuing, extending and
// recalling leases, reserving hints, committing handoffs — is the lock
// book's (book.go).

// leasing reports whether the lease/handoff fast paths are active.
// Caller holds n.mu.
func (n *Node) leasing() bool { return n.leaseTTL > 0 && !n.quorumAcks }

// SetLeases enables lock leasing and peer handoff with the given lease
// TTL (zero disables). All nodes of a group should agree on the
// setting; it is read on both the member and root paths. Ignored while
// SetQuorumAcks is on — leased re-entries and direct transfers would
// bypass the durability watermark.
func (n *Node) SetLeases(ttl time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaseTTL = ttl
}

// memberLease is a member's cached claim on a lock: while it holds, this
// node's exclusive entry stays in the local copy across releases and
// re-entry is decided locally.
type memberLease struct {
	expiry  time.Time
	ttl     time.Duration
	epoch   uint32 // grant epoch the lease was issued against
	token   uint32 // acquisition token the root records for the grant
	held    bool   // inside the critical section right now
	used    bool   // re-entered locally since the last grant/extension
	revoked bool   // root demanded it back; return on the next Release
	renewB  backoff
}

// handoffNotice is the root-bound half of a handoff in flight: re-sent
// on a backoff until a sequenced lock frame carries a grant epoch at or
// past doneEpoch, which proves the root observed the transfer.
type handoffNotice struct {
	msg       wire.Message
	doneEpoch uint32
	bo        backoff
}

// leaseEnter attempts a purely local entry into lock l under a live
// lease: no wire traffic, no allocation. It returns true when the caller
// now holds the lock and must pair the entry with Release. Caller holds
// n.mu.
func (n *Node) leaseEnter(gid GroupID, g *memberGroup, l LockID) bool {
	if n.closed {
		return false
	}
	lk := g.locks.peek(l)
	if lk == nil {
		return false
	}
	le := lk.lease
	if le == nil || le.held || le.revoked || !lk.held.has(n.id) {
		return false
	}
	if !n.clock.Now().Before(le.expiry) {
		return false // expired: the lease tick returns it
	}
	le.held = true
	le.used = true
	n.emit(obs.EvLeaseLocal, gid, int64(l), 0)
	return true
}

// sendLeaseRet ships a lease return quoting the grant epoch it closes.
// Caller holds n.mu.
func (n *Node) sendLeaseRet(g *memberGroup, l LockID, epoch uint32) {
	n.send(g.rootID, n.hdr(g).LeaseRet(uint32(l), epoch))
}

// returnIdleLease frees a cached lock this node is not (or no longer)
// inside and returns the lease to the root. Caller holds n.mu.
func (n *Node) returnIdleLease(g *memberGroup, l LockID, lk *memberLock) {
	epoch := lk.lease.epoch
	lk.lease = nil
	lk.held.drop(n.id)
	lk.lockDone = max(lk.lockDone, epoch)
	n.sendLeaseRet(g, l, epoch)
	g.lock.notifyAll()
}

// handleLeaseGrant processes a root's lease frame at the member: a
// grant/extension when it carries a TTL, a revoke demand when it carries
// none. Caller holds n.mu.
func (n *Node) handleLeaseGrant(g *memberGroup, m *wire.Message) {
	if m.Epoch != g.epoch {
		if m.Epoch < g.epoch {
			n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
		}
		return
	}
	if g.rejoining || g.snapWanted {
		return // not re-based into the reign; leases target live state only
	}
	l := LockID(m.Lock)
	lk := g.locks.at(LockID(m.Lock))
	le, epoch, ttl := lk.lease, m.EntryEpoch(), m.TTL()
	if ttl == 0 {
		// Revoke demand for the lease on the entry at epoch.
		if le == nil || le.epoch != epoch || !lk.held.has(n.id) {
			// No such lease here. If this node already finished with that
			// grant, the root's record is stale because the original
			// return (or release) was lost — repeat it so the demand loop
			// can end. Anything else is a stray demand to ignore.
			if lk.lockDone >= epoch {
				n.sendLeaseRet(g, l, epoch)
			}
			return
		}
		if le.held {
			le.revoked = true // the Release in progress doubles as the return
			return
		}
		n.returnIdleLease(g, l, lk)
		return
	}
	// Grant or extension. Valid only against the entry it was issued
	// for: the grant multicast may still be in flight, in which case the
	// lease is simply dropped (the root's next extension re-offers it).
	if h := lk.held.find(n.id); h == nil || h.epoch != epoch {
		return
	}
	if le == nil {
		// Holding the grant value without a lease means this node is
		// inside the section (between grant and Release).
		le = &memberLease{held: true}
		lk.lease = le
		markBusy(&g.busyLocks, &lk.busy, l)
	}
	le.expiry = n.clock.Now().Add(ttl)
	le.ttl = ttl
	le.epoch = epoch
	le.token = m.Token()
	le.used = false
	le.revoked = false
	le.renewB.reset()
}

// sectionConfirmed reports whether every guarded write of the closing
// section has been sequenced (its echo consumed): the precondition for
// a direct handoff, since the new holder's entry gate is a sequence
// watermark that must cover the section's data. Caller holds n.mu.
func (g *memberGroup) sectionConfirmed(l LockID) bool {
	for _, v := range g.busyVars {
		mv := &g.vars.recs[v]
		if mv.eagerOut && mv.guarded && mv.guard == l {
			return false
		}
	}
	return true
}

// leaseRelease intercepts Release after validation and flush: a hinted
// waiter gets the lock directly, a live lease retains it locally, and a
// revoked or expired lease rides the release back to the root. Returns
// handled=false (n.mu still held) when the classic release path should
// run. When handled, n.mu has been released.
func (n *Node) leaseRelease(gid GroupID, g *memberGroup, l LockID, lk *memberLock) (bool, error) {
	if !lk.hint.Set && lk.lease == nil {
		return false, nil // the common case pays no clock read
	}
	now := n.clock.Now()
	if h := lk.hint; h.Set {
		lk.hint = wire.Hint{}
		if n.leasing() && h.Node != n.id && g.cfg.memberOf(h.Node) && g.sectionConfirmed(l) {
			return true, n.handoffRelease(gid, g, l, lk, h, now)
		}
		// Unconfirmed section data (or a stale hint): fall back to the
		// root path, which sequences the grant behind the data itself.
	}
	le := lk.lease
	if le == nil {
		return false, nil
	}
	if le.held && !le.revoked && now.Before(le.expiry) && n.leasing() {
		// Retain: this node's entry stays in the copy and the next
		// acquisition is a local decision. Zero wire messages.
		le.held = false
		lk.endRequest()
		n.mu.Unlock()
		return true, nil
	}
	// Revoked or expired: this release doubles as the lease return.
	lk.endRequest()
	n.returnIdleLease(g, l, lk)
	n.mu.Unlock()
	return true, nil
}

// handoffRelease transfers the lock directly to the hinted waiter: one
// frame on the critical path, plus an asynchronous notice the root
// validates. The handoff reserves exactly the grant epoch the root's
// next grant would mint (our entry epoch + 1), which is what lets the
// root recognise the transfer in whatever frame reaches it first.
// Caller holds n.mu; released before the sends.
func (n *Node) handoffRelease(gid GroupID, g *memberGroup, l LockID, lk *memberLock, h wire.Hint, now time.Time) error {
	epoch := lk.held.find(n.id).epoch // our entry epoch
	next := epoch + 1                 // the epoch this transfer reserves
	lk.held.open(0)
	lk.held.put(holder{node: h.Node, epoch: next, token: h.Token})
	lk.sawGrant(next)
	lk.lockDone = epoch
	lk.lease = nil
	lk.endRequest()
	n.emit(obs.EvHandoff, gid, int64(l), int64(h.Node))
	// The direct grant carries this node's applied watermark: the closing
	// section's writes are all sequenced at or below it (the handoff only
	// fires with every echo confirmed), so the new holder defers entry
	// until its own stream covers that prefix — the GWC data-before-lock
	// guarantee, kept without the root on the path.
	hdr := n.hdr(g)
	direct := hdr.HandoffGrant(uint32(l), h.Node, next, h.Token, g.nextSeq-1)
	notice := hdr.HandoffNotice(uint32(l), h.Node, epoch, next)
	ph := &handoffNotice{msg: notice, doneEpoch: next}
	n.arm(&ph.bo, now, n.boBase(), n.boCap())
	lk.pendingHandoff = ph
	markBusy(&g.busyLocks, &lk.busy, l)
	g.lock.notifyAll()
	root := g.rootID
	n.mu.Unlock()
	if err := n.ep.Send(h.Node, direct); err != nil {
		return err
	}
	return n.ep.Send(root, notice)
}

// handleHandoff processes a direct grant at the designated waiter. A
// root-bound notice that strays here (a deposed ex-root the sender
// still follows) names another node and is dropped; the sender's
// notice retries converge on the live root. Caller holds n.mu.
func (n *Node) handleHandoff(g *memberGroup, m *wire.Message) {
	if m.Epoch != g.epoch {
		if m.Epoch < g.epoch {
			n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
			n.maybeNotice(g, int(m.Src))
		}
		return
	}
	if m.Holder() != n.id {
		return // not ours to take: only the reigning root may arbitrate it
	}
	if g.rejoining || g.snapWanted {
		return // not re-based; the request retry re-queues at the root
	}
	l := LockID(m.Lock)
	lk := g.locks.at(LockID(m.Lock))
	if g.nextSeq <= m.Seq {
		// Data-before-lock: the handing-off holder's section writes are
		// sequenced at or below its watermark. Entering before the
		// stream covers it would read stale guarded state, so the grant
		// parks until reassembly catches up (deliverHandoffs).
		g.parkHandoff(l, lk, m)
		n.maybeNack(g)
		return
	}
	g.unparkHandoff(lk)
	n.applyLock(g, m)
}

// parkHandoff holds a direct grant (a copy of m) until the stream covers
// its watermark; unparkHandoff forgets one. Both keep parkedHandoffs,
// the count deliverHandoffs' fast path reads.
func (g *memberGroup) parkHandoff(l LockID, lk *memberLock, m *wire.Message) {
	if lk.handoffIn == nil {
		lk.handoffIn = new(wire.Message)
		g.parkedHandoffs++
		markBusy(&g.busyLocks, &lk.busy, l)
	}
	*lk.handoffIn = *m
}

func (g *memberGroup) unparkHandoff(lk *memberLock) {
	if lk.handoffIn != nil {
		lk.handoffIn = nil
		g.parkedHandoffs--
	}
}

// deliverHandoffs installs parked direct grants whose sequence
// watermark the stream now covers. Caller holds n.mu.
func (n *Node) deliverHandoffs(g *memberGroup) {
	if g.parkedHandoffs == 0 {
		return
	}
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		m := lk.handoffIn
		if m == nil {
			continue
		}
		if m.Epoch != g.epoch {
			g.unparkHandoff(lk)
			continue
		}
		if g.nextSeq <= m.Seq {
			continue
		}
		g.unparkHandoff(lk)
		if lk.grantEpoch >= m.EntryEpoch() {
			continue // the sequenced confirm (or a later grant) superseded it
		}
		n.applyLock(g, m)
	}
}

// tickLeases drives the member's lease clocks each maintenance tick:
// expired idle leases go back, in-use leases renew past their half
// life, and unacknowledged handoff notices re-send. Caller holds n.mu.
func (n *Node) tickLeases(gid GroupID, g *memberGroup, now time.Time) {
	n.deliverHandoffs(g)
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		le := lk.lease
		if le == nil {
			continue
		}
		if !le.held && (le.revoked || !now.Before(le.expiry)) {
			n.returnIdleLease(g, l, lk)
			continue
		}
		if le.used && le.expiry.Sub(now) < le.ttl/2 && le.renewB.ready(now) {
			n.arm(&le.renewB, now, n.boBase(), n.boCap())
			n.emit(obs.EvLeaseRenew, g.cfg.ID, int64(l), 0)
			// A renewal is a request frame quoting the lease's token and
			// entry epoch — ordinary request retries quote none, which is
			// how the root tells a renewal from a holder re-announcing a
			// lost grant. It must not touch the want/token machinery: no
			// acquisition is outstanding.
			n.send(g.rootID, n.hdr(g).LeaseRenew(uint32(l), le.token, le.epoch))
		}
	}
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		ph := lk.pendingHandoff
		if ph == nil || !ph.bo.ready(now) {
			continue
		}
		n.arm(&ph.bo, now, n.boBase(), n.boCap())
		m := ph.msg
		m.Epoch = g.epoch
		n.send(g.rootID, m)
	}
}

// dropLeases forgets every lease, hint, parked direct grant, and
// pending notice — called by rebase and before an election report is
// built (reportFrames), because all of them are claims against the old
// reign's lock manager. An idle cached lock is, for the new
// reign, simply free: reporting it held would resurrect a holder that
// never releases. A lease held mid-section survives as a plain hold —
// its Release takes the wire path. Caller holds n.mu.
func (n *Node) dropLeases(g *memberGroup) {
	dropped := false
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		if lk.lease == nil && !lk.hint.Set && lk.pendingHandoff == nil && lk.handoffIn == nil {
			continue
		}
		dropped = true
		if le := lk.lease; le != nil && !le.held {
			lk.held.drop(n.id)
			lk.lockDone = max(lk.lockDone, le.epoch)
		}
		lk.lease = nil
		lk.hint = wire.Hint{}
		lk.pendingHandoff = nil
		g.unparkHandoff(lk)
	}
	if dropped {
		g.lock.notifyAll()
	}
}
