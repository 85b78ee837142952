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
// A lease and a hint only cache or pass on the grant the root sequenced
// into the lock variable; that grant is the node's entry in the lock's
// copy (memberLock.held), and the lease's epoch and token are read off
// it, never kept beside it. What a member holds of a lock beyond the
// copy is one record, memberLock.deleg (nil when there is none): the
// lease, the hint, the notice it owes the root, and a direct grant parked
// on its sequence watermark. The maintenance tick drives it in one pass
// after the probe (tickDeleg).
//
// Epoch fencing makes the speculative transfer safe: a handoff reserves
// exactly the grant epoch the root's own next grant would mint
// (holder's entry epoch + 1), so the root can recognise the transfer in
// any frame that quotes it — the notice, the new holder's tagged
// writes, or its release — and a reign change invalidates everything at
// once through the ordinary stale-epoch gate. Leases die with their
// reign: members drop the record on any re-base (dropDelegs), idle
// cached locks reporting as free, and the root's records go down with
// the deposed rootGroup. The root never frees a leased lock on expiry
// alone — only a return, a release, or the rejoin of a crashed
// leaseholder does — so an expired clock can never create two exclusive
// holders.
//
// Both fast paths are off under SetQuorumAcks (leasing): a direct
// transfer would bypass the quorum-ack watermark that durable handoffs
// park on. The public API refuses the option pair outright.
//
// This file is the member side. The root side — issuing, extending and
// recalling leases, reserving hints, committing handoffs — is the lock
// book's (book.go).

// deleg is everything a member holds of one lock beyond the copy of its
// open section: what the root delegated to it, what it owes the root,
// and what a peer handed it ahead of the stream.
type deleg struct {
	// The lease: while leased, this node's exclusive entry stays in the
	// copy across releases and re-entry is decided locally. entered: inside
	// the section right now (never set without leased); used: re-entered
	// locally since the last grant or extension; revoked: the root
	// demanded it back, to be returned on the next Release.
	leased, entered, used, revoked bool
	expiry                         time.Time
	ttl                            time.Duration
	renewB                         backoff
	// hint is the handoff target the root designated on this node's
	// newest entry.
	hint wire.Hint
	// reserved is the epoch a handoff this node made reserved for
	// successor (0: none in flight). Its notice re-sends on noticeB until a
	// lock frame shows the root's epoch at or past it.
	reserved  uint32
	successor int
	noticeB   backoff
	// grant is a direct grant parked on its sequence watermark, when
	// parked.
	parked bool
	grant  wire.Message
}

// delegOf returns lock l's record, making it — and listing the lock for
// the tick — when it has none. Caller holds n.mu.
func (g *memberGroup) delegOf(l LockID, lk *memberLock) *deleg {
	if lk.deleg == nil {
		lk.deleg = new(deleg)
		markBusy(&g.busyLocks, &lk.busy, l)
	}
	return lk.deleg
}

// settle frees the record once nothing is left in it.
func (lk *memberLock) settle() {
	if d := lk.deleg; d != nil && !d.leased && !d.hint.Set && d.reserved == 0 && !d.parked {
		lk.deleg = nil
	}
}

// idleLease reports whether this node caches the lock under a lease it
// is not inside.
func (lk *memberLock) idleLease() bool {
	d := lk.deleg
	return d != nil && d.leased && !d.entered
}

// clearHint forgets the handoff target: the queue it peeked is gone.
func (lk *memberLock) clearHint() {
	if d := lk.deleg; d != nil {
		d.hint = wire.Hint{}
	}
}

// leasing reports whether the lease/handoff fast paths are active. It is
// the one place quorum acks turn them off. Caller holds n.mu.
func (n *Node) leasing() bool { return n.leaseTTL > 0 && !n.quorumAcks }

// SetLeases enables lock leasing and peer handoff with the given lease
// TTL (zero disables). All nodes of a group should agree on the
// setting; it is read on both the member and root paths. Leasing stays
// off while SetQuorumAcks is on — leased re-entries and direct transfers
// would bypass the durability watermark — so the cluster API refuses
// the pair.
func (n *Node) SetLeases(ttl time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaseTTL = ttl
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
	if lk == nil || !lk.idleLease() || lk.deleg.revoked || !lk.held.has(n.id) {
		return false
	}
	d := lk.deleg
	if !n.clock.Now().Before(d.expiry) {
		return false // expired: the lease tick returns it
	}
	d.entered = true
	d.used = true
	n.emit(obs.EvLeaseLocal, gid, int64(l), 0)
	return true
}

// sendLeaseRet ships a lease return quoting the grant epoch it closes.
// Caller holds n.mu.
func (n *Node) sendLeaseRet(g *memberGroup, l LockID, epoch uint32) {
	n.send(g.rootID, n.hdr(g).LeaseRet(uint32(l), epoch))
}

// returnIdleLease frees a cached lock this node is not (or no longer)
// inside and returns the lease on its entry to the root. Caller holds
// n.mu.
func (n *Node) returnIdleLease(g *memberGroup, l LockID, lk *memberLock) {
	var epoch uint32
	if h := lk.held.find(n.id); h != nil {
		epoch = h.epoch
	}
	lk.deleg.leased, lk.deleg.entered = false, false
	lk.settle()
	lk.held.drop(n.id)
	lk.lockDone = max(lk.lockDone, epoch)
	n.sendLeaseRet(g, l, epoch)
	g.lock.notifyAll()
}

// handleLeaseGrant processes a root's lease frame at the member: a
// grant/extension when it carries a TTL, a revoke demand when it carries
// none. Either names the entry it is for by its epoch. Caller holds
// n.mu.
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
	lk := g.locks.at(l)
	epoch, ttl := m.EntryEpoch(), m.TTL()
	h := lk.held.find(n.id)
	mine := h != nil && h.epoch == epoch
	if ttl == 0 {
		// Revoke demand for the lease on the entry at epoch.
		if d := lk.deleg; d == nil || !d.leased || !mine {
			// No such lease here. If this node already finished with that
			// grant, the root's record is stale because the original
			// return (or release) was lost — repeat it so the demand loop
			// can end. Anything else is a stray demand to ignore.
			if lk.lockDone >= epoch {
				n.sendLeaseRet(g, l, epoch)
			}
		} else if d.entered {
			d.revoked = true // the Release in progress doubles as the return
		} else {
			n.returnIdleLease(g, l, lk)
		}
		return
	}
	// Grant or extension. Valid only against the entry it was issued
	// for: the grant multicast may still be in flight, in which case the
	// lease is simply dropped (the root's next extension re-offers it).
	if !mine {
		return
	}
	d := g.delegOf(l, lk)
	if !d.leased {
		// Holding the grant value without a lease means this node is
		// inside the section (between grant and Release).
		d.leased, d.entered = true, true
	}
	d.expiry = n.clock.Now().Add(ttl)
	d.ttl = ttl
	d.used = false
	d.revoked = false
	d.renewB.reset()
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
	d := lk.deleg
	if d == nil {
		return false, nil // the common case pays no clock read
	}
	now := n.clock.Now()
	if h := d.hint; h.Set {
		d.hint = wire.Hint{}
		if n.leasing() && h.Node != n.id && g.cfg.memberOf(h.Node) && g.sectionConfirmed(l) {
			return true, n.handoffRelease(gid, g, l, lk, h, now)
		}
		// Unconfirmed section data (or a stale hint): fall back to the
		// root path, which sequences the grant behind the data itself.
	}
	if !d.leased {
		lk.settle()
		return false, nil
	}
	lk.endRequest()
	if d.entered && !d.revoked && now.Before(d.expiry) && n.leasing() {
		// Retain: this node's entry stays in the copy and the next
		// acquisition is a local decision. Zero wire messages.
		d.entered = false
	} else {
		// Revoked or expired: this release doubles as the lease return.
		n.returnIdleLease(g, l, lk)
	}
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
	d := g.delegOf(l, lk)
	d.leased, d.entered = false, false
	d.reserved, d.successor = next, h.Node
	d.noticeB.reset()
	n.arm(&d.noticeB, now, n.boBase(), n.boCap())
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
	lk := g.locks.at(l)
	if g.nextSeq <= m.Seq {
		// Data-before-lock: the handing-off holder's section writes are
		// sequenced at or below its watermark. Entering before the
		// stream covers it would read stale guarded state, so the grant
		// parks until reassembly catches up (deliverParked).
		d := g.delegOf(l, lk)
		d.parked, d.grant = true, *m
		g.grantParked = true
		n.maybeNack(g)
		return
	}
	if d := lk.deleg; d != nil {
		d.parked = false
	}
	n.applyLock(g, m)
}

// deliverParked installs the lock's parked direct grant once the stream
// covers its watermark, and forgets one the sequenced confirm (or a later
// grant) superseded. The grant is of the reign the member follows: a
// re-base drops the record. Caller holds n.mu.
func (n *Node) deliverParked(g *memberGroup, lk *memberLock) {
	d := lk.deleg
	if d == nil || !d.parked || g.nextSeq <= d.grant.Seq {
		return
	}
	d.parked = false
	if m := d.grant; lk.grantEpoch < m.EntryEpoch() {
		n.applyLock(g, &m)
		return
	}
	lk.settle()
}

// deliverDue runs deliverParked over every listed lock (only a listed
// lock has a record) and notes whether a grant is still parked. Caller
// holds n.mu.
func (n *Node) deliverDue(g *memberGroup) {
	g.grantParked = false
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		n.deliverParked(g, lk)
		if d := lk.deleg; d != nil && d.parked {
			g.grantParked = true
		}
	}
}

// tickDeleg is the maintenance tick's pass over lock l's record, after
// the probe: a parked direct grant the stream now covers is installed,
// an idle lease that expired or was revoked goes back, one in use renews
// past its half life, and an unacknowledged handoff notice re-sends.
// Caller holds n.mu.
func (n *Node) tickDeleg(g *memberGroup, l LockID, lk *memberLock, now time.Time) {
	n.deliverParked(g, lk)
	d := lk.deleg
	if d == nil {
		return
	}
	if d.leased {
		h := lk.held.find(n.id)
		if !d.entered && (d.revoked || !now.Before(d.expiry)) {
			n.returnIdleLease(g, l, lk)
		} else if h != nil && d.used && d.expiry.Sub(now) < d.ttl/2 && d.renewB.ready(now) {
			n.arm(&d.renewB, now, n.boBase(), n.boCap())
			n.emit(obs.EvLeaseRenew, g.cfg.ID, int64(l), 0)
			// A renewal is a request frame quoting the leased entry's token
			// and epoch — ordinary request retries quote none, which is how
			// the root tells a renewal from a holder re-announcing a lost
			// grant. It must not touch the want/token machinery: no
			// acquisition is outstanding.
			n.send(g.rootID, n.hdr(g).LeaseRenew(uint32(l), h.token, h.epoch))
		}
	}
	if d.reserved != 0 && d.noticeB.ready(now) {
		n.arm(&d.noticeB, now, n.boBase(), n.boCap())
		n.send(g.rootID, n.hdr(g).HandoffNotice(uint32(l), d.successor, d.reserved-1, d.reserved))
	}
}

// dropDelegs forgets every lock's record — lease, hint, parked direct
// grant and pending notice — because all of them are claims against the
// old reign's lock manager: rebase's (which also restarts every
// request's retry schedule, in the same pass), and an election report's
// (reportFrames). An idle cached lock is, for the new reign, simply
// free: reporting it held would resurrect a holder that never releases.
// A lease held mid-section survives as a plain hold — its Release takes
// the wire path. Caller holds n.mu.
func (n *Node) dropDelegs(g *memberGroup, rebasing bool) {
	dropped := false
	for _, l := range g.busyLocks {
		lk := &g.locks.recs[l]
		if rebasing {
			lk.reqB.reset()
		}
		if lk.deleg == nil {
			continue
		}
		dropped = true
		if lk.idleLease() {
			if h := lk.held.find(n.id); h != nil {
				lk.lockDone = max(lk.lockDone, h.epoch)
			}
			lk.held.drop(n.id)
		}
		lk.deleg = nil
	}
	if dropped {
		g.lock.notifyAll()
	}
}
