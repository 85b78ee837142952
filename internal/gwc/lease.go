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

// handoffHint is the queued waiter the root designated as this holder's
// direct-transfer target, captured from the grant multicast.
type handoffHint struct {
	node  int
	token uint32
	set   bool
}

// handoffNotice is the root-bound half of a handoff in flight: re-sent
// on a backoff until a sequenced lock frame carries a grant epoch at or
// past doneEpoch, which proves the root observed the transfer.
type handoffNotice struct {
	msg       wire.Message
	doneEpoch uint32
	bo        backoff
}

// TryLeaseEnter attempts a purely local lock acquisition under a live
// lease: no wire traffic, no allocation. It returns true when the
// caller now holds the lock and must pair the call with Release.
func (n *Node) TryLeaseEnter(gid GroupID, l LockID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, ok := n.groups[gid]
	return ok && n.leaseEnter(gid, g, l)
}

// leaseEnter is TryLeaseEnter under the caller's hold of n.mu.
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
	n.stats.LeaseLocal++
	n.emit(obs.EvLeaseLocal, gid, int64(l), 0)
	return true
}

// sendLeaseRet ships a lease return quoting the grant epoch it closes.
// Caller holds n.mu.
func (n *Node) sendLeaseRet(g *memberGroup, l LockID, epoch uint32) {
	n.send(g.rootID, wire.Message{
		Type:   wire.TLeaseRet,
		Group:  uint32(g.cfg.ID),
		Src:    int32(n.id),
		Origin: int32(n.id),
		Lock:   uint32(l),
		Var:    epoch,
		Epoch:  g.epoch,
	})
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
// grant/extension when Deadline carries the TTL, a revoke demand when
// Deadline is zero. Caller holds n.mu.
func (n *Node) handleLeaseGrant(g *memberGroup, m *wire.Message) {
	if m.Epoch != g.epoch {
		if m.Epoch < g.epoch {
			n.stats.StaleEpochRejected++
			n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
		}
		return
	}
	if g.rejoining || g.snapWanted {
		return // not re-based into the reign; leases target live state only
	}
	l := LockID(m.Lock)
	lk := g.locks.at(LockID(m.Lock))
	le := lk.lease
	if m.Deadline == 0 {
		// Revoke demand: Var names the grant epoch the root wants back.
		if le == nil || le.epoch != m.Var || !lk.held.has(n.id) {
			// No such lease here. If this node already finished with that
			// grant, the root's record is stale because the original
			// return (or release) was lost — repeat it so the demand loop
			// can end. Anything else is a stray demand to ignore.
			if lk.lockDone >= m.Var {
				n.sendLeaseRet(g, l, m.Var)
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
	if h := lk.held.find(n.id); h == nil || h.epoch != m.Var {
		return
	}
	if le == nil {
		// Holding the grant value without a lease means this node is
		// inside the section (between grant and Release).
		le = &memberLease{held: true}
		lk.lease = le
		markBusy(&g.busyLocks, &lk.busy, l)
	}
	ttl := time.Duration(m.Deadline)
	le.expiry = n.clock.Now().Add(ttl)
	le.ttl = ttl
	le.epoch = m.Var
	le.token = uint32(m.Origin)
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
	if !lk.hint.set && lk.lease == nil {
		return false, nil // the common case pays no clock read
	}
	now := n.clock.Now()
	if h := lk.hint; h.set {
		lk.hint = handoffHint{}
		if n.leasing() && h.node != n.id && g.cfg.memberOf(h.node) && g.sectionConfirmed(l) {
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
func (n *Node) handoffRelease(gid GroupID, g *memberGroup, l LockID, lk *memberLock, h handoffHint, now time.Time) error {
	epoch := lk.held.find(n.id).epoch // our entry epoch
	next := epoch + 1                 // the epoch this transfer reserves
	lk.held.open(0)
	lk.held.put(holder{node: h.node, epoch: next, token: h.token})
	lk.sawGrant(next)
	lk.lockDone = epoch
	lk.lease = nil
	lk.endRequest()
	n.stats.Handoffs++
	n.emit(obs.EvHandoff, gid, int64(l), int64(h.node))
	// The direct grant carries this node's applied watermark (Seq): the
	// closing section's writes are all sequenced at or below it (the
	// handoff only fires with every echo confirmed), so the new holder
	// defers entry until its own stream covers that prefix — the GWC
	// data-before-lock guarantee, kept without the root on the path.
	direct := wire.Message{
		Type:   wire.THandoff,
		Group:  uint32(gid),
		Src:    int32(n.id),
		Origin: int32(h.token),
		Seq:    g.nextSeq - 1,
		Lock:   uint32(l),
		Var:    next,
		Val:    GrantValue(h.node),
		Epoch:  g.epoch,
	}
	notice := wire.Message{
		Type:   wire.THandoff,
		Group:  uint32(gid),
		Src:    int32(n.id),
		Origin: int32(n.id),
		Seq:    uint64(next),
		Lock:   uint32(l),
		Var:    epoch,
		Val:    GrantValue(h.node),
		Epoch:  g.epoch,
	}
	ph := &handoffNotice{msg: notice, doneEpoch: next}
	n.arm(&ph.bo, now, n.boBase(), n.boCap())
	lk.pendingHandoff = ph
	markBusy(&g.busyLocks, &lk.busy, l)
	g.lock.notifyAll()
	root := g.rootID
	n.mu.Unlock()
	if err := n.ep.Send(h.node, direct); err != nil {
		return err
	}
	return n.ep.Send(root, notice)
}

// handleHandoff processes a direct grant at the designated waiter. A
// root-bound notice that strays here (a deposed ex-root the sender
// still follows) fails the Val check and is dropped; the sender's
// notice retries converge on the live root. Caller holds n.mu.
func (n *Node) handleHandoff(g *memberGroup, m *wire.Message) {
	if m.Epoch != g.epoch {
		if m.Epoch < g.epoch {
			n.stats.StaleEpochRejected++
			n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
			n.maybeNotice(g, int(m.Src))
		}
		return
	}
	if m.Val != GrantValue(n.id) {
		return // not ours to take: only the reigning root may arbitrate it
	}
	if g.rejoining || g.snapWanted {
		return // not re-based; the request retry re-queues at the root
	}
	l := LockID(m.Lock)
	lk := g.locks.at(LockID(m.Lock))
	if g.nextSeq <= m.Seq {
		// Data-before-lock: the handing-off holder's section writes are
		// sequenced at or below its watermark (Seq). Entering before the
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
		if lk.grantEpoch >= m.Var {
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
			n.stats.LeaseRenewals++
			// A renewal is a raw request frame carrying the lease's token
			// and grant epoch in Var — ordinary request retries carry Var
			// zero, which is how the root tells a renewal from a holder
			// re-announcing a lost grant. It must not touch the want/token
			// machinery: no acquisition is outstanding.
			m := n.lockReqFrame(g, l, le.token)
			m.Var = le.epoch
			n.send(g.rootID, m)
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
		if lk.lease == nil && !lk.hint.set && lk.pendingHandoff == nil && lk.handoffIn == nil {
			continue
		}
		dropped = true
		if le := lk.lease; le != nil && !le.held {
			lk.held.drop(n.id)
			lk.lockDone = max(lk.lockDone, le.epoch)
		}
		lk.lease = nil
		lk.hint = handoffHint{}
		lk.pendingHandoff = nil
		g.unparkHandoff(lk)
	}
	if dropped {
		g.lock.notifyAll()
	}
}

// --- Root side ---

// maybeLease leases the lock to the winner it was just granted to, when
// nobody waits behind it. Caller holds n.mu.
func (n *Node) maybeLease(r *rootGroup, l LockID, ls *lockState, winner int) {
	h := ls.sole()
	if !n.leasing() || winner == n.id || len(ls.queue) > 0 || h == nil || h.node != winner || r.fenced {
		return
	}
	ls.leaseTo = winner
	ls.leaseExpiry = n.clock.Now().Add(n.leaseTTL)
	ls.leaseEpoch = h.epoch
	ls.leaseToken = h.token
	ls.revokeB.reset()
	n.stats.LeaseGrants++
	n.emit(obs.EvLeaseGrant, r.cfg.ID, int64(l), int64(winner))
	n.send(winner, wire.Message{
		Type:     wire.TLeaseGrant,
		Group:    uint32(r.cfg.ID),
		Src:      int32(n.id),
		Origin:   int32(ls.leaseToken),
		Lock:     uint32(l),
		Var:      ls.leaseEpoch,
		Deadline: int64(n.leaseTTL),
		Epoch:    r.epoch,
	})
}

// reserveHint designates the head queued waiter as the new winner's
// direct-handoff target and returns it packed for the grant multicast's
// Deadline field (zero = no hint). The waiter is peeked, not popped:
// installHandoff dequeues it if the transfer happens, and the classic
// churn grants it if not. Caller holds n.mu.
func (n *Node) reserveHint(r *rootGroup, ls *lockState, winner int) int64 {
	ls.hintNode = -1
	if !n.leasing() || ls.sole() == nil || len(ls.queue) == 0 {
		return 0
	}
	w := ls.queue[0]
	if w.session != 0 || w.node == n.id || w.node == winner {
		return 0 // only an exclusive waiter can take an exclusive section over
	}
	ls.hintNode = w.node
	ls.hintToken = w.token
	// node+1 keeps node 0 distinguishable from "no hint".
	return int64(w.token)<<32 | int64(uint32(w.node+1))
}

// sendLeaseRevoke demands a leased lock back from its holder and arms
// the re-demand schedule. Caller holds n.mu.
func (n *Node) sendLeaseRevoke(r *rootGroup, l LockID, ls *lockState, now time.Time) {
	n.stats.LeaseRevokes++
	n.arm(&ls.revokeB, now, n.boBase(), n.boCap())
	n.send(ls.leaseTo, wire.Message{
		Type:   wire.TLeaseGrant,
		Group:  uint32(r.cfg.ID),
		Src:    int32(n.id),
		Origin: int32(ls.leaseToken),
		Lock:   uint32(l),
		Var:    ls.leaseEpoch,
		// Deadline zero is the revoke demand.
		Epoch: r.epoch,
	})
}

// tickRootLeases re-sends due revoke demands: while a leased lock has
// waiters (or the reign is fenced), the holder must give it back, and
// the demand frame is unacknowledged until the TLeaseRet (or release)
// lands. Caller holds n.mu.
func (n *Node) tickRootLeases(r *rootGroup, now time.Time) {
	for i := range r.locks.recs {
		l, ls := LockID(i), &r.locks.recs[i]
		if !ls.used || ls.leaseTo < 0 {
			continue
		}
		if len(ls.queue) == 0 && !r.fenced {
			continue
		}
		if !ls.revokeB.ready(now) {
			continue
		}
		n.sendLeaseRevoke(r, l, ls, now)
	}
}

// rootLeaseRet processes a member's lease return, validated exactly
// like a release: the quoted entry epoch must match the holder record,
// so a duplicated return can never free a later entry. Caller holds
// n.mu.
func (n *Node) rootLeaseRet(r *rootGroup, m *wire.Message) {
	l := LockID(m.Lock)
	ls := r.lock(l)
	origin := int(m.Origin)
	if !ls.holdsAt(origin, m.Var) {
		return // stale or duplicate return
	}
	n.stats.LeaseReturns++
	n.emit(obs.EvLeaseReturn, r.cfg.ID, int64(l), int64(origin))
	n.leaveLock(r, l, ls, origin)
}

// rootHandoff validates a holder's transfer notice and commits it. The
// hint is deliberately not required to match: a cancel race can clear
// it, and the frame's own fields — the holder record, the entry epoch,
// and the reserved next epoch — carry everything arbitration needs.
// Caller holds n.mu.
func (n *Node) rootHandoff(r *rootGroup, m *wire.Message) {
	l := LockID(m.Lock)
	ls := r.lock(l)
	from := int(m.Origin)
	w := holderOf(m.Val)
	if w < 0 || w == n.id || !r.cfg.memberOf(w) || !r.cfg.memberOf(from) {
		return
	}
	if !ls.holdsAt(from, m.Var) {
		return // already committed (duplicate notice) or stale
	}
	if ls.sole() == nil {
		n.protoErr("gwc: node %d got handoff notice for lock %d outside an exclusive section", n.id, l)
		return
	}
	if uint32(m.Seq) != ls.epoch+1 {
		return // reserved an epoch this manager would not mint next
	}
	n.installHandoff(r, l, ls, from, w)
}

// inferHandoff commits a handoff whose notice has not arrived yet,
// recognised from the new holder's own traffic: frames by the hinted
// waiter tagged with exactly the epoch the hint reserved can only mean
// the transfer happened. Returns whether a handoff was committed (the
// caller re-checks its validation against the updated state). Caller
// holds n.mu.
func (n *Node) inferHandoff(r *rootGroup, l LockID, ls *lockState, origin int, epoch uint32) bool {
	h := ls.sole()
	if !n.leasing() || ls.hintNode != origin || epoch != ls.epoch+1 || h == nil || h.node == origin {
		return false
	}
	n.installHandoff(r, l, ls, h.node, origin)
	return true
}

// installHandoff retires the old holder, installs the new one at the
// reserved epoch, and multicasts the confirming lock frame — sequenced
// behind the closing section's data and carrying the next hint, so a
// convoy chains handoff to handoff. Caller holds n.mu.
func (n *Node) installHandoff(r *rootGroup, l LockID, ls *lockState, from, w int) {
	// The hint was a peek: the waiter is still queued and must come out,
	// or the next churn would grant it a second time.
	tok := uint32(0)
	if ls.hintNode == w {
		tok = ls.hintToken
	}
	for i, q := range ls.queue {
		if q.node == w {
			if tok == 0 {
				tok = q.token
			}
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			break
		}
	}
	n.leave(ls, from)
	// A peer transfer is always a foreign entry: the new holder differs
	// from the old, so other nodes' speculations against the closing
	// section must roll back.
	ls.foreignEpoch = ls.epoch
	n.enter(ls, w, tok)
	ls.lastWinner = w
	ls.hintNode = -1
	n.stats.HandoffCommits++
	n.emit(obs.EvHandoff, r.cfg.ID, int64(l), int64(w))
	msg := wire.Message{
		Type:    wire.TSeqLock,
		Group:   uint32(r.cfg.ID),
		Src:     int32(n.id),
		Origin:  int32(tok),
		Lock:    uint32(l),
		Var:     ls.epoch,
		Val:     GrantValue(w),
		Session: 0,
	}
	if h := n.reserveHint(r, ls, w); h != 0 {
		msg.Deadline = h
	}
	n.multicast(r, msg)
	n.maybeLease(r, l, ls, w)
}
