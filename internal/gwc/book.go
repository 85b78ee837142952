package gwc

import (
	"slices"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// The root's lock book.
//
// The group root doubles as the lock manager of Section 2: a request
// writes the negated node ID, the grant the positive one, and the lock is
// one more sequenced variable. The book is that manager as one value,
// one per reign: it owns the reign's lock records and makes every
// root-side lock decision. It takes in the lock frames (request — lease
// renewal included —, release, cancel, lease return, handoff notice), the
// handoff a guarded write proves, a commit-watermark advance or an
// unfence (resume), a fence, the maintenance tick's watchdog and revoke
// re-sends, a rejoiner's purge, and promotion's rebuilt records (load).
//
// It does no I/O and reads no clock. Each decision leaves through its
// bookSink in the order it is made — a frame to multicast or send, an
// event, a gauge step — and what it does not own (the time, the
// sequence and commit watermarks, the fence, the node's lease and
// quorum settings) it asks the sink for, at the point a decision needs
// it. The reign implements the sink (bookShell, root.go); a test can
// record it and drive the book alone (book_test.go).

// bookSink is the book's way out, and its way to read what it does not
// own.
type bookSink interface {
	multicast(m wire.Message)           // sequence a down frame and fan it out
	send(to int, m wire.Message)        // a lease grant or revoke, to its holder
	park(m wire.Message)                // an up frame held back while the reign is fenced
	emit(typ obs.EventType, a, b int64) // a protocol event of the reign's group
	holders(delta int)                  // step the session-holders gauge
	quorumWaited(since time.Time)       // parked grants announced, parked since since
	arm(b *backoff, now time.Time)      // schedule a revoke's re-send (seeded jitter)
	protoErr(format string, args ...any)

	now() time.Time
	seq() uint64    // the reign's sequence watermark
	commit() uint64 // the quorum-ack commit watermark
	fenced() bool
	quorumAcks() bool
	leaseTTL() time.Duration // zero while leasing is off; quorum acks turn it off too
}

// lockBook is a reign's lock manager.
type lockBook struct {
	sink bookSink
	// hdr heads every frame the book builds: the reign's group and epoch,
	// sent by this node.
	hdr     wire.Hdr
	members []int
	// locks holds one record per lock, indexed by ID (table.go). A record
	// is live once lock() has touched it (used); snapshots and the
	// maintenance passes skip the rest.
	locks table[LockID, lockState]
}

// lockWaiter is one queued lock request: the requesting node and the
// acquisition token its request carried (see memberGroup.reqToken).
// Requests re-queued from failover reports carry token 0, which never
// matches a live acquisition; the member declines such a grant and its
// request retry re-queues with the real token. deadline (Unix nanos, 0
// = none) is the caller's give-up time from the wire: granting past it
// only bounces, so admit discards expired entries at dequeue.
// session is the group-mutual-exclusion session the request wants to
// enter (0 = exclusive).
type lockWaiter struct {
	node     int
	token    uint32
	deadline int64
	session  uint32
}

// lockState is the book's record of one queue-based lock: the open
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
	// deferredAt marks when the first of pending parked, and is zero
	// whenever pending is empty; announcing them records the wait in
	// HistQuorumWait.
	deferredAt time.Time
	// watchAt is the stuck-operation watchdog's last clean observation of
	// this lock (watch): re-stamped whenever the lock looks healthy or the
	// watchdog trips, so a trip re-fires per budget, not per tick.
	watchAt time.Time

	// Lease bookkeeping (lease.go): leaseTo is the member the lock is
	// leased to (-1 none), leaseEpoch/leaseToken the entry the lease was
	// issued against, and revokeB the revoke demand's re-send schedule.
	// The book keeps no expiry: it frees a leased lock only on a return, a
	// release, or the holder's rejoin.
	leaseTo    int
	leaseEpoch uint32
	leaseToken uint32
	revokeB    backoff
	// hintNode/hintToken name the head queued waiter the newest grant
	// designated as its holder's direct-handoff target (-1 none). The
	// waiter stays queued: a committed handoff dequeues it, anything
	// else leaves the classic churn to serve it.
	hintNode  int
	hintToken uint32
}

// newLockState is a live lock record with nobody in it: no holder, no
// past winner, no lease out, no handoff target. Node 0 is a member, so
// the node-valued fields' zero value would name it.
func newLockState() lockState {
	return lockState{used: true, lastWinner: -1, leaseTo: -1, hintNode: -1}
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

// waiting returns the queue position of node's request, or -1.
func (ls *lockState) waiting(node int) int {
	return slices.IndexFunc(ls.queue, func(w lockWaiter) bool { return w.node == node })
}

// take removes the i-th waiter from the queue and returns it. The head
// is resliced off rather than copied over.
func (ls *lockState) take(i int) lockWaiter {
	w := ls.queue[i]
	if i == 0 {
		ls.queue = ls.queue[1:]
	} else {
		ls.queue = slices.Delete(ls.queue, i, i+1)
	}
	return w
}

// unqueue withdraws node's request, if it waits.
func (ls *lockState) unqueue(node int) (lockWaiter, bool) {
	if i := ls.waiting(node); i >= 0 {
		return ls.take(i), true
	}
	return lockWaiter{}, false
}

// lock returns l's record, initializing it on first use.
func (b *lockBook) lock(l LockID) *lockState {
	ls := b.locks.at(l)
	if !ls.used {
		*ls = newLockState()
	}
	return ls
}

// each calls f on every record in use, in lock ID order: the book's one
// walk over its locks.
func (b *lockBook) each(f func(LockID, *lockState)) {
	for i := range b.locks.recs {
		if ls := &b.locks.recs[i]; ls.used {
			f(LockID(i), ls)
		}
	}
}

func (b *lockBook) self() int     { return int(b.hdr.Src) }
func (b *lockBook) leasing() bool { return b.sink.leaseTTL() > 0 && !b.sink.quorumAcks() }

// step takes in one lock frame of the reign's up plane.
func (b *lockBook) step(m *wire.Message) {
	l := LockID(m.Lock)
	ls := b.lock(l)
	switch m.Type {
	case wire.TLockReq:
		b.request(l, ls, m)
	case wire.TLockRel:
		// A release quoting exactly the epoch the newest handoff hint
		// reserved is the new holder already leaving a section this book
		// has not committed yet (the notice is in flight): commit the
		// transfer first, then re-validate (lease.go).
		origin, e := int(m.Origin), m.EntryEpoch()
		if ls.holdsAt(origin, e) || b.inferHandoff(l, ls, origin, e) && ls.holdsAt(origin, e) {
			b.leaveLock(l, ls, origin)
		}
	case wire.TLockCancel:
		b.cancel(l, ls, int(m.Origin))
	case wire.TLeaseRet:
		// Validated exactly like a release, so a duplicated return can
		// never free a later entry.
		if origin := int(m.Origin); ls.holdsAt(origin, m.EntryEpoch()) {
			b.sink.emit(obs.EvLeaseReturn, int64(l), int64(origin))
			b.leaveLock(l, ls, origin)
		}
	case wire.THandoff:
		b.handoff(l, ls, m)
	}
}

// runsInPlace answers, for a frame pushed at the reign's root
// (Node.tryDeliver), whether it changes nobody else's wait, so that its
// pusher may run it: a request for a lock free on the books, or a
// release with nobody queued behind it. A request that would queue, or a
// release that would hand the lock to a waiter, is left for the root's
// receive loop, as a sent frame is: handing a lock over on the
// releaser's goroutine, sooner than the woken holder can move, only
// makes more requests find it held. No other frame changes a wait.
func (b *lockBook) runsInPlace(m *wire.Message) bool {
	if m.Type != wire.TLockReq && m.Type != wire.TLockRel {
		return true
	}
	ls := b.locks.peek(LockID(m.Lock))
	return ls == nil || len(ls.queue) == 0 && (m.Type == wire.TLockRel || ls.free())
}

// request queues or grants a lock request. A retry from a current
// holder re-announces its entry (covering an entry multicast that died
// with a deposed root) without minting a new one; retries from queued
// waiters are ignored. A request for the session already open enters
// concurrently — but only while nobody else waits, so a queued foreign
// session is never starved by a stream of same-session joins (the
// fairness rule of group mutual exclusion).
func (b *lockBook) request(l LockID, ls *lockState, m *wire.Message) {
	w := lockWaiter{int(m.Origin), m.Token(), m.CallerDeadline(), m.Session}
	if w.deadline != 0 && w.deadline <= b.sink.now().UnixNano() {
		// The caller already gave up on this acquisition; queueing (or
		// re-announcing) would grant into the void and bounce. Its cancel
		// is on the way — and if the grant raced ahead of the deadline,
		// cancellation releases it through the normal path.
		b.sink.emit(obs.EvDeadlineDrop, int64(l), int64(w.node))
		return
	}
	if h := ls.held.find(w.node); h != nil {
		if slices.Contains(ls.pending, w.node) {
			// Designated but not yet announced: the retry changes nothing,
			// and announcing early would leak the grant past the quorum
			// watermark. resume sends it when commit catches up.
			return
		}
		if renews := m.EntryEpoch(); b.leasing() && ls.leaseTo == w.node && renews != 0 &&
			renews == ls.leaseEpoch && h.token == w.token {
			// Lease renewal: the holder quotes its lease's entry epoch
			// (ordinary retries quote none) and its granted token. Extend
			// while nobody waits; with waiters the answer is the revoke
			// demand, re-sent here in case the original was lost.
			if len(ls.queue) == 0 {
				b.sendLease(l, ls)
			} else {
				b.sendLeaseRevoke(l, ls, b.sink.now())
			}
			return
		}
		// Re-announce with the granted request's token, not the retry's:
		// if they differ the member has moved on to a new acquisition and
		// must decline this entry (its decline releases it here and its
		// retry re-queues the new request).
		b.announce(l, ls, w.node, wire.Hint{})
		return
	}
	if i := ls.waiting(w.node); i >= 0 {
		// Duplicate. A retry reuses its acquisition token, so a differing
		// one means this entry's request was cancelled but the cancel was
		// lost — the newer acquisition supersedes it. Either way the
		// retry's deadline is the freshest word on when the caller gives
		// up.
		ls.queue[i] = w
		return
	}
	if !ls.free() {
		if shares(w.session, ls.held.session) && len(ls.queue) == 0 {
			// Concurrent entering: the requested session is already open
			// and nobody waits, so the requester joins it immediately.
			// Once any other session queues, later same-session requests
			// line up behind it instead — the open session drains and the
			// waiter gets its turn within one section churn.
			b.sink.emit(obs.EvSessJoin, int64(l), int64(w.session))
			b.grant(l, ls, w)
			return
		}
		ls.queue = append(ls.queue, w)
		b.sink.emit(obs.EvLockQueued, int64(l), int64(w.node))
		if ls.leaseTo >= 0 {
			// The lock is leased out and now has a waiter: demand it back.
			// The demand re-sends from the maintenance tick until the
			// return (or the holder's release) lands.
			b.sendLeaseRevoke(l, ls, b.sink.now())
		}
		return
	}
	// A free lock always designates the requester immediately; grant
	// itself defers the multicast when the quorum watermark has not
	// caught up, so the lock never sits holderless across the park.
	b.grant(l, ls, w)
}

// cancel withdraws origin's request from the queue. If the grant raced
// the cancellation, origin's entry is released on its behalf instead,
// so an aborted acquisition can never strand the queue.
func (b *lockBook) cancel(l LockID, ls *lockState, origin int) {
	b.sink.emit(obs.EvLockCancel, int64(l), int64(origin))
	if ls.holds(origin) {
		b.leaveLock(l, ls, origin)
		return
	}
	if _, ok := ls.unqueue(origin); ok && ls.hintNode == origin {
		// The designated handoff target withdrew. The holder may still
		// transfer to it (its hint is already out); the notice path
		// re-validates and the decline machinery returns the lock if the
		// waiter is truly gone.
		ls.hintNode = -1
	}
}

// enter books node into the open section at the lock's next epoch.
func (b *lockBook) enter(ls *lockState, node int, token uint32) {
	ls.epoch++
	ls.held.put(holder{node: node, epoch: ls.epoch, token: token})
	b.sink.holders(1)
}

// leave takes node off the books — its entry, an announcement still
// deferred, a lease — and returns the epoch the entry was announced with.
func (b *lockBook) leave(ls *lockState, node int) uint32 {
	// Leaving a designated-but-unannounced entry simply retires it; the
	// multicast that never went out owes nobody anything, and a park
	// nobody is left in has waited for nothing.
	ls.pending = slices.DeleteFunc(ls.pending, func(p int) bool { return p == node })
	if len(ls.pending) == 0 {
		ls.deferredAt = time.Time{}
	}
	left := ls.held.find(node).epoch
	ls.held.drop(node)
	b.sink.holders(-1)
	if ls.leaseTo == node {
		ls.leaseTo = -1 // the leaseholder leaving retires its lease
	}
	return left
}

// leaveLock removes origin from the holder set. While other holders of
// the open session remain, only a leave notice is multicast; when the
// last holder leaves the section closes and the next waiter's section
// opens (open), or the free value is multicast when nobody is queued.
// Under SetQuorumAcks a handoff's *announcement* is deferred until a
// quorum of members acked everything sequenced so far — the closing
// section's data in particular — so the next holder can never observe
// (and build on) writes that a root failover could lose; the winner
// itself is designated at once (see lockState.pending).
func (b *lockBook) leaveLock(l LockID, ls *lockState, origin int) {
	sess := ls.held.session
	notice := b.hdr.Leave(uint32(l), sess, origin, b.leave(ls, origin))
	if !ls.free() {
		// The session stays open; tell the group this holder is out so
		// member-side holder sets (and waiters on them) stay exact.
		b.sink.multicast(notice)
		return
	}
	if sess != 0 {
		b.sink.emit(obs.EvSessClose, int64(l), int64(sess))
	}
	if b.sink.quorumAcks() {
		ls.needSeq = b.sink.seq()
	}
	// Handing off out of a session, members still holding the old view
	// must see its last holder leave before the next section's entry
	// frames arrive, so a same-session reopen extends an exact holder set.
	// An exclusive close needs no notice: the next entry frame opens a new
	// section in member copies by itself.
	first := &notice
	if sess == 0 {
		first = nil
	}
	if !b.open(l, ls, first) {
		// Nobody waiting: propagate the free value to all group memories.
		b.sink.emit(obs.EvLockFree, int64(l), 0)
		b.sink.multicast(b.hdr.Close(uint32(l), sess, ls.epoch))
	}
}

// open opens the free lock's next section, if anyone waits, and reports
// whether it did. The first live waiter enters — after first, if given,
// is multicast — and with it every queued waiter of its session:
// concurrent entering means a session's waiters all enter with its head,
// rather than one per section churn. An exclusive section (session 0)
// admits its head alone.
func (b *lockBook) open(l LockID, ls *lockState, first *wire.Message) bool {
	var now int64
	w, ok := b.admit(l, ls, &now)
	if ok && first != nil {
		b.sink.multicast(*first)
	}
	opened := ok
	for ; ok; w, ok = b.admit(l, ls, &now) {
		b.grant(l, ls, w)
	}
	return opened
}

// admit takes the next waiter the lock lets in — the head of the queue
// while the lock is free, else the next waiter of the open session, which
// joins it — and drops each one it takes whose deadline has passed: its
// caller gave up, so a grant would only be declined and cost the lock a
// round trip. now caches the clock across one open, read only if a
// deadline is met; most queues carry none.
func (b *lockBook) admit(l LockID, ls *lockState, now *int64) (lockWaiter, bool) {
	for i := 0; i < len(ls.queue); {
		if !ls.free() && !shares(ls.queue[i].session, ls.held.session) {
			i++
			continue
		}
		w := ls.take(i)
		if w.deadline != 0 {
			if *now == 0 {
				*now = b.sink.now().UnixNano()
			}
			if w.deadline <= *now {
				b.sink.emit(obs.EvDeadlineDrop, int64(l), int64(w.node))
				continue
			}
		}
		if !ls.free() {
			b.sink.emit(obs.EvSessJoin, int64(l), int64(w.session))
		}
		return w, true
	}
	return lockWaiter{}, false
}

// grant designates the winner — holder-set entry, token, and grant
// epoch are assigned immediately — and announces the entry, unless the
// quorum-ack watermark has not yet covered the previous section's data,
// in which case only the announcement is deferred (resume sends it once
// commit catches up). Designating before the park closes the window in
// which the lock would otherwise sit holderless and a clean speculation
// committing into it would be suppressed not-holder.
func (b *lockBook) grant(l LockID, ls *lockState, w lockWaiter) {
	// A classic grant supersedes whatever handoff target the previous
	// grant designated; sendGrant re-reserves from the live queue.
	ls.hintNode = -1
	if ls.free() {
		// Opening a new critical section. The entry is foreign — it rolls
		// other nodes' speculative sections back — unless it re-extends
		// what the previous section already allowed: a reopen of a session
		// it shares, or the same exclusive winner back to back (see
		// lockState.foreignEpoch).
		if !shares(w.session, ls.lastSession) && (w.session != ls.lastSession || w.node != ls.lastWinner) {
			ls.foreignEpoch = ls.epoch
		}
		if w.session != 0 {
			b.sink.emit(obs.EvSessOpen, int64(l), int64(w.session))
		}
		ls.lastWinner, ls.lastSession = w.node, w.session
		ls.held.open(w.session)
	}
	b.enter(ls, w.node, w.token)
	if b.sink.quorumAcks() && b.sink.commit() < ls.needSeq {
		// Durability gate: the winner is designated (its clean speculative
		// writes sequence as holder writes) but must not *learn* of the
		// grant until a quorum holds the prefix its section would build on.
		ls.pending = append(ls.pending, w.node)
		if ls.deferredAt.IsZero() {
			ls.deferredAt = b.sink.now()
		}
		b.sink.emit(obs.EvLockParked, int64(l), int64(w.node))
		return
	}
	b.sendGrant(l, ls, w.node, obs.EvLockGrant)
}

// sendGrant announces winner's designated entry, records it as ev — a
// grant, or a handoff the book committed — and piggybacks the head
// waiter as the winner's direct-handoff target (lease.go); with nobody
// queued, it leases the lock to the winner instead.
func (b *lockBook) sendGrant(l LockID, ls *lockState, winner int, ev obs.EventType) {
	b.sink.emit(ev, int64(l), int64(winner))
	b.announce(l, ls, winner, b.reserveHint(ls, winner))
	b.maybeLease(l, ls, winner)
}

// announce multicasts node's entry as the books hold it: its positive ID
// in the lock variable, tagged with its entry epoch and echoing the
// token of the request it answers, so the member can verify the grant
// answers its current acquisition; the frame carries the open session
// and hint, the handoff target.
func (b *lockBook) announce(l LockID, ls *lockState, node int, hint wire.Hint) {
	h := ls.held.find(node)
	b.sink.multicast(b.hdr.Entry(uint32(l), ls.held.session, node, h.epoch, h.token, hint))
}

// resume re-drives what waits on the reign rather than on a frame: the
// entries parked on the quorum watermark that commit now covers are
// announced, in designation order, and a free lock with waiters opens
// its next section. Nothing is granted while the reign is fenced.
func (b *lockBook) resume() {
	if b.sink.fenced() {
		return
	}
	commit := b.sink.commit()
	b.each(func(l LockID, ls *lockState) {
		if commit < ls.needSeq {
			return
		}
		if len(ls.pending) > 0 {
			// The winners were designated at park time; only the
			// announcements waited for the watermark.
			b.sink.quorumWaited(ls.deferredAt)
			pend := ls.pending
			ls.pending, ls.deferredAt = nil, time.Time{}
			for _, h := range pend {
				if ls.holds(h) {
					b.sendGrant(l, ls, h, obs.EvLockGrant)
				}
			}
			return
		}
		if ls.free() {
			b.open(l, ls, nil)
		}
	})
}

// judgeWrite judges a guarded write that origin tagged with grant epoch
// tag under lock l. It is accepted only from a holder, and only when the
// sender had observed every foreign entry before speculating (its tag
// covers the newest foreign entry). A write whose tag predates a foreign
// entry belongs to a section that rolled back (or will — the sender's
// interrupt fires on that same entry), so it must not enter the group.
// Entries the sender won itself — or other nodes' entries into the
// sender's own session — are harmless: they never roll the sender's
// sections back, and counting them here would suppress the writes of a
// legitimately committed section. A refused write's suppression reason
// is returned.
func (b *lockBook) judgeWrite(l LockID, origin int, tag uint32) (reason int64, ok bool) {
	ls := b.lock(l)
	// Not a holder on the books — unless its tag is exactly the epoch the
	// newest handoff hint reserved, in which case this write is proof the
	// peer transfer happened and the notice is still in flight: commit the
	// handoff first, then judge the write against the updated record.
	if !ls.holds(origin) && !b.inferHandoff(l, ls, origin, tag) {
		return obs.ReasonNotHolder, false
	}
	if tag < ls.foreignEpoch {
		return obs.ReasonStaleGrant, false
	}
	return 0, true
}

// recall demands leased locks back. When the reign fences (all), every
// outstanding lease is demanded at once: a fenced reign cannot vouch for
// leased re-entries it no longer observes. The maintenance tick then
// re-sends each due demand while a leased lock has waiters or the reign
// is fenced, since a demand is unacknowledged until the return (or
// release) lands. The records stay: only a validated return, a release,
// or the holder's rejoin retires a lease.
func (b *lockBook) recall(now time.Time, all bool) {
	fenced := b.sink.fenced()
	b.each(func(l LockID, ls *lockState) {
		if ls.leaseTo >= 0 && (all || (len(ls.queue) > 0 || fenced) && ls.revokeB.ready(now)) {
			b.sendLeaseRevoke(l, ls, now)
		}
	})
}

// watch runs the stuck-operation watchdog (watchdog.go) over the books:
// a grant parked on the quorum watermark, a holderless lock with waiters
// queued, or a leased lock with waiters, past budget, trips. A lease trip
// re-arms its revoke demand at full cadence — the book never force-frees
// a leased lock, which could mint two exclusive holders; a crashed
// leaseholder is freed by its rejoin, a partitioned one by the reign's
// deposition. The other trips report that the reign should re-run
// resume, the cheapest safe re-drive.
func (b *lockBook) watch(now time.Time, budget time.Duration) (service bool) {
	b.each(func(l LockID, ls *lockState) {
		leased := ls.leaseTo >= 0 && len(ls.queue) > 0
		stuck := len(ls.pending) > 0 || (ls.free() && len(ls.queue) > 0) || leased
		if !stuck || ls.watchAt.IsZero() {
			ls.watchAt = now
			return
		}
		if now.Sub(ls.watchAt) < budget {
			return
		}
		ls.watchAt = now
		kind := obs.WatchHolderless
		switch {
		case len(ls.pending) > 0:
			kind = obs.WatchParked
			service = true
		case leased:
			kind = obs.WatchLease
			ls.revokeB.reset()
		default:
			service = true
		}
		b.sink.emit(obs.EvWatchdogStuck, kind, int64(l))
		b.sink.emit(obs.EvWatchdogReissue, kind, int64(l))
	})
	return service
}

// purge takes a rejoining node off the books: its volatile state is
// gone, so it leaves every queue, and each entry it held is released on
// its behalf — only its own: under a session the other holders'
// sections are live. While the reign is fenced the release is parked
// like any other, so a fenced reign grants nothing.
func (b *lockBook) purge(node int) {
	b.each(func(l LockID, ls *lockState) {
		ls.unqueue(node)
		h := ls.held.find(node)
		switch {
		case h == nil:
		case b.sink.fenced():
			rel := b.hdr
			rel.Src = int32(node)
			b.sink.park(rel.LockRel(uint32(l), h.epoch, ls.held.session))
		default:
			b.leaveLock(l, ls, node)
		}
	})
}

// load installs promotion's rebuilt records (rebuildLocks) in the new
// reign's book. Their holders enter the gauge so their eventual leaves
// balance it.
func (b *lockBook) load(locks map[LockID]*lockState) {
	for l, ls := range locks {
		*b.locks.at(l) = *ls
		b.sink.holders(len(ls.held.in))
	}
}

// snap appends every lock's piece of a state stream taken at seq and
// addressed by h.
func (b *lockBook) snap(msgs []wire.Message, h wire.Hdr, seq uint64) []wire.Message {
	b.each(func(l LockID, ls *lockState) {
		msgs = snapLock(msgs, h, seq, l, &ls.held, ls.epoch, Free, 0)
	})
	return msgs
}

// close settles what a dropped book still owes: the holders on it leave
// the gauge with it (their releases go to the new reign, which counts
// the holders it reconstructed itself).
func (b *lockBook) close() {
	owed := 0
	b.each(func(_ LockID, ls *lockState) { owed += len(ls.held.in) })
	b.sink.holders(-owed)
}

// --- Leases and handoff (lease.go has the member side and the design).

// maybeLease leases the lock to the winner it was just granted to, when
// nobody waits behind it.
func (b *lockBook) maybeLease(l LockID, ls *lockState, winner int) {
	h := ls.sole()
	if !b.leasing() || winner == b.self() || len(ls.queue) > 0 || h == nil || h.node != winner || b.sink.fenced() {
		return
	}
	ls.leaseTo, ls.leaseEpoch, ls.leaseToken = winner, h.epoch, h.token
	ls.revokeB.reset()
	b.sendLease(l, ls)
}

// sendLease grants, or extends, the lease on l to its leaseholder.
func (b *lockBook) sendLease(l LockID, ls *lockState) {
	b.sink.emit(obs.EvLeaseGrant, int64(l), int64(ls.leaseTo))
	b.sink.send(ls.leaseTo, b.hdr.LeaseGrant(uint32(l), ls.leaseEpoch, ls.leaseToken, b.sink.leaseTTL()))
}

// sendLeaseRevoke demands a leased lock back from its holder and arms
// the re-demand schedule.
func (b *lockBook) sendLeaseRevoke(l LockID, ls *lockState, now time.Time) {
	b.sink.emit(obs.EvLeaseRevoke, int64(l), int64(ls.leaseTo))
	b.sink.arm(&ls.revokeB, now)
	b.sink.send(ls.leaseTo, b.hdr.LeaseRevoke(uint32(l), ls.leaseEpoch, ls.leaseToken))
}

// reserveHint designates the head queued waiter as the new winner's
// direct-handoff target and returns it for the grant announcement. The
// waiter is peeked, not popped: installHandoff dequeues it if the
// transfer happens, and the classic churn grants it if not.
func (b *lockBook) reserveHint(ls *lockState, winner int) wire.Hint {
	ls.hintNode = -1
	if !b.leasing() || ls.sole() == nil || len(ls.queue) == 0 {
		return wire.Hint{}
	}
	w := ls.queue[0]
	if w.session != 0 || w.node == b.self() || w.node == winner {
		return wire.Hint{} // only an exclusive waiter can take an exclusive section over
	}
	ls.hintNode = w.node
	ls.hintToken = w.token
	return wire.Hint{Node: w.node, Token: w.token, Set: true}
}

// handoff validates a holder's transfer notice and commits it. The hint
// is deliberately not required to match: a cancel race can clear it, and
// the frame's own fields — the holder record, the entry epoch, and the
// reserved next epoch — carry everything arbitration needs.
func (b *lockBook) handoff(l LockID, ls *lockState, m *wire.Message) {
	from, w := int(m.Origin), m.Holder()
	if w < 0 || w == b.self() || !slices.Contains(b.members, w) || !slices.Contains(b.members, from) {
		return
	}
	if !ls.holdsAt(from, m.EntryEpoch()) {
		return // already committed (duplicate notice) or stale
	}
	if ls.sole() == nil {
		b.sink.protoErr("gwc: node %d got handoff notice for lock %d outside an exclusive section", b.self(), l)
		return
	}
	if m.Reserved() != ls.epoch+1 {
		return // reserved an epoch this book would not mint next
	}
	b.installHandoff(l, ls, from, w)
}

// inferHandoff commits a handoff whose notice has not arrived yet,
// recognised from the new holder's own traffic: frames by the hinted
// waiter tagged with exactly the epoch the hint reserved can only mean
// the transfer happened. Returns whether a handoff was committed (the
// caller re-checks its validation against the updated state).
func (b *lockBook) inferHandoff(l LockID, ls *lockState, origin int, epoch uint32) bool {
	h := ls.sole()
	if !b.leasing() || ls.hintNode != origin || epoch != ls.epoch+1 || h == nil || h.node == origin {
		return false
	}
	b.installHandoff(l, ls, h.node, origin)
	return true
}

// installHandoff retires the old holder, installs the new one at the
// reserved epoch, and announces it — sequenced behind the closing
// section's data and carrying the next hint, so a convoy chains handoff
// to handoff.
func (b *lockBook) installHandoff(l LockID, ls *lockState, from, w int) {
	// The hint was a peek: the waiter is still queued and must come out,
	// or the next churn would grant it a second time.
	tok := uint32(0)
	if ls.hintNode == w {
		tok = ls.hintToken
	}
	if q, ok := ls.unqueue(w); ok && tok == 0 {
		tok = q.token
	}
	b.leave(ls, from)
	// A peer transfer is always a foreign entry: the new holder differs
	// from the old, so other nodes' speculations against the closing
	// section must roll back.
	ls.foreignEpoch = ls.epoch
	b.enter(ls, w, tok)
	ls.lastWinner = w
	b.sendGrant(l, ls, w, obs.EvHandoffCommit)
}
