package gwc

import (
	"slices"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// The member's lock plane.
//
// In the paper a member's copy of a lock is a word of local memory that
// the sharing interface overwrites. The plane is that copy, and every
// member-side lock decision, as one value per group beside the root's
// lock book (book.go): it owns the lock records (memberLock), the list of
// busy locks the tick walks, and what a member holds of a lock beyond its
// copy (deleg, the lease; lease.go has the design). It takes in the
// sequenced lock frames (applyLock), the lease frames the node's reign
// gate let through (leaseFrame), a re-base's installed sections
// (install) and dropped claims (dropDelegs), a rejoin's reset (forget),
// an election report's lock half (report), a caller's look, start, wait,
// cancel and release (look, start, park, cancel, release), and the
// maintenance tick's two passes (tickLocks, tickDeleg).
//
// It does no I/O and reads no clock. Each decision leaves through its
// memberSink in the order it is made — a frame for the root, an event, a
// wake-up, a backoff armed — and what it does not own it asks the sink
// for. A frame its caller sends once it holds nothing — a caller's first
// request, Release's release, a cancel — is returned, not sunk. The
// node implements the sink (memberShell, member.go); a test records it
// and runs planes against a lock book (plane_test.go).

// memberSink is the plane's way out, and its way to read what it does
// not own.
type memberSink interface {
	up(m wire.Message)                  // send a frame to the root the member follows
	emit(typ obs.EventType, a, b int64) // a protocol event of the group
	wake()                              // poke the callers waiting on a lock change
	arm(b *backoff, now time.Time)      // schedule a re-send (seeded jitter)
	suspend()                           // an interrupt answered HookSuspend: suspend insharing

	now() time.Time
	hdr() wire.Hdr // the header of a frame in the reign the member follows
	leasing() bool // the lease fast path is on
}

// lockPlane is one member's lock state for one group.
type lockPlane struct {
	// The one record per lock, indexed by ID (table.go).
	table[LockID, memberLock]
	self int // this node
	sink memberSink
	// busy lists, ascending, the locks that carry state the tick visits:
	// an acquisition stamp, a parked caller or a lease. Setting such state
	// marks the record (markBusy); clearing it does nothing, and the
	// tick's first pass (tickLocks) unlists what went idle.
	busy []LockID
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
	// the stuck-operation watchdog (watchLock); zero when none is.
	reqSince time.Time
	// reqDeadline is the caller's give-up time for the outstanding
	// acquisition (Unix nanoseconds, 0 = none); every request frame quotes
	// it, so the root can drop the request instead of granting into the
	// void.
	reqDeadline int64
	// reqB schedules the request's next re-send; the maintenance tick
	// drives it (tickLocks). Armed by every request frame, reset when the
	// reign changes and when the lock's grant epoch moves: the delay was
	// sized against a world that no longer exists.
	reqB backoff
	// parked counts the callers blocked in WaitEnteredContext on behalf of
	// an acquisition of this lock. While it is non-zero and the lock is not
	// entered, the tick keeps a request alive — minting a fresh one if a
	// rejoin or a re-base wiped the record under the waiter — and
	// forget keeps the count: the callers are still there.
	parked int
	// busy: listed in the plane's busy list.
	busy bool

	// deleg is the lease the root delegated to this node on the lock, nil
	// when it holds none.
	deleg *deleg

	// spec is the interrupt of the section speculating on the lock and
	// specSession the session it wants (speculate.go); nil when none is.
	// It lives in the record so that arming it is a store in the hold that
	// sends the request, and dropping it one in the hold that frees the
	// lock.
	spec        Interrupt
	specSession uint32
	// rolled marks that spec has fired (sawEntry): until ResumeInsharing
	// ends the rollback, Write refuses the lock's guarded variables.
	rolled bool
}

// deleg is a member's lease on one lock: what the root delegated to it
// beyond the copy of its open section. While it lasts, this node's
// exclusive entry stays in the copy across releases and re-entry is
// decided locally. entered: inside the section right now; used:
// re-entered locally since the last grant or extension; revoked: the
// root demanded it back, to be returned on the next Release. It renews on
// renewB.
type deleg struct {
	entered, used, revoked bool
	expiry                 time.Time
	ttl                    time.Duration
	renewB                 backoff
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

// waits reports whether node self has an acquisition of the lock
// outstanding and is not inside it.
func (lk *memberLock) waits(self int) bool { return lk.want && !lk.held.has(self) }

// inUse reports whether this node is inside the lock or acquiring it:
// an acquisition outstanding or held (want stays set until the release),
// a caller parked for one, or a leased re-entry.
func (lk *memberLock) inUse() bool {
	return lk.want || lk.parked > 0 || lk.deleg != nil && lk.deleg.entered
}

// endRequest closes the outstanding acquisition's bookkeeping: released
// or cancelled.
func (lk *memberLock) endRequest() {
	lk.want, lk.reqSince, lk.reqSession, lk.reqDeadline = false, time.Time{}, 0, 0
}

// lostClaim records that the sequenced stream (or a re-base) put someone
// else in the lock, or nobody: any cached lease is dead. Mid-section the
// Release in progress returns it; idle it just evaporates.
func (lk *memberLock) lostClaim() {
	if d := lk.deleg; d != nil {
		if d.entered {
			d.revoked = true
		} else {
			lk.deleg = nil
		}
	}
}

// idleLease reports whether this node caches the lock under a lease it
// is not inside.
func (lk *memberLock) idleLease() bool {
	d := lk.deleg
	return d != nil && !d.entered
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

// value projects the paper's lock word for lock l from its record: the
// grant of an exclusive section's holder, else this node's own request
// marker, else Free — also for a lock never seen. (A shared section reads
// as Free here; SessionState carries it.) It never grows the table.
func (p *lockPlane) value(l LockID) int64 {
	lk := p.peek(l)
	switch {
	case lk == nil:
	case len(lk.held.in) > 0 && lk.held.session == 0:
		return GrantValue(lk.held.in[0].node)
	case lk.waits(p.self):
		return RequestValue(p.self)
	}
	return Free
}

// leave is the one way this node's entry at epoch leaves the copy, or is
// kept out of it: the epoch is finished, so a later frame announcing it
// is a stale duplicate.
func (p *lockPlane) leave(lk *memberLock, epoch uint32) {
	lk.lockDone = max(lk.lockDone, epoch)
	lk.held.drop(p.self)
}

// handBack declines this node's entry at epoch in session: it leaves,
// and the root is told with a release quoting the entry.
func (p *lockPlane) handBack(l LockID, lk *memberLock, epoch, session uint32) {
	p.leave(lk, epoch)
	p.sink.up(p.sink.hdr().LockRel(uint32(l), epoch, session))
}

// returnIdleLease frees a cached lock this node is not (or no longer)
// inside and returns the lease on its entry to the root.
func (p *lockPlane) returnIdleLease(l LockID, lk *memberLock) {
	var epoch uint32
	if h := lk.held.find(p.self); h != nil {
		epoch = h.epoch
	}
	lk.deleg = nil
	p.leave(lk, epoch)
	p.sink.up(p.sink.hdr().LeaseRet(uint32(l), epoch))
	p.sink.wake()
}

// applyLock installs one sequenced lock frame, the one reader of
// TSeqLock: an entry (the lock word names a holder), a holder leaving a
// section that stays open (the word is its request), or the close (Free).
func (p *lockPlane) applyLock(m *wire.Message) {
	l := LockID(m.Lock)
	lk := p.at(l)
	if m.Holder() >= 0 {
		p.applyEntry(l, lk, m)
		return
	}
	switch {
	case m.Val == Free:
		lk.held.in = lk.held.in[:0]
		lk.lostClaim()
	case lk.held.session == m.Session:
		lk.held.drop(m.Requester())
	}
	p.sink.wake()
}

// applyEntry is applyLock's entry half. An entry into a session the open
// section shares extends it; any other opens a new section in its place
// — an exclusive close sends no notice of its own, the next entry is the
// notice. A self-entry is consumed only when its echoed token matches
// this node's outstanding request: one arriving for a lock this node no
// longer wants, or answering a since-cancelled request, is handed back
// on the spot, so a later acquisition cannot mistake it for its own.
func (p *lockPlane) applyEntry(l LockID, lk *memberLock, m *wire.Message) {
	s, epoch := m.Session, m.EntryEpoch()
	h := holder{node: m.Holder(), epoch: epoch, token: m.Token()}
	self := h.node == p.self
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
		p.sink.up(p.sink.hdr().LockRel(uint32(l), epoch, s))
		return
	}
	// An entry this node already consumed (the copy shows it inside) is
	// only ever the root's re-announce of that same entry, so it is taken
	// again whatever its token.
	had := lk.inside(p.self, s)
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
		// outstanding (a cancel in flight): hand it straight back. When a
		// live request is outstanding the periodic retry re-registers with
		// the root, so a declined entry costs one round trip, never
		// liveness.
		p.handBack(l, lk, h.epoch, s)
		p.sink.wake()
		return
	}
	lk.held.put(h)
	if self {
		// Acquisition complete: stop the watchdog's clock on it.
		lk.reqSince = time.Time{}
	} else {
		lk.lostClaim()
	}
	p.sawEntry(lk, h.node, s)
	p.sink.wake()
}

// sawEntry fires the interrupt of the section speculating on the lock
// when node — another node than this one — was seen entering a session
// that the speculation's own does not share: the root sequenced an
// incompatible section ahead of it. From then until the rollback the
// section's writes are refused (Write): its own entry may land before its
// body returns.
func (p *lockPlane) sawEntry(lk *memberLock, node int, session uint32) {
	if lk.spec != nil && node != p.self && !shares(lk.specSession, session) && lk.spec.Fire() == HookSuspend {
		p.sink.suspend()
		lk.rolled = true
	}
}

// install re-bases a lock's copy from a reign's snapshot: the section sec
// (the lock's newest epoch beside it) replaces the local one wholesale. A
// self-entry in it is taken as applyEntry takes one — kept if the copy
// already showed this node inside that session or if it answers the
// outstanding request (its token matches), handed back like a declined
// entry otherwise or if this node already finished with it.
func (p *lockPlane) install(l LockID, sec *holderSet, epoch uint32) {
	lk := p.at(l)
	had := lk.inside(p.self, sec.session)
	lk.held.open(sec.session)
	for _, h := range sec.in {
		if h.node == p.self && (h.epoch <= lk.lockDone || !had && (!lk.want || h.token != lk.reqToken)) {
			p.handBack(l, lk, h.epoch, sec.session)
			continue
		}
		lk.held.put(h)
	}
	lk.sawGrant(epoch)
	if lk.held.has(p.self) {
		lk.reqSince = time.Time{}
	} else {
		lk.lostClaim()
	}
	for _, h := range lk.held.in {
		p.sawEntry(lk, h.node, lk.held.session)
	}
	p.sink.wake()
}

// dropDelegs forgets every lock's lease, because a lease is a claim
// against the old reign's lock manager: rebase's (which also restarts every
// request's retry schedule, in the same pass), and an election report's
// (report). An idle cached lock is, for the new reign, simply free:
// reporting it held would resurrect a holder that never releases. A
// lease held mid-section survives as a plain hold — its Release takes
// the wire path.
func (p *lockPlane) dropDelegs(rebasing bool) {
	dropped := false
	for _, l := range p.busy {
		lk := &p.recs[l]
		if rebasing {
			lk.reqB.reset()
		}
		if lk.deleg == nil {
			continue
		}
		dropped = true
		if h := lk.held.find(p.self); h != nil && lk.idleLease() {
			p.leave(lk, h.epoch)
		}
		lk.deleg = nil
	}
	if dropped {
		p.sink.wake()
	}
}

// forget drops every lock's volatile state: what a restarted process has
// lost (rejoin.go). reqToken keeps counting, so a grant minted for a
// pre-crash request can never match a later one, and the interrupt
// belongs to a caller that is still there. So are callers parked in a
// lock wait: their lock stays listed with what they asked for, and the
// tick mints them a fresh request.
func (p *lockPlane) forget() {
	p.busy = p.busy[:0]
	for i := range p.recs {
		lk := &p.recs[i]
		kept := memberLock{reqToken: lk.reqToken, spec: lk.spec, specSession: lk.specSession}
		if lk.parked > 0 {
			kept.parked, kept.reqSession, kept.reqDeadline = lk.parked, lk.reqSession, lk.reqDeadline
			markBusy(&p.busy, &kept.busy, LockID(i))
		}
		*lk = kept
	}
}

// report appends the lock half of this member's election report, taken
// at seq and addressed by hdr: each lock's piece of the stream, then what
// this node has in flight to the root on it — the release of the newest
// entry it finished with, which the old root may never have taken in (the
// new book frees only an entry it still holds), and its outstanding
// request, with its live token. Reporting to a would-be reign forfeits
// every lease first (idempotent): an idle cached lock reports as free and
// its entry as released, so the new book cannot keep a holder that would
// never release.
func (p *lockPlane) report(msgs []wire.Message, hdr wire.Hdr, seq uint64) []wire.Message {
	p.dropDelegs(false)
	for i := range p.recs {
		lk, l := &p.recs[i], uint32(i)
		if len(lk.held.in) > 0 || lk.grantEpoch > 0 {
			msgs = snapLock(msgs, hdr, seq, LockID(i), &lk.held, lk.grantEpoch)
		}
		if lk.held.has(p.self) {
			continue
		}
		if lk.lockDone > 0 {
			if lk.lockDone >= lk.grantEpoch {
				// No later entry seen: the old root may still book this node
				// inside, and this node may be the only reporter that saw the
				// entry, so the piece shows it there until the release.
				msgs = append(msgs, hdr.SnapLock(seq, l, lk.held.session, lk.lockDone, GrantValue(p.self), 0))
			}
			msgs = append(msgs, hdr.LockRel(l, lk.lockDone, lk.held.session))
		}
		if lk.want {
			msgs = append(msgs, hdr.LockReq(l, lk.reqToken, lk.reqSession, lk.reqDeadline))
		}
	}
	return msgs
}

// look is what a section of the given session sees of lock l before it
// chooses its path. With lease set it enters through a live lease if it
// can (Leased). Otherwise it evaluates Foreign and Joinable, and an idle
// lease this node holds reads as a free lock: whoever asks gives it back
// first (start).
func (p *lockPlane) look(l LockID, session uint32, lease bool) Outlook {
	if lease && p.leaseEnter(l) {
		return Outlook{Leased: true}
	}
	lk := p.peek(l)
	if lk == nil || len(lk.held.in) == 0 || lk.idleLease() {
		return Outlook{}
	}
	joinable := shares(lk.held.session, session)
	return Outlook{Foreign: !joinable, Joinable: joinable}
}

// leaseEnter attempts a purely local entry into lock l under a live
// lease: no wire traffic, no allocation. It returns true when the caller
// now holds the lock and must pair the entry with Release.
func (p *lockPlane) leaseEnter(l LockID) bool {
	lk := p.peek(l)
	if lk == nil || !lk.idleLease() || lk.deleg.revoked || !lk.held.has(p.self) {
		return false
	}
	if !p.sink.now().Before(lk.deleg.expiry) {
		return false // expired: the lease tick returns it
	}
	lk.deleg.entered, lk.deleg.used = true, true
	p.sink.emit(obs.EvLeaseLocal, int64(l), 0)
	return true
}

// start begins a caller's acquisition of lock l in session, with the
// caller's deadline (Unix nanoseconds, 0 = none) and clock reading now.
// With lease set it enters through a live lease if it can (leased: the
// caller holds the lock now, zero wire messages, and *m is not written).
// Otherwise it writes the request frame into *m, which the caller sends.
// An idle lease the section did not enter through — it wants another
// session, or the lease has run out — goes back first: the return
// precedes the request on the same
// FIFO link, so the root has the lock free when the request arrives,
// where a request from the leaseholder on its books would only be
// answered with the old grant again until the lease expired. The caller
// has vouched that no acquisition is outstanding (Node.holdLock).
func (p *lockPlane) start(l LockID, session uint32, deadline int64, now time.Time, lease bool, m *wire.Message) (leased bool) {
	if lease && p.leaseEnter(l) {
		return true
	}
	lk := p.at(l)
	if lk.idleLease() {
		p.returnIdleLease(l, lk)
	}
	lk.reqSession, lk.reqDeadline = session, deadline
	p.request(l, lk, now, m)
	return false
}

// request builds lock l's request frame into *m from its record and arms
// the next re-send: the one builder behind the caller's first send (start)
// and every retry the maintenance tick makes (tickLocks). With no
// acquisition outstanding — a first request, or a record a rejoin wiped
// under a parked caller — it mints the acquisition's token, which retries
// then reuse so the root can tell a retry from a new request that
// overtook a lost cancel; the mint also starts the watchdog's clock. The
// frame quotes the recorded deadline, so the root can drop the request
// outright once the caller has given up instead of granting into the
// void.
func (p *lockPlane) request(l LockID, lk *memberLock, now time.Time, m *wire.Message) {
	if !lk.want {
		lk.want, lk.reqSince, lk.reqB = true, now, backoff{}
		lk.reqToken++
		markBusy(&p.busy, &lk.busy, l)
	}
	p.sink.arm(&lk.reqB, now)
	p.sink.emit(obs.EvLockRequest, int64(l), int64(lk.reqToken))
	*m = p.sink.hdr().LockReq(uint32(l), lk.reqToken, lk.reqSession, lk.reqDeadline)
}

// park records a caller blocking on lock l's acquisition, with its
// context's deadline (0 = none): the freshest word on when it gives up.
func (p *lockPlane) park(l LockID, deadline int64) {
	lk := p.at(l)
	lk.parked++
	markBusy(&p.busy, &lk.busy, l)
	if deadline != 0 {
		lk.reqDeadline = deadline
	}
}

// cancel withdraws this node's outstanding request for lock l and writes
// the cancel frame into *m for the caller to send. The entry answering the
// request may already be in flight; its echoed token no longer matches
// any outstanding acquisition (a new request mints a fresh token), so
// applyEntry declines it.
func (p *lockPlane) cancel(l LockID, lk *memberLock, m *wire.Message) {
	lk.endRequest()
	p.sink.wake()
	*m = p.sink.hdr().LockCancel(uint32(l))
}

// release leaves lock l, which this node is inside, and writes what the
// caller sends once it holds nothing into the caller's empty frame *up,
// for the root. The leased path leaves it empty, so it costs its caller
// no frame copy: a live lease retains the lock locally, and a revoked or
// expired one rides the release back to the root as the lease return.
// Anything else is the classic release, quoting the entry epoch so the
// root can discard stale duplicates.
func (p *lockPlane) release(l LockID, lk *memberLock, up *wire.Message) {
	if d := lk.deleg; d != nil { // the common case pays no clock read
		now := p.sink.now()
		lk.endRequest()
		if d.entered && !d.revoked && now.Before(d.expiry) && p.sink.leasing() {
			// Retain: this node's entry stays in the copy and the next
			// acquisition is a local decision. Zero wire messages.
			d.entered = false
		} else {
			// Revoked or expired: this release doubles as the lease return.
			p.returnIdleLease(l, lk)
		}
		return
	}
	h := lk.held.find(p.self)
	*up = p.sink.hdr().LockRel(uint32(l), h.epoch, lk.held.session)
	p.leave(lk, h.epoch)
	lk.endRequest()
	p.sink.wake()
}

// leaseFrame processes a root's lease frame: a grant/extension when it
// carries a TTL, a revoke demand when it carries none. Either names the
// entry it is for by its epoch.
func (p *lockPlane) leaseFrame(m *wire.Message) {
	l := LockID(m.Lock)
	lk := p.at(l)
	epoch, ttl := m.EntryEpoch(), m.TTL()
	h := lk.held.find(p.self)
	mine := h != nil && h.epoch == epoch
	if ttl == 0 {
		// Revoke demand for the lease on the entry at epoch.
		if d := lk.deleg; d == nil || !mine {
			// No such lease here. If this node already finished with that
			// grant, the root's record is stale because the original
			// return (or release) was lost — repeat it so the demand loop
			// can end. Anything else is a stray demand to ignore.
			if lk.lockDone >= epoch {
				p.sink.up(p.sink.hdr().LeaseRet(uint32(l), epoch))
			}
		} else if d.entered {
			d.revoked = true // the Release in progress doubles as the return
		} else {
			p.returnIdleLease(l, lk)
		}
		return
	}
	// Grant or extension. Valid only against the entry it was issued
	// for: the grant multicast may still be in flight, in which case the
	// lease is simply dropped (the root's next extension re-offers it).
	if !mine {
		return
	}
	d := lk.deleg
	if d == nil {
		// Holding the grant value without a lease means this node is
		// inside the section (between grant and Release).
		d = &deleg{entered: true}
		lk.deleg = d
		markBusy(&p.busy, &lk.busy, l)
	}
	d.expiry, d.ttl, d.used, d.revoked = p.sink.now().Add(ttl), ttl, false, false
	d.renewB.reset()
}

// tickLocks is the maintenance tick's pass over the busy locks before
// the probe. It unlists a lock with nothing left in flight, trips the
// watchdog on an acquisition over budget (watch: a member that does not
// root the group, watchLock) and re-sends each lock request that is due
// — in flight and unanswered, or wanted by a caller still parked in
// WaitEnteredContext — through request, which mints a fresh request when
// a rejoin or a failover re-base wiped the old one. The root ignores
// duplicates. It runs on the node that roots the group too: a waiter
// there sends its request to itself, and a self-send can be lost as well.
func (p *lockPlane) tickLocks(now time.Time, watch bool, budget time.Duration) {
	p.busy = slices.DeleteFunc(p.busy, func(l LockID) bool {
		lk := &p.recs[l]
		if lk.busy = !lk.reqSince.IsZero() || lk.parked > 0 || lk.deleg != nil; !lk.busy {
			return true
		}
		if watch {
			p.watchLock(l, lk, now, budget)
		}
		if (lk.parked > 0 || !lk.reqSince.IsZero()) && !lk.held.has(p.self) && lk.reqB.ready(now) {
			var m wire.Message
			p.request(l, lk, now, &m)
			p.sink.up(m)
		}
		return false
	})
}

// watchLock cross-checks lock l's outstanding acquisition against the
// stuck-operation watchdog's budget (watchdog.go). It runs just before
// the lock's retry, so a schedule reset it performs takes effect within
// the same tick.
func (p *lockPlane) watchLock(l LockID, lk *memberLock, now time.Time, budget time.Duration) {
	if lk.reqSince.IsZero() || now.Sub(lk.reqSince) < budget {
		return
	}
	if !lk.want {
		// The acquisition was cancelled or satisfied without the stamp
		// being cleared; nothing to watch.
		lk.reqSince = time.Time{}
		return
	}
	lk.reqSince = now
	p.sink.emit(obs.EvWatchdogStuck, obs.WatchAcquire, int64(l))
	p.sink.emit(obs.EvWatchdogReissue, obs.WatchAcquire, int64(l))
	// Restart the request's schedule; the retry that follows re-issues it
	// with the live token and the caller's deadline — at worst one
	// duplicate the root dedupes.
	lk.reqB.reset()
}

// tickDeleg is the maintenance tick's pass over the busy locks' leases,
// after the probe: an idle lease that expired or was revoked goes back,
// and one in use renews past its half life.
func (p *lockPlane) tickDeleg(now time.Time) {
	for _, l := range p.busy {
		lk := &p.recs[l]
		d := lk.deleg
		if d == nil {
			continue
		}
		h := lk.held.find(p.self)
		if !d.entered && (d.revoked || !now.Before(d.expiry)) {
			p.returnIdleLease(l, lk)
		} else if h != nil && d.used && d.expiry.Sub(now) < d.ttl/2 && d.renewB.ready(now) {
			p.sink.arm(&d.renewB, now)
			p.sink.emit(obs.EvLeaseRenew, int64(l), 0)
			// A renewal is a request frame quoting the leased entry's token
			// and epoch — ordinary request retries quote none, which is how
			// the root tells a renewal from a holder re-announcing a lost
			// grant. It must not touch the want/token machinery: no
			// acquisition is outstanding.
			p.sink.up(p.sink.hdr().LeaseRenew(uint32(l), h.token, h.epoch))
		}
	}
}
