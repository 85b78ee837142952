package gwc

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"optsync/internal/integrity"
	"optsync/internal/obs"
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
	hooks []hook
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

// memberGroup is one node's member-side state for a sharing group.
type memberGroup struct {
	// cfg is the joined configuration. Its Guards map is consumed at Join:
	// each variable's guard lives in its record.
	cfg GroupConfig

	// vars holds the one record per variable, indexed by ID (table.go).
	vars table[VarID, memberVar]
	// busyVars lists, ascending, the variables with an unconfirmed eager
	// store: the tick walks it, not the table, so its cost follows what is
	// in flight and not the highest ID seen. A store marks the record;
	// confirming it does nothing, and the tick's first pass unlists what
	// went idle.
	busyVars []VarID

	// storeSeq stamps every guarded update with a per-group nonce so the
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
	joinToken   uint64
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

	// locks is the group's lock plane (plane.go), which keeps the one
	// record per lock. It sits last: between vars and the stream's fields
	// it measured contend_inproc ×1.08 op_p50_adj_us, worse in 10 of 10
	// pairs, and here at parity (EXPERIMENTS.md, "The member lock plane").
	locks lockPlane
}

func newMemberGroup(id int, cfg GroupConfig, now time.Time) *memberGroup {
	g := &memberGroup{
		cfg:         cfg,
		nextSeq:     1,
		pending:     make(map[uint64]wire.Message),
		rootID:      cfg.Root,
		lastRoot:    now,
		suspected:   make(map[int]bool),
		syncPending: make(map[uint64]*syncWaiter),
		locks:       lockPlane{self: id},
	}
	for v, l := range cfg.Guards {
		mv := g.vars.at(v)
		mv.guarded, mv.guard = true, l
	}
	g.cfg.Guards = nil
	return g
}

// memberShell is the node's side of a group's lock plane: it carries out
// on the node what the plane decides, and answers what the plane asks of
// the member. Caller holds n.mu, as for every input to the plane.
type memberShell struct {
	n *Node
	g *memberGroup
}

func (s *memberShell) up(m wire.Message)                  { s.n.send(s.g.rootID, m) }
func (s *memberShell) emit(typ obs.EventType, a, b int64) { s.n.emit(typ, s.g.cfg.ID, a, b) }
func (s *memberShell) wake()                              { s.g.lock.notifyAll() }
func (s *memberShell) arm(b *backoff, now time.Time)      { s.n.arm(b, now, s.n.boBase(), s.n.boCap()) }
func (s *memberShell) suspend()                           { s.g.suspended = true }
func (s *memberShell) now() time.Time                     { return s.n.clock.Now() }
func (s *memberShell) hdr() wire.Hdr                      { return s.n.hdr(s.g) }
func (s *memberShell) leasing() bool                      { return s.n.leasing() }

// lockFrame is the one reign gate for the lock frames a member receives
// outside the sequenced stream — a lease grant or revoke demand — before
// its lock plane takes them in. A frame of another reign is dropped (an
// older one counted), and so is one that reaches a member not yet
// re-based into the reign: a lease targets live state only. Caller holds
// n.mu.
func (n *Node) lockFrame(g *memberGroup, m *wire.Message) {
	if !n.offReign(g, m, false) && !g.rejoining && !g.snapWanted {
		g.locks.leaseFrame(m)
	}
}

// offReign reports whether m, a frame a member drops unless it belongs to
// the reign g follows, belongs to another: an older one is counted, and
// with notice its sender is pointed at the current root. Caller holds
// n.mu.
func (n *Node) offReign(g *memberGroup, m *wire.Message, notice bool) bool {
	if m.Epoch < g.epoch {
		n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
		if notice {
			n.maybeNotice(g, int(m.Src))
		}
	}
	return m.Epoch != g.epoch
}

// forgetState drops every record's volatile state: what a restarted
// process has lost (rejoin.go). Guards are configuration and hooks
// belong to callers that are still there, so both stay; the lock plane
// keeps what it keeps (lockPlane.forget).
func (g *memberGroup) forgetState() {
	for i := range g.vars.recs {
		mv := &g.vars.recs[i]
		*mv = memberVar{guarded: mv.guarded, guard: mv.guard, hooks: mv.hooks}
	}
	g.busyVars = g.busyVars[:0]
	g.locks.forget()
}

// sweepVars unlists the variables whose eager store was confirmed: the
// tick's first pass, beside the lock plane's (tickLocks).
func (g *memberGroup) sweepVars() {
	g.busyVars = slices.DeleteFunc(g.busyVars, func(v VarID) bool {
		mv := &g.vars.recs[v]
		mv.busy = mv.eagerOut
		return !mv.busy
	})
}

// varValue is the local copy of v, zero for one never written. It never
// grows the table.
func (g *memberGroup) varValue(v VarID) int64 {
	if mv := g.vars.peek(v); mv != nil {
		return mv.val
	}
	return 0
}

// holdLock is the preamble of every lock call: it takes n.mu and
// resolves the group and the lock's record, growing the table to hold
// it. With own — a caller about to start an acquisition of its own — it
// refuses with ErrNested a lock this node is already inside or
// acquiring. On an error it returns with n.mu released.
func (n *Node) holdLock(gid GroupID, l LockID, own bool) (*memberGroup, *memberLock, error) {
	n.mu.Lock()
	g, err := n.group(gid)
	switch {
	case err != nil:
	case l >= maxRecords:
		err = idErr(gid, "lock", uint32(l))
	case own && g.locks.at(l).inUse():
		err = fmt.Errorf("gwc: node %d is already inside or acquiring lock %d: %w", n.id, l, ErrNested)
	default:
		return g, g.locks.at(l), nil
	}
	n.mu.Unlock()
	return nil, nil, err
}

// varOf resolves an API call's group and variable record, growing the
// table to hold it. Caller holds n.mu.
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

// ingest performs sequence reassembly for a sequenced message, then
// applies in-order messages. m is read in place (it usually points into
// the drained receive batch) and copied only where it must outlive the
// call. Caller holds n.mu.
func (n *Node) ingest(g *memberGroup, m *wire.Message) {
	if m.Epoch != g.epoch {
		if m.Epoch < g.epoch {
			// A deposed root (or a retransmission from its reign) is still
			// multicasting: its sequence numbering no longer means anything
			// here.
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
		n.emit(obs.EvDuplicate, g.cfg.ID, int64(m.Seq), 0)
		return
	case g.snapWanted || m.Seq > g.nextSeq:
		// Park what is new. Not re-based into this reign yet (snapWanted):
		// the stream and the snapshot are unordered on the wire, and
		// applying live traffic against pre-snapshot state breaks the
		// stream's ordering guarantee — a failover lock grant could start a
		// critical section that reads pre-merge data. So park everything;
		// snapApply discards what the snapshot's cut covers and replays the
		// rest in order. Otherwise this is a gap: park and NACK the range.
		_, dup := g.pending[m.Seq]
		if !dup {
			g.pending[m.Seq] = *m
		}
		if g.snapWanted {
			return
		}
		if !dup {
			n.emit(obs.EvGap, g.cfg.ID, int64(m.Seq), int64(g.nextSeq))
		}
		n.maybeNack(g)
		return
	}
	n.applySeq(g, m)
	g.nextSeq++
	n.drainPending(g)
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
	n.emit(obs.EvNack, g.cfg.ID, int64(g.nextSeq), int64(maxSeq))
	n.send(g.rootID, n.hdr(g).Nack(g.nextSeq, maxSeq))
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
	n.send(g.rootID, n.hdr(g).Ack(applied))
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
		if n.integrityEvery > 0 {
			g.digest.Fold(m.Var, m.Seq, m.Val)
		}
		if g.suspended {
			// Insharing suspension: hold data back until the rollback
			// finishes so restored values are not clobbered.
			g.suspendQ = append(g.suspendQ, *m)
			return
		}
		n.applyData(g, m)
	case wire.TSeqLock:
		g.locks.applyLock(m)
	}
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
			n.emit(obs.EvEchoDropped, g.cfg.ID, int64(m.Var), 0)
			return
		}
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
	if err == nil && mv.guarded && g.locks.at(mv.guard).rolled {
		// The speculation on the guard has been interrupted, and its own
		// entry may land before its body returns: a write now would go out
		// tagged post-grant and be sequenced — a value the re-execution
		// overwrites, but one an unguarded reader elsewhere could see. No
		// write of the section leaves the node until its rollback.
		err = fmt.Errorf("gwc: node %d write to var %d of group %d: %w", n.id, v, gid, ErrRolledBack)
	}
	if err != nil {
		n.mu.Unlock()
		return err
	}
	mv.val, mv.written = val, true
	g.data.notifyAll()
	root, hdr := g.rootID, n.hdr(g)
	var msg wire.Message
	if !mv.guarded {
		msg = hdr.Update(uint32(v), val)
	} else {
		// Epoch tag: the root accepts this write only if it is post-grant
		// (tag == current epoch) or a clean speculation (tag+1 == current
		// epoch). A clean speculation provably never rolls back, so a
		// rolled-back section's stale writes can never slip in behind its
		// queued grant — a hole the paper's unconditional critical
		// sections never exposed. The per-store nonce lets the root
		// disposition this store exactly once even when the up-path loss
		// recovery re-ships its frame.
		g.storeSeq++
		msg = hdr.GuardedUpdate(uint32(v), val, g.locks.at(mv.guard).grantEpoch, g.storeSeq)
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
	return transport.Push(n.ep, root, &msg)
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
	return g.locks.value(l), nil
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

// Request starts an acquisition of lock l in the given session (0 =
// exclusive) that its caller will wait for (WaitEnteredContext, or by
// polling LockValue / SessionState): an exclusive one enters through a
// live lease if this node has one (leased: the caller holds the lock now,
// zero wire messages); any other sends its request, which the maintenance
// tick re-sends until the entry lands or the caller cancels. deadline is
// the caller's give-up time (Unix nanoseconds, 0 = none) and now its
// clock reading. It cannot share an acquisition — both callers would wake
// on the one entry and run their sections together — so it is refused
// with ErrNested, in the hold that would have recorded the request, while
// this node is inside the lock or acquiring it.
func (n *Node) Request(gid GroupID, l LockID, session uint32, deadline int64, now time.Time) (leased bool, err error) {
	g, _, err := n.holdLock(gid, l, true)
	if err != nil {
		return false, err
	}
	var msg wire.Message
	if g.locks.start(l, session, deadline, now, session == 0 && !n.closed, &msg) {
		n.mu.Unlock()
		return true, nil
	}
	return false, n.sendOwn(gid, l, g, &msg)
}

// sendOwn ships the request of an acquisition its caller will wait for,
// dropping n.mu first. It is pushed, the caller holding nothing: for a lock the root has free,
// on an idle in-process group, this goroutine runs the grant and applies
// the entry here before it returns (push, gwc.go). The caller will not
// wait for a request it could not send, so that one (and its interrupt)
// must not stay on the record: the next acquisition would be refused as
// nested.
func (n *Node) sendOwn(gid GroupID, l LockID, g *memberGroup, msg *wire.Message) error {
	root := g.rootID
	n.mu.Unlock()
	err := transport.Push(n.ep, root, msg)
	if err != nil {
		_ = n.CancelLockRequest(gid, l) // its frame is as lost as the request's
	}
	return err
}

// ctxDeadline extracts a context's deadline as Unix nanoseconds, the
// caller deadline a lock request quotes (0 = none).
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
// issued (Request, Speculate), until the node is inside lock l's given
// session (0 = it holds the lock exclusively), or giveUp — when not
// nil — reads true; both are checked first, before the wait takes a
// channel or marks anything, and after every lock change, and whoever
// sets giveUp under the node lock (an Interrupt's Fire) wakes the wait.
// It returns (false, ctx.Err()) if the context ends first, without
// withdrawing the request (use CancelLockRequest for that), and (false,
// nil) if the node closes. The caller parks on one channel and nothing
// else: while it is parked the
// maintenance tick owns the request's loss recovery (tickLocks) —
// re-sends on the record's backoff schedule, a prompt re-register with a
// new root after a reign change, a fresh request if a rejoin wiped the
// old one.
func (n *Node) WaitEnteredContext(ctx context.Context, gid GroupID, l LockID, session uint32, giveUp *atomic.Bool) (bool, error) {
	g, _, err := n.holdLock(gid, l, false)
	if err != nil {
		return false, err
	}
	done := func() bool {
		// The record is re-resolved: the table may have grown under the wait.
		return g.locks.at(l).inside(n.id, session) || (giveUp != nil && giveUp.Load())
	}
	if done() {
		// The common case on an idle in-process group, where the request
		// ran the grant before it returned: nothing to park for.
		n.mu.Unlock()
		return true, nil
	}
	ch := n.getWait()
	g.lock.register(ch)
	g.locks.park(l, ctxDeadline(ctx))
	ok, err := n.park(ctx, ch, done)
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
	if leased, err := n.Request(gid, l, session, ctxDeadline(ctx), start); err != nil || leased {
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
	g, lk, err := n.holdLock(gid, l, false)
	if err != nil {
		return err
	}
	lk.spec = nil
	if lk.held.has(n.id) {
		n.mu.Unlock()
		return n.Release(gid, l)
	}
	var msg wire.Message
	g.locks.cancel(l, lk, &msg)
	root := g.rootID
	n.mu.Unlock()
	return n.ep.Send(root, msg)
}

// Release leaves the lock: whatever section this node is inside, the
// exclusive one or its entry in a shared session. The release follows
// the critical section's last shared write on the same path, so GWC
// ordering guarantees every member sees the data before the lock
// changes.
func (n *Node) Release(gid GroupID, l LockID) error {
	g, lk, err := n.holdLock(gid, l, false)
	if err != nil {
		return err
	}
	// The section is over, so its interrupt goes in the hold that frees
	// the lock: the next holder's entry must find nothing to fire.
	lk.spec = nil
	if !lk.held.has(n.id) {
		n.mu.Unlock()
		return fmt.Errorf("gwc: node %d releasing lock %d it does not hold", n.id, l)
	}
	// Batched plane: the section's queued writes must reach the root
	// before the release does, so every member still sees the data before
	// the lock changes hands (the paper's GWC ordering guarantee).
	n.flushWrites(g, obs.EvFlushRelease)
	var up wire.Message
	g.locks.release(l, lk, &up)
	root := g.rootID
	n.mu.Unlock()
	if up.Type == 0 {
		return nil // a lease keeps the lock here, or its return is out
	}
	// Pushed: with nobody queued behind it the root frees the lock and
	// every idle member applies the free value on this goroutine.
	return transport.Push(n.ep, root, &up)
}

// HookAction is an Interrupt's verdict.
type HookAction int

// Interrupt verdicts.
const (
	// HookNone takes no protocol action.
	HookNone HookAction = iota
	// HookSuspend atomically suspends insharing for the group, the
	// paper's interrupt-and-sharing-suspension (Figure 5).
	HookSuspend
)

// ResumeInsharing replays parked updates and resumes normal delivery: the
// rollback is over, and Write takes the re-execution's writes again.
func (n *Node) ResumeInsharing(gid GroupID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return err
	}
	g.suspended = false
	for i := range g.locks.recs {
		g.locks.recs[i].rolled = false
	}
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
	mv.hooks = append(mv.hooks, hook{token, fn})
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
