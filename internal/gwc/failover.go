package gwc

import (
	"slices"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// Crash fault tolerance.
//
// The group root is a single point of failure: it sequences every write
// and owns the lock queues. To survive its crash, each reign of a root is
// numbered with an epoch (the founding root reigns in epoch 0). Roots
// heartbeat their members every maintenance interval; a member that has
// heard nothing from its root for failAfter suspects it and starts an
// election for epoch+1. Elections are deterministic: the surviving member
// with the lowest ID is the candidate, everyone else streams it a report
// of their local state (applied sequence number, variable copies, lock
// copies), and once electWait has passed *and* reports from a majority of
// the configured membership are in hand (its own state counts as one),
// the candidate promotes itself, rebuilding the authoritative state from
// the most advanced reports:
//
//   - variables come from the reports with the highest applied sequence
//     number; a lone dissenting value among them is an eager local write
//     whose up-message died with the old root and is adopted;
//   - a lock's holders are those the reports that saw its newest epoch
//     show inside, each believed only if its own report still shows it
//     there (one that reports otherwise has left, and only the release
//     died with the root; a suspected one that did not report is freed,
//     which is safe because its stale-epoch traffic can no longer enter
//     the group; a live one that merely failed to report is kept —
//     safety over liveness);
//   - queues are rebuilt from the reporters that say they wait, in node
//     order; anyone missed re-queues via the request retry (the
//     maintenance tick re-sends it).
//
// The new root restarts sequence numbering at 1 for its epoch and members
// re-base through a snapshot (TSnapVar/TSnapLock/TSnapDone) requested on
// adoption. Stale-epoch messages are rejected on both sides, so a revived
// old root is harmlessly deposed the moment it hears from the new reign.
//
// The quorum gate makes reigns partition-safe (a minority side can never
// start one; see also the root's fencing lease in fence.go) at a cost:
// a group that loses a majority of its members — a 2-node group losing
// either, in particular — stops failing over and waits for revivals or
// rejoins (rejoin.go) to restore a quorum. That is the standard CP
// trade.

// lockSnap is one lock's piece of a state stream, as read back: the open
// section as the sender saw it, the newest epoch it knew for the lock,
// and whether the sender itself waits to enter (and which session).
type lockSnap struct {
	epoch   uint32
	held    holderSet
	waits   bool
	session uint32
}

// snapLock appends lock l's piece of a state stream taken at seq (an
// election report or a catch-up snapshot; h addresses it): one frame per
// holder of the open section, carrying its entry epoch, then the sender's
// own word on the lock — word is its request marker if it waits to enter
// session, or Free — carrying the newest epoch it knows for it.
func snapLock(msgs []wire.Message, h wire.Hdr, seq uint64, l LockID, held *holderSet, epoch uint32, word int64, session uint32) []wire.Message {
	for _, e := range held.in {
		msgs = append(msgs, h.SnapLock(seq, uint32(l), held.session, e.epoch, GrantValue(e.node)))
	}
	return append(msgs, h.SnapLock(seq, uint32(l), session, epoch, word))
}

// absorb folds one TSnapLock frame into the lock's piece: snapLock's
// reader.
func (s *lockSnap) absorb(m *wire.Message) {
	s.epoch = max(s.epoch, m.EntryEpoch())
	switch {
	case m.Holder() >= 0:
		if m.Session != s.held.session {
			s.held.open(m.Session)
		}
		s.held.put(holder{node: m.Holder(), epoch: m.EntryEpoch()})
	case m.Val != Free:
		s.waits, s.session = true, m.Session
	}
}

// snapReport accumulates one sender's state stream: an election report
// from a peer, or a catch-up snapshot from the root.
type snapReport struct {
	seq   uint64
	vars  map[VarID]int64
	locks map[LockID]lockSnap
	done  bool
}

func newSnapReport(seq uint64) *snapReport {
	return &snapReport{
		seq:   seq,
		vars:  make(map[VarID]int64),
		locks: make(map[LockID]lockSnap),
	}
}

// absorb folds one frame of the sender's stream into the report: the one
// reader of TSnapVar/TSnapLock/TSnapDone, whoever sent them — the root's
// catch-up snapshot, a peer's election report, or the candidate's own
// report (promote), so its copy is judged by the code a peer's is. Every
// frame quotes the stream position the sender had applied.
func (rep *snapReport) absorb(m *wire.Message) {
	rep.seq = m.Seq
	switch m.Type {
	case wire.TSnapVar:
		rep.vars[VarID(m.Var)] = m.Val
	case wire.TSnapLock:
		l := LockID(m.Lock)
		s := rep.locks[l]
		s.absorb(m)
		rep.locks[l] = s
	case wire.TSnapDone:
		rep.done = true
	}
}

// heartbeat announces this root's reign to every member. Caller holds
// n.mu.
func (n *Node) heartbeat(r *rootGroup) {
	hb := n.rootHdr(r).Heartbeat(r.ring.seq(), n.id)
	for _, member := range r.cfg.Members {
		if member != n.id {
			n.send(member, hb)
		}
	}
}

// handleHeartbeat processes a root's liveness announcement. Caller holds
// n.mu.
func (n *Node) handleHeartbeat(g *memberGroup, m *wire.Message) {
	claimed := m.Root()
	switch {
	case m.Epoch > g.epoch || (m.Epoch == g.epoch && claimed < g.rootID):
		// A newer reign — or a same-epoch split, which the lower node ID
		// wins so both halves converge on one root.
		n.adoptEpoch(g, m.Epoch, claimed)
	case m.Epoch < g.epoch || claimed != g.rootID:
		// A deposed root still announcing itself: point it at this epoch.
		n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
		n.maybeNotice(g, int(m.Src))
	default:
		g.lastRoot = n.clock.Now()
		g.electing = false
		delete(g.suspected, g.rootID)
		if !g.snapWanted && !g.rejoining &&
			m.Seq >= g.nextSeq-1+uint64(g.cfg.HistorySize) {
			// The root's sequence number is beyond what its history buffer
			// can retransmit to us — typical for a member revived after a
			// long crash. NACK repair would only count LostHistory; fetch a
			// snapshot instead.
			g.snapWanted = true
			g.snapBuf = nil
		}
	}
}

// maybeNotice tells a stale sender about the current reign, rate-limited
// per group so floods of old-epoch traffic produce one corrective
// heartbeat per interval. Caller holds n.mu.
func (n *Node) maybeNotice(g *memberGroup, to int) {
	now := n.clock.Now()
	if now.Sub(g.lastNotice) < n.retryIn {
		return
	}
	g.lastNotice = now
	n.send(to, n.hdr(g).Heartbeat(0, g.rootID))
}

// rebase moves the member onto a reign: a newer one it adopts, the one
// its own promotion starts, the blank slate a rejoin begins from, or the
// reign a rejoin is admitted to. It owns every reign-scoped member field
// — written here and nowhere else — so what a reign change revokes is
// this list: the reign's identity and proof of life; the sequenced
// stream's position, reassembly buffer and ack watermark (numbering
// restarts at 1); snapshot and election buffers and the rejoin/election
// flags (wantSnap: the new root's snapshot does the catching up); the
// spanning tree (rooted at the old root; failover reigns fan out
// directly); every retry schedule (outstanding operations re-register
// with the new root at full cadence); leases, handoff hints and parked
// direct grants (claims against the old reign's lock manager); and the
// digest with any divergence verdict (the snapshot's TSnapDone re-anchors
// it to the new root's sum). Copy-scoped state — values, lock copies,
// tokens — is forgetState's, and only a rejoin drops it. Caller holds
// n.mu.
func (n *Node) rebase(g *memberGroup, epoch uint32, root int, wantSnap bool) {
	g.epoch, g.rootID = epoch, root
	g.lastRoot = n.clock.Now()
	delete(g.suspected, root)
	g.electing, g.rejoining = false, false
	g.reports = nil
	g.snapWanted, g.snapBuf = wantSnap, nil
	g.nextSeq = 1
	g.pending = make(map[uint64]wire.Message)
	g.acked = 0
	g.children = nil
	g.resetRetrySchedules()
	n.dropLeases(g)
	g.digest.Reset()
	g.diverged = false
}

// demote stands this node down as the group's root, if it is one, and
// closes the dropped reign's lock book. Caller holds n.mu.
func (n *Node) demote(g *memberGroup, epoch uint32, root int) {
	r, wasRoot := n.roots[g.cfg.ID]
	if !wasRoot {
		return
	}
	delete(n.roots, g.cfg.ID)
	r.book.close()
	n.emit(obs.EvDemoted, g.cfg.ID, int64(root), int64(epoch))
}

// adoptEpoch switches the member to a newer reign (or the lower-ID
// winner of a same-epoch split) and requests a state snapshot from the
// new root. If this node was itself a root for the group, it stands
// down. Caller holds n.mu.
func (n *Node) adoptEpoch(g *memberGroup, epoch uint32, root int) {
	if epoch < g.epoch || (epoch == g.epoch && root >= g.rootID) {
		return
	}
	if root == n.id {
		// Hearsay about a reign of our own that we know nothing about
		// (promotion happens locally, never by adoption); waiting on a
		// snapshot from ourselves would deadlock.
		return
	}
	n.demote(g, epoch, root)
	n.emit(obs.EvReignChange, g.cfg.ID, int64(root), int64(epoch))
	// Adoption supersedes an in-flight rejoin: the snapshot path now does
	// the catching up.
	n.rebase(g, epoch, root, true)
	// Everyone the electorate skipped over to reach this root must have
	// been suspected; remember that so a follow-up election agrees.
	for _, member := range g.cfg.Members {
		if member < root && member != n.id {
			g.suspected[member] = true
		}
	}
	n.send(root, n.hdr(g).SnapReq()) // the rebase made epoch g.epoch
}

// candidate returns the lowest-ID member not suspected dead, or -1.
func (g *memberGroup) candidate() int {
	best := -1
	for _, m := range g.cfg.Members {
		if g.suspected[m] {
			continue
		}
		if best == -1 || m < best {
			best = m
		}
	}
	return best
}

// detectFailure drives the member side of failure detection each
// maintenance tick: suspect a silent root, report state to the election
// candidate, promote if we are the candidate, and cascade to the next
// candidate if the chosen one is dead too. Caller holds n.mu.
func (n *Node) detectFailure(gid GroupID, g *memberGroup, now time.Time) {
	if len(g.cfg.Members) < 2 {
		return // no one to fail over to
	}
	if now.Sub(g.lastRoot) <= n.failAfter {
		return
	}
	if !g.electing {
		g.electing = true
		g.electEpoch = g.epoch + 1
		g.electBegan = now
		g.suspected[g.rootID] = true
		n.emit(obs.EvElection, gid, int64(g.candidate()), int64(g.electEpoch))
	}
	cand := g.candidate()
	switch {
	case cand == -1:
		// Nobody left standing; keep waiting for a revival.
	case cand == n.id:
		if now.Sub(g.electBegan) >= n.electWait && n.reportQuorum(g) {
			// Quorum-gated promotion: the candidate must hold state
			// reports from a majority of the configured membership (its
			// own state counts as one) before starting a reign. A minority
			// partition therefore waits forever instead of electing a
			// competing root, and the report majority is guaranteed to
			// intersect any quorum-acked write's ack set.
			n.promote(gid, g)
		}
	case now.Sub(g.electBegan) > n.electWait+n.failAfter:
		// The candidate had ample time to take over and has not; it must
		// be down as well. Suspect it and restart the clock for the next.
		g.suspected[cand] = true
		g.electBegan = now
	default:
		n.sendReport(g, cand)
	}
}

// reportQuorum reports whether the candidate holds finished election
// reports for the running election's epoch from a majority of the
// configured membership, counting its own local state as one report.
// Reports are re-sent every tick, so a transiently mid-stream report
// only delays the count, never sticks. Caller holds n.mu.
func (n *Node) reportQuorum(g *memberGroup) bool {
	count := 1 // this candidate's own state
	if g.reportEpoch == g.electEpoch {
		for src, rep := range g.reports {
			if rep.done && src != n.id && g.cfg.memberOf(src) {
				count++
			}
		}
	}
	return count >= len(g.cfg.Members)/2+1
}

// sendReport streams this member's local state to the election
// candidate. It is re-sent every tick while the election runs, so a lost
// report only delays, never prevents, reconstruction. Caller holds n.mu.
func (n *Node) sendReport(g *memberGroup, to int) {
	n.sendStream(to, n.reportFrames(g))
}

// reportFrames is this member's election report for the running
// election, as the frames a peer sends the candidate and the candidate
// reads of itself (promote). Caller holds n.mu.
func (n *Node) reportFrames(g *memberGroup) []wire.Message {
	// Reporting state to a would-be reign forfeits every lease first
	// (idempotent): an idle cached lock reports as free, so the rebuilt
	// manager cannot resurrect a holder that would never release.
	n.dropLeases(g)
	hdr, seq := wire.Hdr{Group: uint32(g.cfg.ID), Src: int32(n.id), Epoch: g.electEpoch}, g.nextSeq-1
	msgs := make([]wire.Message, 0, len(g.vars.recs)+len(g.locks.recs)+1)
	for i := range g.vars.recs {
		if mv := &g.vars.recs[i]; mv.written {
			msgs = append(msgs, hdr.SnapVar(seq, uint32(i), mv.val))
		}
	}
	for i := range g.locks.recs {
		lk := &g.locks.recs[i]
		word, session := Free, uint32(0)
		if lk.want && !lk.held.has(n.id) {
			word, session = RequestValue(n.id), lk.reqSession
		} else if len(lk.held.in) == 0 && lk.grantEpoch == 0 {
			continue // never seen in use: nothing to report
		}
		msgs = snapLock(msgs, hdr, seq, LockID(i), &lk.held, lk.grantEpoch, word, session)
	}
	return append(msgs, hdr.SnapDone(seq, 0))
}

// promote makes this node the group's root for the election epoch,
// reconstructing the authoritative state from its own copy and the peer
// reports collected during the grace period. Caller holds n.mu.
func (n *Node) promote(gid GroupID, g *memberGroup) {
	// The candidate's own state enters the merge as the report it would
	// have sent a peer, read by the code that reads a peer's. Building it
	// starts the reign with a clean lease slate: our own idle cached locks
	// free themselves before the merge reads their values.
	epoch := g.electEpoch
	own := newSnapReport(g.nextSeq - 1)
	for _, m := range n.reportFrames(g) {
		own.absorb(&m)
	}
	reps := map[int]*snapReport{n.id: own}
	if g.reportEpoch == epoch {
		for src, rep := range g.reports {
			if rep.done && src != n.id {
				reps[src] = rep
			}
		}
	}
	auth := mergeVars(reps)
	locks := rebuildLocks(reps, g.suspected)

	cfg := g.cfg
	cfg.Root = n.id
	cfg.TreeFanout = false
	r := n.newRootGroup(cfg, g, epoch, n.clock.Now())
	for v, val := range auth {
		rv := r.vars.at(v)
		rv.auth, rv.written = val, true
	}
	r.book.load(locks)
	n.roots[gid] = r
	// Failover duration: from the first suspicion of the old root to the
	// moment the new reign's authoritative state exists.
	n.metrics.Hist(obs.HistFailover).Record(n.clock.Now().Sub(g.electBegan))
	n.emit(obs.EvPromoted, gid, int64(n.id), int64(epoch))

	// Re-base the member side onto the new reign; the merged state becomes
	// the local copy. The reign's digest starts empty on both sides (the
	// merged base state is not folded), so the member copy restarts in
	// agreement with the fresh rootGroup digest.
	n.rebase(g, epoch, n.id, false)
	for _, v := range sortedKeys(auth) {
		n.applyVarValue(g, v, auth[v])
	}
	for _, l := range sortedKeys(locks) {
		n.install(g, l, &locks[l].held, locks[l].epoch)
	}
	// Free locks with survivors queued move on immediately; everyone
	// else learns the holder from the grant multicast or the snapshot.
	r.book.resume()
	n.heartbeat(r)
}

// mergeVars reconstructs the variable store from the reports with the
// highest applied sequence number. Those reports saw the same sequenced
// prefix, so their copies differ only by eager local writes that never
// reached the old root; a lone dissenting value is such a write and is
// adopted. Remaining conflicts resolve to the lowest reporter.
func mergeVars(reps map[int]*snapReport) map[VarID]int64 {
	var best uint64
	for _, rep := range reps {
		if rep.seq > best {
			best = rep.seq
		}
	}
	type vote struct {
		val int64
		src int
	}
	votes := make(map[VarID][]vote)
	for src, rep := range reps {
		if rep.seq != best {
			continue
		}
		for v, val := range rep.vars {
			votes[v] = append(votes[v], vote{val, src})
		}
	}
	out := make(map[VarID]int64, len(votes))
	for v, vs := range votes {
		counts := make(map[int64]int)
		for _, vt := range vs {
			counts[vt.val]++
		}
		if len(counts) == 2 && len(vs) > 2 {
			for _, vt := range vs {
				if counts[vt.val] == 1 {
					out[v] = vt.val // the lone eager write
				}
			}
			if _, ok := out[v]; ok {
				continue
			}
		}
		// Unanimous — or ambiguous, where the lowest reporter wins so
		// every would-be root reconstructs identically.
		bestSrc := -1
		for _, vt := range vs {
			if bestSrc == -1 || vt.src < bestSrc {
				bestSrc = vt.src
				out[v] = vt.val
			}
		}
	}
	return out
}

// rebuildLocks reconstructs the lock manager's state from member
// reports (see the package comment above for the rules).
func rebuildLocks(reps map[int]*snapReport, suspected map[int]bool) map[LockID]*lockState {
	ids := make(map[LockID]bool)
	for _, rep := range reps {
		for l := range rep.locks {
			ids[l] = true
		}
	}
	srcs := sortedKeys(reps)
	out := make(map[LockID]*lockState, len(ids))
	for l := range ids {
		st := newLockState()
		ls := &st
		for _, rep := range reps {
			ls.epoch = max(ls.epoch, rep.locks[l].epoch)
		}
		// Who was last seen inside? Only the reports that saw the lock's
		// newest epoch count; older ones saw already-finished sections. They
		// all saw the entry that epoch announced, so they name one session.
		for _, src := range srcs {
			s, ok := reps[src].locks[l]
			if !ok || s.epoch != ls.epoch || len(s.held.in) == 0 {
				continue
			}
			if len(ls.held.in) == 0 {
				ls.held.session = s.held.session
			}
			if s.held.session != ls.held.session {
				continue
			}
			for _, h := range s.held.in {
				if cur := ls.held.find(h.node); cur == nil || h.epoch > cur.epoch {
					ls.held.put(h)
				}
			}
		}
		// Each claimed holder's own report is the final word on whether it
		// is still inside: one that shows otherwise has left, and only the
		// release died with the root. A holder that did not report is freed
		// if it is suspected — it died with the old root, and its
		// stale-epoch traffic can no longer enter the group — and kept if it
		// is not: safety (no double grant) over liveness; its retries or its
		// release resolve the lock.
		ls.held.in = slices.DeleteFunc(ls.held.in, func(h holder) bool {
			own, ok := reps[h.node]
			if !ok {
				return suspected[h.node]
			}
			s := own.locks[l]
			return s.held.session != ls.held.session || !s.held.has(h.node)
		})
		if !ls.free() {
			ls.lastSession = ls.held.session
		}
		if h := ls.sole(); h != nil {
			ls.lastWinner = h.node
		}
		if ls.epoch > 0 {
			// Who won the grants leading up to the reconstructed epoch died
			// with the old root. Treating the newest grant's predecessor as
			// foreign keeps the pre-failover acceptance window (tag or
			// tag+1) without ever widening it.
			ls.foreignEpoch = ls.epoch - 1
		}
		// Reporters that say they wait re-queue in ID order (the old order
		// died with the old root); anyone missed re-queues via the tick's
		// request retry. The acquisition tokens died with the old root, so
		// re-queued entries carry token 0: the grant is declined and the
		// member's retry re-registers the request with its live token (one
		// extra round trip, never a wrong consumption).
		for _, src := range srcs {
			if s := reps[src].locks[l]; s.waits && !ls.holds(src) {
				ls.queue = append(ls.queue, lockWaiter{node: src, session: s.session})
			}
		}
		out[l] = ls
	}
	return out
}

// handleSnap routes a state stream message: a catch-up snapshot from the
// current root, or an election report from a peer for a future epoch.
// Caller holds n.mu.
func (n *Node) handleSnap(g *memberGroup, m *wire.Message) {
	switch {
	case m.Epoch == g.epoch && int(m.Src) == g.rootID:
		if !g.snapWanted {
			return // duplicate stream; already synced
		}
		n.snapApply(g, m)
	case m.Epoch > g.epoch:
		n.reportPiece(g, m)
	default:
		n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
	}
}

// snapApply buffers a snapshot stream from the root and applies it
// atomically when the final piece arrives. The snapshot was taken at the
// root's sequence m.Seq; it is discarded as stale if this member has
// already applied past that point (the periodic re-request fetches a
// fresher one). Caller holds n.mu.
func (n *Node) snapApply(g *memberGroup, m *wire.Message) {
	g.lastRoot = n.clock.Now()
	if g.snapBuf == nil || g.snapBufSeq != m.Seq {
		g.snapBuf = newSnapReport(m.Seq)
		g.snapBufSeq = m.Seq
	}
	g.snapBuf.absorb(m)
	if m.Type == wire.TSnapDone {
		snap := g.snapBuf
		g.snapBuf = nil
		if m.Seq+1 < g.nextSeq {
			return // stale snapshot; keep snapWanted and re-request
		}
		for _, v := range sortedKeys(snap.vars) {
			n.applyVarValue(g, v, snap.vars[v])
		}
		for _, l := range sortedKeys(snap.locks) {
			s := snap.locks[l]
			n.install(g, l, &s.held, s.epoch)
		}
		g.nextSeq = m.Seq + 1
		// Re-anchor the integrity digest to the root's sum at the
		// snapshot watermark (carried on TSnapDone). The replayed
		// pending messages below fold on top, exactly as they folded on
		// the root — and a diverged copy is now repaired.
		g.digest.Rebase(m.Digest())
		g.diverged = false
		for s := range g.pending {
			if s < g.nextSeq {
				delete(g.pending, s)
			}
		}
		n.drainPending(g)
		g.snapWanted = false
		n.emit(obs.EvSnapApplied, g.cfg.ID, int64(m.Seq), int64(g.epoch))
		// The snapshot may have advanced the applied prefix by a lot;
		// tell the quorum watermark at once.
		n.maybeSendAck(g)
	}
}

// reportPiece buffers one piece of a peer's election report while this
// node is (or is about to learn it is) the candidate. Caller holds n.mu.
func (n *Node) reportPiece(g *memberGroup, m *wire.Message) {
	if m.Epoch > g.reportEpoch {
		g.reportEpoch = m.Epoch
		g.reports = make(map[int]*snapReport)
	} else if m.Epoch < g.reportEpoch {
		return
	}
	if g.reports == nil {
		g.reports = make(map[int]*snapReport)
	}
	src := int(m.Src)
	rep := g.reports[src]
	if rep == nil || rep.done {
		// A finished report is superseded by the next tick's re-send (the
		// reporter's state may have moved while the election runs).
		rep = newSnapReport(m.Seq)
		g.reports[src] = rep
	}
	rep.absorb(m)
}

// applyVarValue installs a reconstructed or snapshotted variable value
// through the normal delivery path, so insharing suspension and Watch
// hooks behave exactly as for sequenced updates. Caller holds n.mu.
func (n *Node) applyVarValue(g *memberGroup, v VarID, val int64) {
	m := wire.Hdr{Group: uint32(g.cfg.ID)}.SeqUpdate(-1, uint32(v), val, false)
	if g.suspended {
		g.suspendQ = append(g.suspendQ, m)
		return
	}
	n.applyData(g, &m)
}

// rootSnapSend streams the authoritative state to one member, tagged
// with the root's current sequence number so the receiver can order it
// against live traffic. The stream is built under n.mu, so it is a
// consistent cut. Caller holds n.mu.
func (n *Node) rootSnapSend(r *rootGroup, to int) {
	hdr, seq := n.rootHdr(r), r.ring.seq()
	msgs := make([]wire.Message, 0, len(r.vars.recs)+len(r.book.locks.recs)+1)
	for i := range r.vars.recs {
		if rv := &r.vars.recs[i]; rv.written {
			msgs = append(msgs, hdr.SnapVar(seq, uint32(i), rv.auth))
		}
	}
	msgs = r.book.snap(msgs, hdr, seq)
	// The root's digest at the snapshot watermark rides on the final
	// frame, so the receiver re-anchors its own digest to it (snapApply)
	// and the next anti-entropy sweep compares cleanly.
	n.sendStream(to, append(msgs, hdr.SnapDone(seq, r.digest.Sum())))
}
