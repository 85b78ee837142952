package gwc

import (
	"context"
	"fmt"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// Session locks: group mutual exclusion at the member.
//
// A session lock generalizes the mutex: every critical section carries a
// session number, any number of holders of the *same* session run
// concurrently, and different sessions exclude each other. Session 0 is
// plain mutual exclusion (exactly the pre-session protocol, frame for
// frame), and a readers/writers lock is the two-session special case —
// readers enter a shared non-zero session, writers take session 0.
//
// The root (root.go) keeps the holder set and decides admission and
// fairness; this file keeps the member's mirror of it. Member-side lock
// frames with a non-zero Session route here (applySessionLock) instead
// of the single-holder path; each entry, leave, and close updates the
// per-lock sessView and wakes lock waiters, and an entry fires the
// interrupt of a section speculating on another session (speculate.go).

// sessView is a member's mirror of one lock's open session: who holds
// entries (node -> entry grant epoch) and whether this node is one of
// them. The view is reset by any exclusive-protocol frame for the lock
// — sequenced after the session closed at the root by construction.
type sessView struct {
	session uint32
	holders map[int]uint32
	mine    bool
}

// SessionInfo is a lock's locally observed session state.
type SessionInfo struct {
	Session uint32 // the open session, 0 when none is open locally
	Holders int    // concurrent holders currently observed
	Mine    bool   // whether this node holds an entry
}

// sessionEntered fires the interrupt of a session section speculating on
// the lock when a node was seen entering any other session (session 0, an
// exclusive grant, included). Caller holds n.mu.
func (g *memberGroup) sessionEntered(lk *memberLock, session uint32) {
	if lk.spec != nil && lk.specSession != 0 && session != lk.specSession {
		g.interrupt(lk)
	}
}

// sessionWaiter reports whether this node has asked to enter a session
// of the lock and is not in it yet — what an election report carries as
// a session request marker.
func (lk *memberLock) sessionWaiter() bool {
	return lk.reqSession != 0 && lk.want && (lk.sess == nil || !lk.sess.mine)
}

// applySessionLock installs one sequenced session-protocol lock frame:
// an entry (Val > 0), a leave (negative request-encoded Val), or the
// session's close (Val == Free). Self-entries are validated exactly
// like exclusive self-grants — consumed only when the echoed token
// matches the outstanding acquisition, handed back otherwise — so a
// stale or unwanted entry can never let a later acquisition run
// unlocked. Caller holds n.mu.
func (n *Node) applySessionLock(g *memberGroup, m *wire.Message) {
	lk := g.locks.at(LockID(m.Lock))
	s := m.Session
	switch {
	case m.Val == Free:
		sv := lk.sess
		if sv != nil && len(sv.holders) > 0 {
			clear(sv.holders)
			sv.mine = false
		}
		if !lk.known {
			// Materialize the lock value so election reports keep carrying
			// this lock's grant epoch across a failover.
			lk.set(Free)
		}
		g.runLockHooks(lk, Free, n.id)
		g.lock.notifyAll()
	case m.Val > 0:
		n.applySessionEntry(g, lk, m)
	default:
		// A holder left; the session stays open.
		node := holderOf(-m.Val)
		sv := lk.sess
		if sv != nil && sv.session == s {
			delete(sv.holders, node)
			if node == n.id {
				sv.mine = false
			}
		}
		g.lock.notifyAll()
	}
}

// applySessionEntry handles the entry half of applySessionLock. Caller
// holds n.mu.
func (n *Node) applySessionEntry(g *memberGroup, lk *memberLock, m *wire.Message) {
	l := LockID(m.Lock)
	s := m.Session
	node := holderOf(m.Val)
	entryEpoch := m.Var
	token := uint32(m.Origin)
	sv := lk.sess
	if sv == nil || len(sv.holders) == 0 || sv.session != s {
		// The section (re)opens here. The lock value stays (or becomes)
		// Free — the session protocol does not use it — but it must be
		// known so election reports keep carrying the lock's epoch.
		sv = &sessView{session: s, holders: make(map[int]uint32)}
		lk.sess = sv
		if !lk.known {
			lk.set(Free)
		}
	}
	if node == n.id {
		if entryEpoch <= lk.lockDone {
			// Stale duplicate of an entry this node already finished with;
			// answer with a release so a root that lost our leave does not
			// re-announce forever (see the exclusive twin in
			// applyLockValue).
			n.sendRelease(g, l, entryEpoch, s)
			return
		}
		if !sv.mine && (!lk.want || token != lk.reqToken) {
			// Unwanted, or minted for a different acquisition (a cancel in
			// flight, or a token-less failover re-queue): hand it straight
			// back, recording the observed epoch so later speculation tags
			// stay clean.
			lk.lockDone = max(lk.lockDone, entryEpoch)
			lk.sawGrant(max(lk.grantEpoch, entryEpoch))
			n.sendRelease(g, l, entryEpoch, s)
			g.lock.notifyAll()
			return
		}
		sv.mine = true
		sv.holders[n.id] = entryEpoch
		// Acquisition complete: stop the watchdog's clock on it.
		lk.reqSince = time.Time{}
	} else {
		sv.holders[node] = entryEpoch
	}
	lk.sawGrant(max(lk.grantEpoch, entryEpoch))
	// An open session is a busy lock for exclusive observers: run the
	// classic hooks with the entrant's grant value so an exclusive
	// speculator's interrupt fires exactly as on an exclusive grant.
	g.runLockHooks(lk, GrantValue(node), n.id)
	g.sessionEntered(lk, s)
	g.lock.notifyAll()
}

// installSessionView re-bases a lock's session state from a failover
// snapshot or promotion: the reconstructed holder set replaces the
// local view wholesale. A reconstructed self-entry is kept only if this
// node already believed it held one (the entry tokens died with the old
// root, so belief is the only validation left — the exact analog of the
// exclusive re-base accepting a self-grant the local copy already
// shows); otherwise it is handed back like a declined grant. Caller
// holds n.mu.
func (n *Node) installSessionView(g *memberGroup, l LockID, session uint32, holders map[int]uint32, epoch uint32) {
	lk := g.locks.at(l)
	priorMine := lk.sess != nil && lk.sess.mine
	nv := &sessView{session: session, holders: make(map[int]uint32, len(holders))}
	for _, h := range sortedKeys(holders) {
		ee := holders[h]
		if h == n.id && !priorMine {
			lk.lockDone = max(lk.lockDone, ee)
			n.sendRelease(g, l, ee, session)
			continue
		}
		nv.holders[h] = ee
		if h == n.id {
			nv.mine = true
			lk.reqSince = time.Time{}
		}
	}
	lk.sess = nv
	if !lk.known {
		lk.set(Free)
	}
	lk.sawGrant(max(lk.grantEpoch, epoch))
	if len(nv.holders) > 0 {
		low := sortedKeys(nv.holders)[0]
		g.runLockHooks(lk, GrantValue(low), n.id)
		g.sessionEntered(lk, session)
	}
	g.lock.notifyAll()
}

// sessionInfo assembles the lock's observed session state. Caller holds
// n.mu.
func (g *memberGroup) sessionInfo(l LockID) SessionInfo {
	lk := g.locks.peek(l)
	if lk == nil || lk.sess == nil || len(lk.sess.holders) == 0 {
		return SessionInfo{}
	}
	sv := lk.sess
	return SessionInfo{Session: sv.session, Holders: len(sv.holders), Mine: sv.mine}
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
	return g.sessionInfo(l), nil
}

// SendSessionRequest issues the non-blocking half of a session entry:
// ship the request for the given session (0 = exclusive, identical to
// SendLockRequest) and return. Pair with WaitSessionCondContext or poll
// SessionState.
func (n *Node) SendSessionRequest(gid GroupID, l LockID, session uint32) error {
	return n.sendLockRequestS(gid, l, session, 0, n.clock.Now())
}

// WaitSessionCondContext is WaitLockCondContext over the lock's observed
// session state: it blocks, on behalf of the entry the caller issued
// with SendSessionRequest, until cond is satisfied (checked immediately
// and after every lock change) or ctx ends, while the maintenance tick
// keeps the request alive.
func (n *Node) WaitSessionCondContext(ctx context.Context, gid GroupID, l LockID, cond func(SessionInfo) bool) (bool, error) {
	return n.waitLockF(ctx, gid, l, func(g *memberGroup) bool { return cond(g.sessionInfo(l)) })
}

// EnterSession blocks until this node holds an entry in the lock's
// given session. Session 0 is exactly Acquire.
func (n *Node) EnterSession(gid GroupID, l LockID, session uint32) error {
	return n.EnterSessionContext(context.Background(), gid, l, session)
}

// EnterSessionContext is EnterSession with cancellation. On
// cancellation or deadline it withdraws the queued request from the
// root (leaving the session instead if the entry raced the
// cancellation) and returns ctx's error. Entering a session that is
// already open with nobody else waiting is near-free: the root admits
// the join without closing the section.
func (n *Node) EnterSessionContext(ctx context.Context, gid GroupID, l LockID, session uint32) error {
	if session == 0 {
		return n.AcquireContext(ctx, gid, l)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := n.clock.Now()
	if err := n.ownLockRequest(gid, l, session, ctxDeadline(ctx), start); err != nil {
		return err
	}
	cond := func(g *memberGroup) bool {
		lk := g.locks.peek(l)
		return lk != nil && lk.sess != nil && lk.sess.mine && lk.sess.session == session
	}
	ok, err := n.waitLockF(ctx, gid, l, cond)
	if err != nil {
		if cerr := n.CancelLockRequest(gid, l); cerr != nil {
			n.mu.Lock()
			n.protoErr("gwc: node %d cancel session entry %d: %w", n.id, l, cerr)
			n.mu.Unlock()
		}
		return err
	}
	if !ok {
		return fmt.Errorf("gwc: node %d closed while entering session %d of lock %d: %w", n.id, session, l, ErrClosed)
	}
	n.metrics.Hist(obs.HistLockAcquire).Record(n.clock.Now().Sub(start))
	return nil
}

// LeaveSession gives up this node's entry in the lock's open session.
// Like Release, the leave follows the section's last shared write on
// the same path, so GWC ordering guarantees every member sees the data
// before the session state changes. Leaving an exclusively held lock
// delegates to Release, so Enter/Leave pair for session 0 too.
func (n *Node) LeaveSession(gid GroupID, l LockID) error {
	n.mu.Lock()
	g, lk, err := n.lockOf(gid, l)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	lk.spec = nil // as in Release
	sv := lk.sess
	if sv == nil || !sv.mine {
		if lk.value() == GrantValue(n.id) {
			n.mu.Unlock()
			return n.Release(gid, l)
		}
		n.mu.Unlock()
		return fmt.Errorf("gwc: node %d leaving session lock %d it has not entered", n.id, l)
	}
	n.flushWrites(g, flushRelease)
	my := sv.holders[n.id]
	session := sv.session
	delete(sv.holders, n.id)
	sv.mine = false
	lk.lockDone = max(lk.lockDone, my)
	lk.endRequest()
	root := g.rootID
	g.lock.notifyAll()
	msg := wire.Message{
		Type:    wire.TLockRel,
		Group:   uint32(gid),
		Src:     int32(n.id),
		Origin:  int32(n.id),
		Lock:    uint32(l),
		Var:     my, // quoted so the root can discard stale duplicates
		Epoch:   g.epoch,
		Session: session,
	}
	n.mu.Unlock()
	return n.ep.Send(root, msg)
}
