package gwc

import (
	"context"
	"fmt"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// Member crash recovery.
//
// A crashed-and-restarted node still has its configuration (it re-runs
// the same program) but none of its volatile protocol state: variable
// copies, the applied sequence position, lock state. Rejoin resets the
// member side to a fresh join and runs a re-admission handshake with
// whatever root currently reigns:
//
//   - the member sends TJoinReq every maintenance tick (instead of its
//     resync probe) until answered;
//   - the root frees any lock the rejoiner held or waited for (its
//     sections died with its memory; its stale guarded writes carry old
//     grant epochs and are suppressed), zeroes its ack, answers with
//     TJoinAck naming the current epoch, and streams a state snapshot
//     over the failover snapshot path;
//   - a non-root member that receives the request points the rejoiner at
//     the reign it follows (the rejoiner's idea of the root may predate
//     a failover), and the corrective heartbeat converts the rejoin into
//     ordinary epoch adoption.
//
// Because a reign's sequence numbers are globally consistent, live
// multicasts that land between the TJoinAck and the snapshot buffer
// cleanly in pending and replay once the snapshot re-bases the member.

// syncWaiter parks one Sync caller until the root's TSyncAck arrives
// (ok=true) or the node closes (ok=false). since stamps when the
// barrier was issued (for the stuck-operation watchdog) and bo is its
// adaptive resend schedule, both driven by the maintenance tick.
type syncWaiter struct {
	ch    chan struct{}
	ok    bool
	since time.Time
	bo    backoff
}

// Rejoin re-enters a group this node already joined, discarding all
// volatile member state — a restarted process recovering its groups, or
// a chaos test reviving a crashed node. Held locks and queued requests
// are abandoned (the root frees them on re-admission); registered hooks,
// watches, and blocked waiters survive and fire again as the snapshot
// re-bases the local copies. The handshake itself is asynchronous:
// Rejoin returns once the request is on the wire, and the maintenance
// tick re-sends it until the root answers. Roots cannot rejoin their own
// reign.
func (n *Node) Rejoin(gid GroupID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("gwc: node %d is closed: %w", n.id, ErrClosed)
	}
	g, err := n.group(gid)
	if err != nil {
		return err
	}
	if _, isRoot := n.roots[gid]; isRoot {
		return fmt.Errorf("gwc: node %d roots group %d and cannot rejoin its own reign", n.id, gid)
	}
	g.forgetState()
	g.suspected = make(map[int]bool)
	g.suspended = false
	g.suspendQ = nil
	g.batchQ = nil
	if g.batchTimer != nil {
		g.batchTimer.Stop()
	}
	// A blank slate under the reign this node last followed: the discarded
	// copy takes its stream position, digest and any divergence verdict
	// with it, and the admission snapshot re-anchors them.
	n.rebase(g, g.epoch, g.rootID, false)
	g.rejoining = true
	// Each attempt mints a fresh rejoin ticket: the root remembers the
	// last ticket it served and answers duplicates of the same attempt
	// idempotently (see handleJoinReq). The stamp starts the
	// watchdog's clock; the re-base restarted every retry schedule from
	// its base, and joinB is armed past the send below so the first tick
	// retry waits out a full base delay.
	g.joinToken++
	g.rejoinBegan = n.clock.Now()
	n.arm(&g.joinB, g.rejoinBegan, n.boBase(), n.boCap())
	n.send(g.rootID, n.hdr(g).JoinReq(g.joinToken))
	return nil
}

// handleJoinReq processes a re-admission request, on whichever node it
// reaches: the reigning root re-admits, anyone else redirects. The
// request is epoch-agnostic — a rejoiner by definition does not know the
// current epoch. Caller holds n.mu.
func (n *Node) handleJoinReq(m *wire.Message) {
	gid := GroupID(m.Group)
	src := int(m.Src)
	if r, ok := n.roots[gid]; ok {
		i := r.cfg.indexOf(src)
		if i < 0 {
			n.protoErr("gwc: node %d got join request from non-member %d for group %d", n.id, src, m.Group)
			return
		}
		r.lastHeard[i] = n.clock.Now()
		// Admission is idempotent per rejoin attempt: the ticket the member
		// minted (0 from pre-ticket senders, which always take the full
		// path) keys the destructive half. A duplicate TJoinReq — a retry
		// whose original answer or snapshot was lost — must still be
		// answered, but must NOT re-free locks: the member may have been
		// admitted by the first copy and re-acquired a lock since, and
		// freeing that one would hand its critical section to someone else.
		token := m.Ticket()
		if token == 0 || r.joinSeen[src] != token {
			r.joinSeen[src] = token
			r.book.purge(src)
			// Its acked prefix died with its memory; the quorum watermark
			// must not keep crediting it (commit itself stays monotonic).
			r.acks[src] = 0
			n.emit(obs.EvRejoined, gid, int64(src), int64(r.epoch))
		}
		n.send(src, n.rootHdr(r).JoinAck(r.ring.seq(), n.id))
		n.rootSnapSend(r, src)
		return
	}
	if g, ok := n.groups[gid]; ok {
		// Not the root (any more): point the rejoiner at the reign this
		// node follows; the corrective heartbeat turns its rejoin into
		// ordinary epoch adoption.
		n.maybeNotice(g, src)
		return
	}
	n.protoErr("gwc: node %d got join request for unknown group %d", n.id, m.Group)
}

// handleJoinAck completes the rejoin handshake on the member: adopt the
// answering root's epoch and wait for the snapshot stream that follows.
// Caller holds n.mu.
func (n *Node) handleJoinAck(g *memberGroup, m *wire.Message) {
	if !g.rejoining {
		return // duplicate answer, or adoption already superseded the rejoin
	}
	n.rebase(g, m.Epoch, int(m.Src), true)
	n.emit(obs.EvRejoined, g.cfg.ID, int64(n.id), int64(g.epoch))
}

// Sync is SyncContext without cancellation.
func (n *Node) Sync(gid GroupID) error {
	return n.SyncContext(context.Background(), gid)
}

// SyncContext blocks until every Write this node issued to the group
// before the call is committed at the root: sequenced, and — under
// SetQuorumAcks — applied by a majority of the membership, which makes
// the writes durable across any quorum-gated failover. Queued batch
// writes are flushed first, and the barrier rides the FIFO link behind
// them. A fenced root holds the answer until its lease recovers, so
// SyncContext doubles as a "did my writes actually commit?" probe during
// a partition. If a failover lands between the flush and the answer, the
// barrier is re-issued to the new root and only vouches for what that
// reign sequenced — unsequenced writes from the old reign are lost, as
// eager writes always are.
func (n *Node) SyncContext(ctx context.Context, gid GroupID) error {
	n.mu.Lock()
	g, err := n.group(gid)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("gwc: node %d is closed: %w", n.id, ErrClosed)
	}
	n.flushWrites(g, obs.EvFlushSync)
	g.syncToken++
	tok := g.syncToken
	now := n.clock.Now()
	sw := &syncWaiter{ch: make(chan struct{}), since: now}
	g.syncPending[tok] = sw
	n.arm(&sw.bo, now, n.boBase(), n.boCap())
	// The root answers directly; on loss or failover the maintenance tick
	// re-sends every pending token on its backoff schedule (roots dedupe
	// by token). A root node syncing its own group sends to itself, like
	// its writes do.
	n.send(g.rootID, n.hdr(g).SyncReq(tok))
	n.mu.Unlock()
	select {
	case <-ctx.Done():
		n.mu.Lock()
		delete(g.syncPending, tok)
		n.mu.Unlock()
		return ctx.Err()
	case <-sw.ch:
		n.mu.Lock()
		ok := sw.ok
		n.mu.Unlock()
		if !ok {
			return fmt.Errorf("gwc: node %d closed during sync barrier: %w", n.id, ErrClosed)
		}
		return nil
	}
}

// handleSyncAck wakes the Sync caller whose token the root echoed.
// Caller holds n.mu.
func (n *Node) handleSyncAck(g *memberGroup, m *wire.Message) {
	sw, ok := g.syncPending[m.Ticket()]
	if !ok {
		return // cancelled, or a duplicate answer
	}
	delete(g.syncPending, m.Ticket())
	sw.ok = true
	close(sw.ch)
}
