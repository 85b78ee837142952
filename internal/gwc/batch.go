package gwc

import (
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// Batched update plane.
//
// Sesame's hardware interfaces combine adjacent writes before they hit
// the wire; this file is the software reproduction of that write
// combining, amortizing the per-message costs of the update plane:
//
//   - members queue TUpdate messages instead of shipping each one, and a
//     repeated write to the same variable inside the window replaces the
//     queued value (one wire message for a whole burst of stores);
//   - the queue flushes when maxMsgs writes are buffered, when maxDelay
//     elapses, or — crucially — just before a lock release leaves the
//     node, so the GWC invariant "every node sees the section's data
//     before the lock changes hands" is preserved verbatim;
//   - the root sequences a whole incoming batch under one acquisition of
//     the node lock, assigns it a contiguous sequence range, and fans out
//     one TBatch frame per member instead of one frame per message;
//   - NACK retransmission and failover state streams ride the same frame
//     type, so loss recovery and elections pack their bursts too.
//
// Combining relaxes ordering *within* one flush window: a variable's
// queued slot keeps its first-write position but carries its last-written
// value. Write patterns that touch their variables in a fixed order per
// round (signal-after-data, publication blocks) are unaffected, because
// slot order then matches program order; this is exactly the relaxation
// Sesame's hardware write combining makes. Batching is off by default.

// FlushReasons counts member batch flushes by trigger.
type FlushReasons struct {
	Size    int // queue reached the maxMsgs bound
	Delay   int // maxDelay elapsed
	Release int // flushed ahead of a lock release
	Sync    int // flushed ahead of a Sync barrier
}

// SetBatching configures member-side write coalescing: shared writes are
// queued and shipped to the group root in batch frames, flushed when
// maxMsgs writes are buffered, when maxDelay has elapsed since the first
// queued write, or immediately before a lock release leaves the node.
// maxMsgs < 2 disables batching (the default); maxDelay <= 0 defaults to
// 2ms. With batching enabled, Write reports transport failures through
// Errors() rather than its return value (the flush happens later).
func (n *Node) SetBatching(maxDelay time.Duration, maxMsgs int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if maxMsgs < 2 {
		n.batchMax = 0
		return
	}
	if maxMsgs > wire.MaxBatch {
		maxMsgs = wire.MaxBatch
	}
	if maxDelay <= 0 {
		maxDelay = 2 * time.Millisecond
	}
	n.batchMax = maxMsgs
	n.batchDelay = maxDelay
}

// enqueueWrite queues an outgoing TUpdate, coalescing it into an
// already-queued write to the same variable when both carry the same
// guard state (writes straddling a grant epoch must stay distinct so the
// root can judge each against its own epoch tag). Caller holds n.mu.
func (n *Node) enqueueWrite(gid GroupID, g *memberGroup, mv *memberVar, msg wire.Message) {
	if mv.batchSlot > 0 {
		q := &g.batchQ[mv.batchSlot-1]
		if q.Guarded == msg.Guarded && q.Seq == msg.Seq {
			q.Val = msg.Val
			n.emit(obs.EvCoalesced, gid, int64(msg.Var), 0)
			return
		}
	}
	if g.batchQ == nil {
		// One right-sized allocation per window; the flush hands the slice
		// to the outgoing frame, so it cannot be recycled.
		g.batchQ = make([]wire.Message, 0, n.batchMax)
	}
	g.batchQ = append(g.batchQ, msg)
	mv.batchSlot = len(g.batchQ)
	if len(g.batchQ) >= n.batchMax {
		n.flushWrites(g, obs.EvFlushSize)
		return
	}
	if len(g.batchQ) == 1 {
		g.batchFirst = n.clock.Now()
		if g.batchTimer == nil {
			g.batchTimer = n.clock.AfterFunc(n.batchDelay, func() { n.flushTimer(gid) })
		} else {
			g.batchTimer.Reset(n.batchDelay)
		}
	}
}

// flushTimer is the maxDelay trigger, run outside the node lock by the
// queue's timer.
func (n *Node) flushTimer(gid GroupID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, ok := n.groups[gid]
	if !ok || n.closed {
		return
	}
	n.flushWrites(g, obs.EvFlushDelay)
}

// flushWrites ships the queued writes to the group root as one batch
// frame (or a bare message when only one is queued), counted under why:
// the flush trigger's event type (EvFlushSize ... EvFlushClose). Queued
// messages are re-stamped with the group's current epoch, so a flush that
// straddles a failover addresses the new reign — exactly as the writes
// would have if sent unqueued. Caller holds n.mu.
func (n *Node) flushWrites(g *memberGroup, why obs.EventType) {
	if g.batchTimer != nil {
		// The timer object is reused across windows; a stale fire finds an
		// empty queue and does nothing.
		g.batchTimer.Stop()
	}
	q := g.batchQ
	if len(q) == 0 {
		return
	}
	g.batchQ = nil
	if !g.batchFirst.IsZero() {
		n.metrics.Hist(obs.HistBatchFlush).Record(n.clock.Now().Sub(g.batchFirst))
		g.batchFirst = time.Time{}
	}
	n.emit(why, g.cfg.ID, int64(len(q)), 0)
	for i := range q {
		q[i].Epoch = g.epoch
		g.vars.recs[q[i].Var].batchSlot = 0
	}
	if len(q) == 1 {
		n.send(g.rootID, q[0])
		return
	}
	n.emit(obs.EvBatchSent, g.cfg.ID, int64(len(q)), int64(g.rootID))
	n.send(g.rootID, n.hdr(g).Batch(q))
}

// handleBatch dispatches one batch frame. Up-plane batches are sequenced
// by the root in one pass — one node-lock acquisition, one contiguous
// sequence range, one outgoing frame per member; down-plane batches are
// ingested message by message; snapshot/report batches feed the failover
// machinery. A frame naming an ID past the table bound anywhere inside
// is dropped whole. Caller holds n.mu.
func (n *Node) handleBatch(frame *wire.Message) {
	if len(frame.Batch) == 0 {
		return
	}
	for i := range frame.Batch {
		if !n.idsOK(&frame.Batch[i]) {
			return
		}
	}
	gid := GroupID(frame.Group)
	switch t := frame.Batch[0].Type; {
	case t.ToRoot():
		r, ok := n.roots[gid]
		if ok && r.outBatch == nil {
			// One right-sized allocation for the fan-out: sequenced output
			// usually matches the incoming batch one for one.
			r.outBatch = make([]wire.Message, 0, len(frame.Batch))
		}
		if !ok {
			if g, member := n.groups[gid]; member {
				// Routine during failover, as on the single-message path:
				// point stale senders at the current root, and keep an
				// election report's up-path.
				switch {
				case frame.Epoch < g.epoch:
					n.emit(obs.EvStaleEpoch, gid, int64(frame.Type), int64(frame.Epoch))
					n.maybeNotice(g, int(frame.Src))
				case frame.Epoch > g.epoch:
					for i := range frame.Batch {
						n.reportPiece(g, &frame.Batch[i])
					}
				}
				return
			}
			n.protoErr("gwc: node %d got batch for group %d but is not its root", n.id, frame.Group)
			return
		}
		r.collecting = true
		for i := range frame.Batch {
			n.rootHandle(r, &frame.Batch[i])
		}
		n.rootEndBatch(r)
	case t == wire.TSeqUpdate || t == wire.TSeqLock:
		g, ok := n.groups[gid]
		if !ok {
			n.protoErr("gwc: node %d got sequenced batch for unknown group %d", n.id, frame.Group)
			return
		}
		for i := range frame.Batch {
			n.ingest(g, &frame.Batch[i])
		}
		n.maybeSendAck(g)
	case t == wire.TSnapVar || t == wire.TSnapLock || t == wire.TSnapDone:
		// A state stream: an election report's up-path frames ride in it,
		// and each frame goes where it would go alone.
		for i := range frame.Batch {
			n.route(&frame.Batch[i])
		}
	default:
		n.protoErr("gwc: node %d got batch of unexpected type %v", n.id, t)
	}
}

// rootEndBatch closes the root's collection window: every message that
// multicast sequenced while processing the incoming batch leaves in one
// frame, fanned out to every member. Caller holds n.mu.
func (n *Node) rootEndBatch(r *rootGroup) {
	r.collecting = false
	q := r.outBatch
	r.outBatch = nil
	if len(q) == 0 {
		return
	}
	var frame wire.Message
	if len(q) == 1 {
		frame = q[0]
	} else {
		n.emit(obs.EvBatchSent, r.cfg.ID, int64(len(q)), -1)
		frame = n.rootHdr(r).Batch(q)
	}
	n.fanOut(r, &frame)
}

// sendStream ships a state stream (snapshot or election report, or a
// retransmitted range) to one node, packed into batch frames when
// batching is enabled. Its messages share one header, which the batch
// frames carrying them repeat.
func (n *Node) sendStream(to int, msgs []wire.Message) {
	lim := n.batchMax
	if lim < 2 {
		for _, m := range msgs {
			n.send(to, m)
		}
		return
	}
	for len(msgs) > 0 {
		k := min(len(msgs), lim)
		chunk := msgs[:k]
		msgs = msgs[k:]
		if len(chunk) == 1 {
			n.send(to, chunk[0])
			continue
		}
		n.emit(obs.EvBatchSent, GroupID(chunk[0].Group), int64(k), int64(to))
		n.send(to, chunk[0].Hdr().Batch(chunk))
	}
}
