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
//     one TBatch frame per member (or per spanning-tree child) instead
//     of one frame per message;
//   - NACK retransmission and failover state streams ride the same frame
//     type, so loss recovery and elections pack their bursts too.
//
// Combining relaxes ordering *within* one flush window: a variable's
// queued slot keeps its first-write position but carries its last-written
// value. Write patterns that touch their variables in a fixed order per
// round (signal-after-data, publication blocks) are unaffected, because
// slot order then matches program order; this is exactly the relaxation
// Sesame's hardware write combining makes. Batching is off by default.

// flushReason says why a member batch left the queue.
type flushReason int

const (
	flushSize    flushReason = iota // the queue reached maxMsgs
	flushDelay                      // maxDelay elapsed since the first write
	flushRelease                    // a lock release needed the data out first
	flushSync                       // a Sync barrier needed the data out first
	flushClose                      // node shutdown drained the queue (uncounted)
)

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
			n.stats.Coalesced++
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
		n.flushWrites(g, flushSize)
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
	n.flushWrites(g, flushDelay)
}

// flushWrites ships the queued writes to the group root as one batch
// frame (or a bare message when only one is queued). Queued messages are
// re-stamped with the group's current epoch, so a flush that straddles a
// failover addresses the new reign — exactly as the writes would have if
// sent unqueued. Caller holds n.mu.
func (n *Node) flushWrites(g *memberGroup, why flushReason) {
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
	n.emit(obs.EvBatchFlush, g.cfg.ID, int64(len(q)), int64(why))
	switch why {
	case flushSize:
		n.stats.FlushReasons.Size++
	case flushDelay:
		n.stats.FlushReasons.Delay++
	case flushRelease:
		n.stats.FlushReasons.Release++
	case flushSync:
		n.stats.FlushReasons.Sync++
	}
	for i := range q {
		q[i].Epoch = g.epoch
		g.vars.recs[q[i].Var].batchSlot = 0
	}
	if len(q) == 1 {
		n.send(g.rootID, q[0])
		return
	}
	n.stats.Batches++
	n.send(g.rootID, wire.Message{
		Type:  wire.TBatch,
		Group: uint32(g.cfg.ID),
		Src:   int32(n.id),
		Epoch: g.epoch,
		Batch: q,
	})
}

// handleBatch dispatches one batch frame. Up-plane batches are sequenced
// by the root in one pass — one node-lock acquisition, one contiguous
// sequence range, one outgoing frame per member; down-plane batches are
// relayed down the spanning tree as a single frame and then ingested
// message by message; snapshot/report batches feed the failover
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
	switch frame.Batch[0].Type {
	case wire.TUpdate, wire.TLockReq, wire.TLockRel, wire.TNack, wire.TLockCancel, wire.TSnapReq:
		r, ok := n.roots[gid]
		if ok && r.outBatch == nil {
			// One right-sized allocation for the fan-out: sequenced output
			// usually matches the incoming batch one for one.
			r.outBatch = make([]wire.Message, 0, len(frame.Batch))
		}
		if !ok {
			if g, member := n.groups[gid]; member {
				// Routine during failover, as on the single-message path:
				// point stale senders at the current root.
				if frame.Epoch < g.epoch {
					n.stats.StaleEpochRejected++
					n.maybeNotice(g, int(frame.Src))
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
	case wire.TSeqUpdate, wire.TSeqLock:
		g, ok := n.groups[gid]
		if !ok {
			n.protoErr("gwc: node %d got sequenced batch for unknown group %d", n.id, frame.Group)
			return
		}
		// Relay the whole frame down the tree once if it brings anything
		// new (children drop the duplicates), then ingest with the
		// per-message relay suppressed.
		if len(g.children) > 0 {
			for i := range frame.Batch {
				m := &frame.Batch[i]
				if m.Epoch >= g.epoch && m.Seq >= g.nextSeq {
					if _, dup := g.pending[m.Seq]; !dup {
						n.forwardDown(g, frame)
						break
					}
				}
			}
		}
		for i := range frame.Batch {
			n.ingestFwd(g, &frame.Batch[i], false)
		}
		n.maybeSendAck(g)
	case wire.TSnapVar, wire.TSnapLock, wire.TSnapDone:
		g, ok := n.groups[gid]
		if !ok {
			n.protoErr("gwc: node %d got snapshot batch for unknown group %d", n.id, frame.Group)
			return
		}
		for i := range frame.Batch {
			n.handleSnap(g, &frame.Batch[i])
		}
	default:
		n.protoErr("gwc: node %d got batch of unexpected type %v", n.id, frame.Batch[0].Type)
	}
}

// rootEndBatch closes the root's collection window: every message that
// multicast sequenced while processing the incoming batch leaves in one
// frame per destination — the group members directly, or the root's
// spanning-tree children in tree-fanout mode. Caller holds n.mu.
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
		n.stats.Batches++
		frame = wire.Message{
			Type:  wire.TBatch,
			Group: uint32(r.cfg.ID),
			Src:   int32(n.id),
			Epoch: r.epoch,
			Batch: q,
		}
	}
	if r.cfg.TreeFanout {
		n.forwardDown(r.member, &frame)
		return
	}
	for _, member := range r.cfg.Members {
		if member != n.id {
			n.push(member, frame)
		}
	}
}

// sendStream ships a state stream (snapshot or election report) to one
// node, packed into batch frames when batching is enabled. All messages
// must belong to gid and carry their own epoch stamps.
func (n *Node) sendStream(to int, gid GroupID, epoch uint32, msgs []wire.Message) {
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
		n.stats.Batches++
		n.send(to, wire.Message{
			Type:  wire.TBatch,
			Group: uint32(gid),
			Src:   int32(n.id),
			Epoch: epoch,
			Batch: chunk,
		})
	}
}
