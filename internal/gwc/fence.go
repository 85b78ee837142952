package gwc

import (
	"sort"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// Partition-safe reigns.
//
// PR 1's failover layer elects a new root when the old one falls silent,
// but on its own that is not partition-safe: a minority side could keep
// its root (or elect one) and sequence writes the healed group later
// throws away. This file closes that window with two quorum mechanisms:
//
//   - a *fencing lease* on the root: every up-message from a member is
//     proof of contact, and a root that heard from fewer than a majority
//     of the configured membership (itself included) within failAfter
//     stops sequencing — updates, lock traffic, and sync barriers park
//     in a bounded queue until quorum contact returns (replayed in
//     order) or a newer epoch deposes the reign (dropped; nothing queued
//     was ever acknowledged);
//
//   - a *quorum-ack watermark* for durable writes: members continuously
//     acknowledge the sequenced prefix they applied (resync probes carry
//     it for free, TAck frames carry it eagerly), and the root tracks
//     commit = the quorum-th highest ack, counting itself at r.ring.seq().
//     Under SetQuorumAcks, a released lock is handed to the next waiter
//     only once commit covers the releaser's data, and Sync barriers
//     (TSyncReq/TSyncAck) answer only once commit covers everything
//     sequenced before the request.
//
// Together with quorum-gated elections (failover.go) this yields the
// standard majority-intersection argument: a quorum-acked write lives on
// at least one member of any elected successor's report majority, so it
// survives the failover; and no two reigns can sequence concurrently,
// because at most one side of a partition holds a majority.

// fenceQueue parks an up-message on a fenced root, bounded by the
// history size so a long partition cannot grow the queue without limit.
// At the bound, data-plane traffic is shed in preference to lock-plane
// traffic: updates and sync requests are retried or reissued by their
// senders, but a TLockRel is sent exactly once — dropping it would leave
// the root believing in a holder that believes it released, stranding
// the lock for the rest of the reign (found by seeded schedule
// exploration; see internal/detsim's fence regression scenario). Caller
// holds n.mu.
func (n *Node) fenceQueue(r *rootGroup, m wire.Message) {
	if len(r.fencedQ) >= r.cfg.HistorySize {
		n.emit(obs.EvFencedDrop, r.cfg.ID, int64(m.Type), int64(m.Src))
		if fenceDroppable(m.Type) {
			n.protoErr("gwc: node %d fenced root of group %d dropped %v from %d past queue bound",
				n.id, r.cfg.ID, m.Type, m.Src)
			return
		}
		// Lock-plane arrival at a full queue: evict the oldest parked
		// data message to make room. Replay order among surviving
		// messages is preserved; the evicted update is lost exactly as
		// it would have been had it arrived after the queue filled.
		for i, q := range r.fencedQ {
			if fenceDroppable(q.Type) {
				n.protoErr("gwc: node %d fenced root of group %d evicted parked %v from %d to keep %v from %d",
					n.id, r.cfg.ID, q.Type, q.Src, m.Type, m.Src)
				r.fencedQ = append(r.fencedQ[:i], r.fencedQ[i+1:]...)
				r.fencedQ = append(r.fencedQ, m)
				return
			}
		}
		// Pathological: the queue is all lock-plane traffic already.
		n.protoErr("gwc: node %d fenced root of group %d dropped %v from %d past queue bound (no data to evict)",
			n.id, r.cfg.ID, m.Type, m.Src)
		return
	}
	r.fencedQ = append(r.fencedQ, m)
}

// fenceDroppable classifies parked messages the fence may shed at its
// bound: plain eager updates (an unsequenced write is lost exactly as
// when its carrier frame is dropped) and sync requests (re-sent every
// maintenance tick until answered). Lock requests are also retried by
// their senders, but evicting them would scramble acquisition order for
// no gain — queue pressure comes from update floods.
func fenceDroppable(t wire.Type) bool {
	return t == wire.TUpdate || t == wire.TSyncReq
}

// checkFence runs the root's lease each maintenance tick: count the
// members heard from within failAfter (plus the root itself) and fence
// the reign when they are fewer than a quorum; when contact returns,
// unfence and replay the parked traffic in arrival order. Caller holds
// n.mu.
func (n *Node) checkFence(r *rootGroup, now time.Time) {
	reach := 1 // the root itself
	for _, m := range r.cfg.Members {
		if m == n.id {
			continue
		}
		if now.Sub(r.lastHeard[m]) <= n.failAfter {
			reach++
		}
	}
	if reach < r.quorum {
		if !r.fenced {
			r.fenced = true
			r.fencedAt = now
			r.fenceWatch = now
			n.emit(obs.EvFence, r.cfg.ID, int64(reach), int64(r.epoch))
			r.book.recall(now, true)
		}
		return
	}
	if !r.fenced {
		return
	}
	r.fenced = false
	r.fencedAt = time.Time{}
	r.fenceWatch = time.Time{}
	q := r.fencedQ
	r.fencedQ = nil
	n.emit(obs.EvUnfence, r.cfg.ID, int64(len(q)), int64(r.epoch))
	for i := range q {
		n.rootHandle(r, &q[i])
	}
	// Lock handoffs deferred for quorum acks may be grantable again.
	n.serviceQuorum(r)
}

// rootAck folds a member's cumulative acknowledgement into the
// watermark. Caller holds n.mu.
func (n *Node) rootAck(r *rootGroup, src int, seq uint64) {
	if src == n.id || !r.cfg.memberOf(src) {
		return
	}
	if seq > r.ring.seq() {
		// An ack beyond the reign's sequence space is from a confused or
		// rebased sender; clamp it so it cannot inflate the watermark.
		seq = r.ring.seq()
	}
	if seq <= r.acks[src] {
		return
	}
	r.acks[src] = seq
	if n.quorumAcks {
		n.advanceCommit(r)
	}
}

// advanceCommit recomputes the quorum commit watermark and services
// whatever it newly covers. Caller holds n.mu.
func (n *Node) advanceCommit(r *rootGroup) {
	vals := make([]uint64, 0, len(r.cfg.Members))
	for _, m := range r.cfg.Members {
		if m == n.id {
			vals = append(vals, r.ring.seq())
		} else {
			vals = append(vals, r.acks[m])
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	c := vals[r.quorum-1]
	if c <= r.commit {
		return
	}
	r.commit = c
	n.serviceQuorum(r)
}

// serviceQuorum answers sync barriers the commit watermark now covers
// and resumes the lock book, which announces the grants deferred for
// quorum acks. Barriers are answered even while fenced — they refer to a
// prefix a majority already holds, which no election can lose — but the
// book grants nothing until the fence lifts. Caller holds n.mu.
func (n *Node) serviceQuorum(r *rootGroup) {
	if len(r.waitSyncs) > 0 {
		keep := r.waitSyncs[:0]
		for _, b := range r.waitSyncs {
			if r.commit < b.needSeq {
				keep = append(keep, b)
				continue
			}
			n.send(b.src, n.rootHdr(r).SyncAck(b.token))
		}
		r.waitSyncs = keep
	}
	r.book.resume()
}

// rootSyncReq answers (or defers) a member's durability barrier: the
// matching TSyncAck means everything the root sequenced before the
// request is committed. Without SetQuorumAcks that is immediate — the
// FIFO link already guarantees the member's earlier writes were
// sequenced first — and with it the answer waits for the quorum
// watermark. Caller holds n.mu.
func (n *Node) rootSyncReq(r *rootGroup, m *wire.Message) {
	src, tok := int(m.Src), m.Ticket()
	for _, b := range r.waitSyncs {
		if b.src == src && b.token == tok {
			return // retry of a barrier already pending
		}
	}
	if !n.quorumAcks || r.commit >= r.ring.seq() {
		n.send(src, n.rootHdr(r).SyncAck(tok))
		return
	}
	n.emit(obs.EvSyncParked, r.cfg.ID, int64(src), int64(tok))
	r.waitSyncs = append(r.waitSyncs, syncBarrier{src: src, token: tok, needSeq: r.ring.seq()})
}
