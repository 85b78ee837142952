package gwc

// State integrity and anti-entropy (the memory-plane generalization of
// PR 5's lock-plane cross-checks).
//
// Wire checksums catch corruption in flight, but nothing so far caught
// a member whose committed state silently rotted after decode — bad
// RAM, a buggy re-base, an apply-path fault. This file closes that
// gap with a root-driven digest sweep:
//
//   - Every sequenced data apply folds its (var, seq, value) triple
//     into an order-insensitive digest (internal/integrity), on the
//     member in applySeq and on the root in multicast. The root also
//     checkpoints its cumulative digest at every sequence number in a
//     ring parallel to the retransmission history.
//
//   - Every integrityEvery, the root multicasts TDigestReq carrying
//     its digest at the current watermark (r.ring.seq()).
//     A member that is exactly at the watermark compares on the spot;
//     any member answers TDigestAck with its own applied position and
//     digest, which the root compares against the checkpoint ring —
//     so laggards are checked at *their* watermark, without replay.
//
//   - A mismatch (found by either side) marks the member diverged:
//     Divergences counts it, EvDivergence traces it, Health/ReadStale
//     refuse to serve from the copy, and repair re-drives the member
//     through the existing snapshot catch-up path — the root sends a
//     repair directive (wire's Repair frame) followed by a snapshot
//     stream; TSnapDone carries the root's digest so the member
//     re-anchors (integrity.Digest.Rebase) and clears diverged.
//
// The sweep only ever compares committed sequenced state, so it also
// runs while the root is fenced. It detects accidental divergence, not
// Byzantine members — same failure model as the rest of the stack.

import (
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// sweepDigests initiates one anti-entropy round per integrityEvery:
// the root sends every member its digest at the current sequence
// watermark. Piggybacked on the maintenance tick like the heartbeat.
// Caller holds n.mu.
func (n *Node) sweepDigests(r *rootGroup, now time.Time) {
	if n.integrityEvery <= 0 || now.Sub(r.lastSweep) < n.integrityEvery {
		return
	}
	r.lastSweep = now
	n.emit(obs.EvDigestSweep, r.cfg.ID, int64(r.ring.seq()), 0)
	probe := n.rootHdr(r).DigestReq(r.ring.seq(), r.digest.Sum())
	for _, member := range r.cfg.Members {
		if member == n.id {
			continue
		}
		n.send(member, probe)
	}
}

// markDiverged convicts the member's local copy and starts its repair:
// the copy is quarantined (Health/ReadStale) and a snapshot re-base is
// requested through the same path a rejoining member uses. Idempotent
// while a repair is already underway. Caller holds n.mu.
func (n *Node) markDiverged(g *memberGroup, watermark uint64) {
	if !g.diverged {
		g.diverged = true
		n.emit(obs.EvDivergence, g.cfg.ID, int64(n.id), int64(watermark))
	}
	if g.snapWanted {
		return // corrective snapshot already on its way
	}
	g.snapWanted = true
	g.snapBuf = nil
	g.snapB.reset()
	n.send(g.rootID, n.hdr(g).SnapReq())
}

// handleDigestReq is the member side of the sweep: act on a repair
// directive, self-check when exactly at the root's watermark, and
// report the local digest so the root can check laggards against its
// checkpoint ring. Caller holds n.mu.
func (n *Node) handleDigestReq(g *memberGroup, m *wire.Message) {
	if m.Epoch != g.epoch || int(m.Src) != g.rootID {
		if m.Epoch > g.epoch {
			// A reign we have not adopted yet; its heartbeat semantics
			// apply (the snapshot request doubles as our reply).
			n.adoptEpoch(g, m.Epoch, int(m.Src))
			return
		}
		n.emit(obs.EvStaleEpoch, g.cfg.ID, int64(m.Type), int64(m.Epoch))
		n.maybeNotice(g, int(m.Src))
		return
	}
	g.lastRoot = n.clock.Now()
	if m.Repair() {
		// Repair directive: the root compared our ack and found it
		// diverged; a corrective snapshot follows on this same link.
		n.markDiverged(g, m.Seq)
		return
	}
	if g.snapWanted || g.rejoining || g.electing {
		// Mid-resync the digest is not a statement about any watermark;
		// stay silent and let the next sweep check the re-based copy.
		return
	}
	applied := g.nextSeq - 1
	if applied == m.Seq && g.digest.Sum() != m.Digest() {
		// Self-detected divergence: repair without waiting for the
		// root's verdict on an ack round trip.
		n.markDiverged(g, m.Seq)
		return
	}
	n.send(g.rootID, n.hdr(g).DigestAck(applied, g.digest.Sum()))
}

// rootDigestAck compares a member's digest report against the reign's
// checkpoint ring at the member's own applied watermark. On mismatch
// the root emits the divergence, sends a repair directive, and
// re-drives the member through the snapshot path. Caller holds n.mu.
func (n *Node) rootDigestAck(r *rootGroup, m *wire.Message) {
	src := int(m.Src)
	if src == n.id || !r.cfg.memberOf(src) {
		return
	}
	seq := m.Seq
	if seq > r.ring.seq() {
		return // claims state from the future; let retries converge
	}
	var want uint64
	if seq != 0 { // the empty state digests to zero
		s := r.ring.slot(seq)
		if s == nil {
			return // watermark fell out of the checkpoint window; next sweep
		}
		want = s.digest
	}
	if m.Digest() == want {
		return
	}
	n.emit(obs.EvDivergence, r.cfg.ID, int64(src), int64(seq))
	// Directive first, snapshot second: FIFO links deliver the verdict
	// (which quarantines the copy) before the stream that repairs it.
	n.send(src, n.rootHdr(r).Repair(seq, want))
	n.rootSnapSend(r, src)
}

// DigestState reports a member's integrity digest, the sequence
// watermark it covers (highest contiguously applied), and whether the
// copy is currently convicted as diverged. Intended for tests and
// operational inspection; the sweep itself never calls it. The sum is 0
// on a node that does not sweep (SetIntegrity), which folds nothing.
func (n *Node) DigestState(gid GroupID) (sum uint64, applied uint64, diverged bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, gerr := n.group(gid)
	if gerr != nil {
		return 0, 0, false, gerr
	}
	return g.digest.Sum(), g.nextSeq - 1, g.diverged, nil
}
