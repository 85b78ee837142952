package gwc

import (
	"time"

	"optsync/internal/obs"
)

// Stuck-operation watchdog.
//
// Adaptive retry (backoff.go) makes individual requests cheap to keep
// alive, but it cannot notice the pathologies where every retry is
// answered and yet nothing progresses: a lock acquisition whose grants
// keep bouncing, a reign fenced for a whole epoch, a grant parked on a
// quorum watermark that will never advance, a holderless lock whose
// queued waiters are all token-0 failover ghosts. The watchdog
// cross-checks every in-flight control-plane operation against a
// liveness budget each maintenance tick, and when one is over budget it
// (a) counts and traces the fact — chaos soaks fail the run on any
// watchdog_stuck — and (b) forces the cheapest safe re-drive of the
// operation: a fresh request frame, a schedule reset, one serviceQuorum
// pass. Trips re-stamp the operation's clock, so a stuck operation
// re-fires once per budget, not once per tick.
//
// The budget defaults to 4x the failure-detection deadline: long enough
// that any single failover, fence, or retransmission round resolves
// well inside it, so a trip means something is genuinely wedged.

// watchBudget returns the liveness budget under n.mu.
func (n *Node) watchBudget() time.Duration {
	if n.wdBudget > 0 {
		return n.wdBudget
	}
	return 4 * n.failAfter
}

// SetWatchdog tunes the stuck-operation liveness budget. Zero keeps the
// current setting (default 4x the failure-detection deadline).
func (n *Node) SetWatchdog(budget time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if budget > 0 {
		n.wdBudget = budget
	}
}

// watchMember cross-checks the member side's other in-flight operations:
// the rejoin handshake and pending sync barriers. Runs before the
// maintenance tick's re-sends, so a schedule reset it performs takes
// effect within the same tick. Caller holds n.mu.
func (n *Node) watchMember(gid GroupID, g *memberGroup, now time.Time) {
	budget := n.watchBudget()
	if g.rejoining && !g.rejoinBegan.IsZero() && now.Sub(g.rejoinBegan) >= budget {
		g.rejoinBegan = now
		n.emit(obs.EvWatchdogStuck, gid, obs.WatchRejoin, int64(g.joinToken))
		n.emit(obs.EvWatchdogReissue, gid, obs.WatchRejoin, int64(g.joinToken))
		// Restart the handshake's schedule; the tick's rejoin branch
		// re-sends immediately.
		g.joinB.reset()
	}
	for _, tok := range sortedKeys(g.syncPending) {
		sw := g.syncPending[tok]
		if sw.since.IsZero() || now.Sub(sw.since) < budget {
			continue
		}
		sw.since = now
		n.emit(obs.EvWatchdogStuck, gid, obs.WatchSync, int64(tok))
		n.emit(obs.EvWatchdogReissue, gid, obs.WatchSync, int64(tok))
		sw.bo.reset()
	}
}

// watchRoot cross-checks a reign's lock manager and fencing lease: a
// fence held past budget, a grant parked on the quorum watermark past
// budget, and a holderless lock with waiters queued past budget (the
// lock trips are the book's: lockBook.watch). They share one
// serviceQuorum re-run — the cheapest safe
// re-drive, since it re-evaluates every parked grant and holderless
// queue against the current watermark. Caller holds n.mu.
func (n *Node) watchRoot(gid GroupID, r *rootGroup, now time.Time) {
	budget := n.watchBudget()
	if r.fenced && !r.fenceWatch.IsZero() && now.Sub(r.fenceWatch) >= budget {
		// Re-stamp the watchdog's own clock, never fencedAt: the degraded
		// read path measures staleness from the start of the fence, and a
		// trip must not shrink that bound.
		r.fenceWatch = now
		n.emit(obs.EvWatchdogStuck, gid, obs.WatchFence, int64(r.epoch))
		// No re-drive: only member contact (or deposition) lifts a fence,
		// and unfencing without quorum would defeat partition safety. The
		// trip is pure observability — degraded reads and /healthz key off
		// the fence itself.
	}
	if r.book.watch(now, budget) {
		n.serviceQuorum(r)
	}
}
