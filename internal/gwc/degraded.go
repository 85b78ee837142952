package gwc

import (
	"errors"
	"fmt"
	"time"

	"optsync/internal/obs"
)

// Graceful degradation.
//
// A fenced root and a rootless member (mid-election, mid-rejoin, or
// waiting on a catch-up snapshot) cannot serve writes or locks, but
// their local copies are still the newest state they can prove anything
// about. Rather than blocking every reader behind recovery, ReadStale
// serves the local copy with an explicit staleness bound: the caller
// names the maximum staleness it tolerates, and the read reports how
// stale the copy may actually be — measured from the node's last proof
// of currency (sequenced traffic or a heartbeat from a live reign; the
// start of the fence on a fenced root). Ordinary Read is untouched:
// eagersharing reads are always local, and only callers that opted into
// the bound ever observe degraded data knowingly.

// ErrTooStale marks bounded-staleness reads that failed because the
// local copy's staleness bound exceeds what the caller tolerates.
var ErrTooStale = errors.New("local copy too stale")

// ErrDiverged marks reads refused because an anti-entropy digest
// comparison convicted the local copy (integrity.go): unlike a merely
// stale copy, a diverged one may hold values that were never true at
// any time, so no staleness bound makes it servable. The conviction
// clears when the corrective snapshot re-bases the copy.
var ErrDiverged = errors.New("local copy diverged")

// ReadStale returns the local copy of v along with an upper bound on
// its staleness, serving even while the node is degraded (fenced root,
// electing / rejoining / resyncing member). If maxStale is positive and
// the bound exceeds it, the value is withheld and the error wraps
// ErrTooStale; maxStale <= 0 accepts any staleness. On a healthy node
// the bound is how long ago the current reign last proved itself —
// typically well under the failure-detection deadline — and zero on an
// unfenced root, which is the authority.
func (n *Node) ReadStale(gid GroupID, v VarID, maxStale time.Duration) (int64, time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return 0, 0, err
	}
	if g.diverged {
		// A diverged copy is wrong, not old: staleness bounds do not
		// apply, and the read is refused until the repair snapshot
		// lands.
		return 0, 0, fmt.Errorf("gwc: node %d group %d var %d: %w", n.id, gid, v, ErrDiverged)
	}
	now := n.clock.Now()
	var stale time.Duration
	degraded := false
	if r, isRoot := n.roots[gid]; isRoot {
		if r.fenced {
			degraded = true
			if !r.fencedAt.IsZero() {
				stale = now.Sub(r.fencedAt)
			}
		}
	} else {
		stale = now.Sub(g.lastRoot)
		degraded = g.electing || g.rejoining || g.snapWanted
	}
	if stale < 0 {
		stale = 0
	}
	if maxStale > 0 && stale > maxStale {
		return 0, stale, fmt.Errorf("gwc: node %d group %d var %d stale %v > bound %v: %w",
			n.id, gid, v, stale, maxStale, ErrTooStale)
	}
	if degraded {
		n.stats.DegradedReads++
		n.emit(obs.EvDegradedRead, gid, int64(v), int64(stale))
	}
	return g.varValue(v), stale, nil
}

// Health is a point-in-time summary of the node's ability to serve,
// backing the /healthz endpoint (see WithMetricsAddr in the optsync
// package).
type Health struct {
	Groups        int // groups joined
	Fenced        int // reigns this node roots currently fenced (cannot sequence)
	Electing      int // member groups running a root-failure election
	Rejoining     int // member groups awaiting re-admission
	Syncing       int // member groups awaiting a catch-up snapshot
	Diverged      int // member groups whose copy failed a digest comparison and awaits repair
	WatchdogStuck int // cumulative stuck-operation watchdog trips
}

// Serving reports whether every group this node participates in can
// currently take writes through it: no fenced reign and no member group
// detached from its root. Watchdog trips do not gate serving — they are
// a symptom counter, and the condition that tripped is already
// reflected in the other fields when it affects service.
func (h Health) Serving() bool {
	return h.Fenced == 0 && h.Electing == 0 && h.Rejoining == 0 && h.Syncing == 0 &&
		h.Diverged == 0
}

// Health snapshots the node's serving state under the node mutex, so
// the cut is exactly consistent with Stats.
func (n *Node) Health() Health {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := Health{
		Groups:        len(n.groups),
		WatchdogStuck: n.stats.WatchdogStuck,
	}
	for _, gid := range sortedKeys(n.groups) {
		g := n.groups[gid]
		if r, isRoot := n.roots[gid]; isRoot {
			if r.fenced {
				h.Fenced++
			}
			continue
		}
		switch {
		case g.electing:
			h.Electing++
		case g.rejoining:
			h.Rejoining++
		case g.snapWanted:
			h.Syncing++
		}
		// Divergence is orthogonal to the recovery phases above: the
		// conviction stands (and gates Serving) until the repair
		// snapshot actually lands, whichever phase delivers it.
		if g.diverged {
			h.Diverged++
		}
	}
	return h
}
