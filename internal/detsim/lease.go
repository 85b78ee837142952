package detsim

import (
	"fmt"
	"strings"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/model"
)

// Lock-lease and peer-handoff scenarios (gwc's lease.go): the lease
// lifecycle raced against expiry and a root failover, and the convoy
// handoff chain under contention. Both run the live stack under the
// deterministic scheduler, so lease TTLs, revoke demands, and handoff
// epochs replay bit-identically from the seed.

// holders counts the nodes whose local lock copy says they hold the
// lock themselves. A leased idle holder legitimately keeps its copy
// self-granted (that is what makes re-entry local), so the invariant
// is about the count, not about zero: the root never leases or grants
// to a second node before the first copy is re-pointed or returned,
// and a handoff re-points the releaser's copy before the frame goes
// out — so at quiescence in a fault-free run this never exceeds one.
func holders(e *Env) int {
	n := 0
	for i := 0; i < e.Nodes(); i++ {
		v, _ := e.Node(i).LockValue(simGroup, simLock)
		if v == gwc.GrantValue(i) {
			n++
		}
	}
	return n
}

// sumStats folds one counter across every node.
func sumStats(e *Env, f func(gwc.Stats) int) int {
	n := 0
	for i := 0; i < e.Nodes(); i++ {
		n += f(e.Node(i).Stats())
	}
	return n
}

// leaseWorker is the lease-aware sibling of worker: before shipping a
// lock request it probes TryLeaseEnter — the exact sequence the core
// engine's AcquireContext runs — so a live lease turns the acquire
// into a local decision with zero frames. The probe is mandatory, not
// an optimisation: a leased idle holder's lock copy still reads as
// self-granted, so a worker that only polled LockValue would walk into
// the section without pinning the lease, and a concurrent revoke could
// pull the lock out from under it mid-section.
//
// holdFor > 0 adds a dwell inside the section (wHolding): first until
// the root has applied this worker's stamp, then holdFor more polls so
// the sequenced echoes drain back and the closing section is confirmed
// — the precondition for a direct peer handoff. holdFor == 0 releases
// on the next poll, the plain worker's near-instant section. The dwell
// reads the root's copy directly, so holdFor > 0 is only valid in
// runs that never crash node 0.
type leaseWorker struct {
	env     *Env
	node    int
	obs     []int // stable observer nodes (never this worker)
	minObs  int
	holdFor int
	checker *model.CounterChecker

	state   wState
	stopped bool
	from    int64 // counter value read in the current section
	polls   int   // polls spent in the current state
	acked   int
	aborted int
}

// wHolding extends the worker state space: the extra phase lives
// between grant and release.
const wHolding = wDone + 1

func (w *leaseWorker) stop() {
	w.stopped = true
	if w.state == wWaiting {
		w.env.Node(w.node).CancelLockRequest(simGroup, simLock)
		w.state = wDone
	}
	if w.state == wIdle {
		w.state = wDone
	}
}

func (w *leaseWorker) done() bool { return w.state == wDone }

// enter runs the critical-section writes; the caller already holds the
// lock (granted or leased).
func (w *leaseWorker) enter() {
	n := w.env.Node(w.node)
	t, _ := n.Read(simGroup, simCounter)
	n.Write(simGroup, simCounter, t+1)
	n.Write(simGroup, stampVar(w.node), t+1)
	w.from = t
	w.state = wHolding
	w.polls = 0
}

func (w *leaseWorker) poll() {
	n := w.env.Node(w.node)
	switch w.state {
	case wIdle:
		if w.stopped {
			w.state = wDone
			return
		}
		if n.TryLeaseEnter(simGroup, simLock) {
			w.enter() // leased: straight into the section, zero frames
			return
		}
		n.SendLockRequest(simGroup, simLock)
		w.state = wWaiting
		w.polls = 0
	case wWaiting:
		v, _ := n.LockValue(simGroup, simLock)
		if v != gwc.GrantValue(w.node) {
			return
		}
		w.enter()
	case wHolding:
		if w.holdFor > 0 {
			if v, _ := w.env.Node(0).Read(simGroup, stampVar(w.node)); v < w.from+1 {
				return
			}
			w.polls++
			if w.polls < w.holdFor {
				return
			}
		}
		if err := n.Release(simGroup, simLock); err != nil {
			w.aborted++
			w.state = wIdle
			return
		}
		w.state = wObserving
		w.polls = 0
	case wObserving:
		seen := 0
		for _, o := range w.obs {
			v, _ := w.env.Node(o).Read(simGroup, stampVar(w.node))
			if v >= w.from+1 {
				seen++
			}
		}
		if seen >= w.minObs {
			w.checker.Acked(w.from)
			w.acked++
			w.state = wIdle
			if w.stopped {
				w.state = wDone
			}
			return
		}
		w.polls++
		if w.polls >= observeFor {
			// Never confirmed; the op may or may not have committed, and
			// the checker hears nothing about it.
			w.aborted++
			w.state = wIdle
			if w.stopped {
				w.state = wDone
			}
		}
	}
}

// leaseDrive is drive for leaseWorkers, with an optional per-quiescence
// invariant checked before the predicate.
func leaseDrive(e *Env, ws []*leaseWorker, budget int, what string, inv func() error, pred func() bool) error {
	step := func() error {
		e.w.waitQuiesce()
		for _, w := range ws {
			w.poll()
		}
		if inv != nil {
			if err := inv(); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < budget; i++ {
		if err := step(); err != nil {
			return err
		}
		if pred() {
			return nil
		}
		if err := e.Step(); err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
	}
	if err := step(); err != nil {
		return err
	}
	if pred() {
		return nil
	}
	return fmt.Errorf("%s not reached within %d events", what, budget)
}

// leaseWindDown mirrors windDown for leaseWorkers: stop, drain pending
// observations, wait for the counter to converge on every alive node.
func leaseWindDown(e *Env, ws []*leaseWorker, alive []int, inv func() error) (int64, error) {
	for _, w := range ws {
		w.stop()
	}
	var final int64
	err := leaseDrive(e, ws, 160000, "cluster convergence", inv, func() bool {
		for _, w := range ws {
			if !w.done() {
				return false
			}
		}
		v0, _ := e.Node(alive[0]).Read(simGroup, simCounter)
		for _, i := range alive[1:] {
			v, _ := e.Node(i).Read(simGroup, simCounter)
			if v != v0 {
				return false
			}
		}
		final = v0
		return true
	})
	if err != nil {
		var state []string
		for _, i := range alive {
			v, _ := e.Node(i).Read(simGroup, simCounter)
			s := e.Node(i).Stats()
			state = append(state, fmt.Sprintf(
				"node %d: ctr=%d failovers=%d elections=%d leases=%d/%d/%d local=%d handoffs=%d/%d",
				i, v, s.Failovers, s.Elections,
				s.LeaseGrants, s.LeaseReturns, s.LeaseRevokes,
				s.LeaseLocal, s.Handoffs, s.HandoffCommits))
		}
		for _, w := range ws {
			state = append(state, fmt.Sprintf("worker %d: state=%d acked=%d aborted=%d", w.node, w.state, w.acked, w.aborted))
		}
		err = fmt.Errorf("%w\n  %s", err, strings.Join(state, "\n  "))
	}
	return final, err
}

func leaseAcked(ws []*leaseWorker) int {
	n := 0
	for _, w := range ws {
		n += w.acked
	}
	return n
}

// LeaseExpiryVsFailover: 4 nodes with short seed-chosen lease TTLs. A
// lone worker accrues purely-local re-acquires under its lease; a rival
// then forces the revoke path; and the root crashes at a seed-chosen
// moment mid-churn, so different seeds catch the crash with the lease
// live, expired, revoked-in-flight, or mid-return. The survivors fail
// over (leases die with the reign: idle cached locks must report free
// to the new root, and no reign change may resurrect one), the old
// root revives, and the acknowledged history must still linearize —
// a lease outliving its reign would surface as a double-granted
// section double-counting an increment.
func LeaseExpiryVsFailover() Scenario {
	return Scenario{
		Name:  "lease-expiry-vs-failover",
		Nodes: 4,
		Run: func(e *Env) error {
			ttl := time.Duration(5+e.Rand().Intn(25)) * time.Millisecond
			if _, err := setup(e, clusterCfg{
				history: 128,
				guards:  guardedCfg(e.Nodes()),
				leases:  ttl,
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			// Node 1 stays workload-free: it is the failover successor, and
			// with the root crashed it is also every worker's stable observer.
			w2 := &leaseWorker{env: e, node: 2, obs: []int{1, 3}, minObs: 2, checker: checker}
			w3 := &leaseWorker{env: e, node: 3, obs: []int{1, 2}, minObs: 2, checker: checker}

			// Phase 1: the lone worker gets the lock leased and re-enters
			// locally — the fast path must actually engage before the
			// scenario starts tearing it down.
			if err := leaseDrive(e, []*leaseWorker{w2}, 80000, "leased local re-acquire", nil, func() bool {
				return e.Node(2).Stats().LeaseLocal >= 1 && w2.acked >= 1
			}); err != nil {
				return err
			}

			// Phase 2: contention. The rival's request forces the root to
			// demand the lease back; the churn interleaves grants, revokes,
			// returns, and (seed-depending) TTL expiries.
			ws := []*leaseWorker{w2, w3}
			if err := leaseDrive(e, ws, 80000, "increments under lease churn", nil, func() bool {
				return leaseAcked(ws) >= 3
			}); err != nil {
				return err
			}

			// Phase 3: crash the root a seed-chosen distance in, so the
			// reign ends with the lease machinery in a seed-chosen state.
			for i, k := 0, e.Rand().Intn(80); i < k; i++ {
				e.w.waitQuiesce()
				for _, w := range ws {
					w.poll()
				}
				if err := e.Step(); err != nil {
					return err
				}
			}
			e.Crash(0)
			if err := leaseDrive(e, ws, 120000, "failover to node 1", nil, func() bool {
				return e.Node(1).Stats().Failovers >= 1
			}); err != nil {
				return err
			}
			e.Revive(0)
			if err := leaseDrive(e, ws, 120000, "post-failover increments", nil, func() bool {
				return leaseAcked(ws) >= 5
			}); err != nil {
				return err
			}

			final, err := leaseWindDown(e, ws, []int{0, 1, 2, 3}, nil)
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after lease expiry vs failover (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			// Non-vacuousness: the lease fast path ran, on both sides.
			if g := sumStats(e, func(s gwc.Stats) int { return s.LeaseGrants }); g < 1 {
				return fmt.Errorf("no lease was ever granted (ttl=%v); the scenario tested nothing", ttl)
			}
			if l := sumStats(e, func(s gwc.Stats) int { return s.LeaseLocal }); l < 1 {
				return fmt.Errorf("no re-acquire was ever decided locally (ttl=%v)", ttl)
			}
			// A root never observes more handoffs than members performed;
			// the reverse slack is reign-change evaporation (a notice dying
			// with the deposed root).
			if hc, h := sumStats(e, func(s gwc.Stats) int { return s.HandoffCommits }),
				sumStats(e, func(s gwc.Stats) int { return s.Handoffs }); hc > h {
				return fmt.Errorf("roots committed %d handoffs but members only performed %d", hc, h)
			}
			return nil
		},
	}
}

// HandoffChainConvoy: 5 nodes, no faults, three convoy workers beating
// on one lock with confirmed sections (holdFor dwell). Grants go out
// with waiters queued, so releases should transfer peer-to-peer; the
// root's confirm multicast carries the next hint and the convoy
// chains. Invariants, checked at every quiescent point and at the
// drained end: never two self-believed exclusive holders, and the root
// commits exactly the handoffs the members performed (no reign change
// here to evaporate one) — plus the counter history must linearize,
// which a double grant or a lost section would break.
func HandoffChainConvoy() Scenario {
	return Scenario{
		Name:  "handoff-chain-convoy",
		Nodes: 5,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				history: 256,
				guards:  guardedCfg(e.Nodes()),
				leases:  50 * time.Millisecond,
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			stable := map[int][]int{1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}}
			var ws []*leaseWorker
			for _, id := range []int{1, 2, 3} {
				ws = append(ws, &leaseWorker{
					env: e, node: id, obs: stable[id], minObs: 2,
					holdFor: 20 + e.Rand().Intn(40), checker: checker,
				})
			}
			atMostOneHolder := func() error {
				if h := holders(e); h > 1 {
					return fmt.Errorf("%d nodes believe they hold the exclusive lock", h)
				}
				return nil
			}
			if err := leaseDrive(e, ws, 400000, "convoy increments with chained handoffs", atMostOneHolder, func() bool {
				return leaseAcked(ws) >= 9 && sumStats(e, func(s gwc.Stats) int { return s.HandoffCommits }) >= 2
			}); err != nil {
				return err
			}
			final, err := leaseWindDown(e, ws, []int{0, 1, 2, 3, 4}, atMostOneHolder)
			if err != nil {
				return err
			}
			// A handoff notice may still be in flight when the counter
			// converges (the releaser re-sends it until the root commits),
			// so drain until the two sides of the ledger meet.
			if err := leaseDrive(e, ws, 50000, "handoff ledger to balance", atMostOneHolder, func() bool {
				return sumStats(e, func(s gwc.Stats) int { return s.Handoffs }) ==
					sumStats(e, func(s gwc.Stats) int { return s.HandoffCommits })
			}); err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("convoy history (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			// With no reign change to evaporate a notice, the root observes
			// exactly the transfers the members performed.
			h := sumStats(e, func(s gwc.Stats) int { return s.Handoffs })
			hc := sumStats(e, func(s gwc.Stats) int { return s.HandoffCommits })
			if h != hc {
				return fmt.Errorf("members performed %d handoffs, root committed %d", h, hc)
			}
			if h < 2 {
				return fmt.Errorf("convoy produced only %d handoffs; the chain never formed", h)
			}
			if f := sumStats(e, func(s gwc.Stats) int { return s.Failovers + s.Elections }); f != 0 {
				return fmt.Errorf("fault-free convoy run saw %d failovers/elections", f)
			}
			return nil
		},
	}
}
