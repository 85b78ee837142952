package detsim

import (
	"fmt"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/model"
)

// Lock-lease scenarios (gwc's lease.go): the lease lifecycle raced
// against expiry and a root failover, and a convoy whose grants keep
// leasing and recalling the lock under contention. Both run the live
// stack under the deterministic scheduler, so lease TTLs, revoke demands
// and returns replay bit-identically from the seed.

// holders counts the nodes whose local lock copy says they hold the
// lock themselves. A leased idle holder legitimately keeps its copy
// self-granted (that is what makes re-entry local), so the invariant
// is about the count, not about zero: the root never leases or grants
// to a second node before the first copy is re-pointed or returned — so
// at quiescence in a fault-free run this never exceeds one.
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
			w2 := &worker{env: e, node: 2, obs: []int{1, 3}, minObs: 2, hold: holdPoll, checker: checker}
			w3 := &worker{env: e, node: 3, obs: []int{1, 2}, minObs: 2, hold: holdPoll, checker: checker}

			// Phase 1: the lone worker gets the lock leased and re-enters
			// locally — the fast path must actually engage before the
			// scenario starts tearing it down.
			if err := drive(e, []*worker{w2}, 80000, "leased local re-acquire", func() bool {
				return e.Node(2).Stats().LeaseLocal >= 1 && w2.acked >= 1
			}); err != nil {
				return err
			}

			// Phase 2: contention. The rival's request forces the root to
			// demand the lease back; the churn interleaves grants, revokes,
			// returns, and (seed-depending) TTL expiries.
			ws := []*worker{w2, w3}
			if err := drive(e, ws, 80000, "increments under lease churn", func() bool {
				return totalAcked(ws) >= 3
			}); err != nil {
				return err
			}

			// Phase 3: crash the root a seed-chosen distance in, so the
			// reign ends with the lease machinery in a seed-chosen state.
			if err := drive(e, ws, e.Rand().Intn(80), "the crash point", nil); err != nil {
				return err
			}
			e.Crash(0)
			if err := drive(e, ws, 120000, "failover to node 1", func() bool {
				return e.Node(1).Stats().Failovers >= 1
			}); err != nil {
				return err
			}
			e.Revive(0)
			if err := drive(e, ws, 120000, "post-failover increments", func() bool {
				return totalAcked(ws) >= 5
			}); err != nil {
				return err
			}

			final, err := windDown(e, ws, []int{0, 1, 2, 3})
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
			return nil
		},
	}
}

// LeaseConvoy: 5 nodes, no faults, three convoy workers beating on one
// lock with confirmed sections (a positive hold), leases on. A grant with
// nobody queued behind it leases the lock; the next request makes the
// root demand it back, and the leaseholder returns it, so the lock keeps
// changing hands through the root's queue with leases coming and going.
// Invariants, checked at every quiescent point and at the drained end:
// never two self-believed exclusive holders, and the counter history
// must linearize, which a double grant or a lost section would break.
// The run is not vacuous: the root demanded a lease back and had one
// returned, and it took back no more leases than it gave.
func LeaseConvoy() Scenario {
	return Scenario{
		Name:  "lease-convoy",
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
			var ws []*worker
			for _, id := range []int{1, 2, 3} {
				ws = append(ws, &worker{
					env: e, node: id, obs: stable[id], minObs: 2,
					hold: 20 + e.Rand().Intn(40), checker: checker,
				})
			}
			e.inv = func() error {
				if h := holders(e); h > 1 {
					return fmt.Errorf("%d nodes believe they hold the exclusive lock", h)
				}
				return nil
			}
			stat := func(f func(gwc.Stats) int) int { return sumStats(e, f) }
			if err := drive(e, ws, 400000, "convoy increments with a lease recalled", func() bool {
				return totalAcked(ws) >= 9 && stat(func(s gwc.Stats) int { return s.LeaseReturns }) >= 1
			}); err != nil {
				return err
			}
			final, err := windDown(e, ws, []int{0, 1, 2, 3, 4})
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("convoy history (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			grants := stat(func(s gwc.Stats) int { return s.LeaseGrants })
			revokes := stat(func(s gwc.Stats) int { return s.LeaseRevokes })
			returns := stat(func(s gwc.Stats) int { return s.LeaseReturns })
			if revokes < 1 || returns < 1 {
				return fmt.Errorf("the root demanded %d leases back and had %d returned; the lease path never ran", revokes, returns)
			}
			if returns > grants {
				return fmt.Errorf("the root took back %d leases but gave only %d", returns, grants)
			}
			if f := stat(func(s gwc.Stats) int { return s.Failovers + s.Elections }); f != 0 {
				return fmt.Errorf("fault-free convoy run saw %d failovers/elections", f)
			}
			return nil
		},
	}
}
