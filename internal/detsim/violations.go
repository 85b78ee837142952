package detsim

import (
	"fmt"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/model"
	"optsync/internal/wire"
)

// Violation and regression scenarios. ForgedGrant deliberately breaks
// mutual exclusion to prove the harness detects protocol violations and
// replays them bit-identically from the seed; FenceRegression pins the
// fenced-queue eviction fix in fence.go, which this harness originally
// flushed out.

// ForgedGrant: 3 nodes, an UNGUARDED counter (the root must not
// suppress the duplicate section's writes — the point is to let the
// violation through to the checker). Nodes 1 and 2 both request the
// lock; the scenario rewrites the in-flight grant multicast on the
// root->2 link so node 2 sees itself granted at the same time as node
// 1. Both sections read the same counter value, both commit, both
// acknowledge — a duplicate transition the checker must report on
// every seed.
func ForgedGrant() Scenario {
	return Scenario{
		Name:  "forged-grant",
		Nodes: 3,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{history: 64}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			// Both nodes request; the schedule decides whose request reaches
			// the root first and wins the real grant.
			for _, id := range []int{1, 2} {
				if _, err := request(e.Node(id), 0); err != nil {
					return err
				}
			}
			// Rewrite the loser's copy of the winner's grant multicast into
			// a grant to itself, before every delivery: the scheduler only
			// moves messages when the script steps, so whichever way the
			// race goes, the losing node cannot see the grant unforged.
			forged := 0
			rewrite := func(to, winner int) {
				forged += e.ReplaceInFlight(0, to, func(m *wire.Message) bool {
					if m.Type == wire.TSeqLock && m.Val == gwc.GrantValue(winner) {
						m.Val = gwc.GrantValue(to)
						return true
					}
					return false
				})
			}
			granted := func(id int) bool {
				v, _ := e.Node(id).LockValue(simGroup, simLock)
				return v == gwc.GrantValue(id)
			}
			err := drive(e, nil, 40000, "both nodes in the critical section", func() bool {
				rewrite(2, 1)
				rewrite(1, 2)
				return granted(1) && granted(2)
			})
			if err != nil {
				return err
			}
			if forged == 0 {
				return fmt.Errorf("grant multicast was never intercepted")
			}
			// Two concurrent critical sections: both read the counter, both
			// increment, both release, both believe the op succeeded.
			for _, id := range []int{1, 2} {
				n := e.Node(id)
				t, _ := n.Read(simGroup, simCounter)
				n.Write(simGroup, simCounter, t+1)
				if err := n.Release(simGroup, simLock); err != nil {
					return fmt.Errorf("node %d release: %w", id, err)
				}
				checker.Acked(t)
			}
			var final int64
			err = drive(e, nil, 40000, "counter convergence", func() bool {
				v0, _ := e.Node(0).Read(simGroup, simCounter)
				v1, _ := e.Node(1).Read(simGroup, simCounter)
				v2, _ := e.Node(2).Read(simGroup, simCounter)
				final = v0
				return v0 == v1 && v1 == v2
			})
			if err != nil {
				return err
			}
			// With mutual exclusion intact this would pass; with the forged
			// grant it must not.
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("forged grant detected (final=%d): %w", final, err)
			}
			return nil
		},
	}
}

// FenceRegression pins the fence.go fix: a fenced root whose parking
// queue is full must not shed a lock release (the holder sends it
// exactly once; losing it strands the lock for the rest of the reign).
//
// Node 1 takes the lock, the cluster splits so the root's side {0,1} is
// a minority and the root fences, node 1 floods enough updates to fill
// the bounded fence queue and then releases; the partition heals before
// the majority can finish an election (a long electWait holds it open,
// and seeds where a failover lands anyway are skipped as inconclusive).
// After the fence lifts and replays its queue, node 2 must be able to
// acquire the lock: with the pre-fix drop-anything behavior the release
// is gone, the root believes node 1 still holds the lock, and node 2
// waits forever.
func FenceRegression() Scenario {
	return Scenario{
		Name:  "fence-regression",
		Nodes: 5,
		Run: func(e *Env) error {
			const bound = 4 // fence queue capacity = HistorySize
			if _, err := setup(e, clusterCfg{
				history:   bound,
				electWait: 60 * time.Millisecond,
			}); err != nil {
				return err
			}
			raced := func() bool {
				for i := 0; i < e.Nodes(); i++ {
					if e.Node(i).Stats().Failovers > 0 {
						return true
					}
				}
				return false
			}
			if _, err := request(e.Node(1), 0); err != nil {
				return err
			}
			if err := drive(e, nil, 30000, "node 1 lock grant", func() bool {
				v, _ := e.Node(1).LockValue(simGroup, simLock)
				return v == gwc.GrantValue(1)
			}); err != nil {
				return err
			}
			e.Partition([]int{0, 1}, []int{2, 3, 4})
			if err := drive(e, nil, 60000, "root fenced in the minority", func() bool {
				return e.Node(0).Stats().Fenced >= 1
			}); err != nil {
				return err
			}
			// Fill the fence queue past its bound, then release: the
			// release reaches a full queue and must survive by evicting a
			// parked update.
			for i := 0; i < bound+2; i++ {
				e.Node(1).Write(simGroup, gwc.VarID(10+i), int64(i+1))
			}
			if err := e.Node(1).Release(simGroup, simLock); err != nil {
				return err
			}
			if err := drive(e, nil, 30000, "overflow traffic parked at the fenced root", func() bool {
				return e.Node(0).Stats().FencedDrops >= 3
			}); err != nil {
				return err
			}
			e.Heal()
			if raced() {
				return nil // the majority finished its election first; inconclusive seed
			}
			// The reign survived. Once quorum contact returns the fence
			// replays its queue — including the release — so node 2's
			// acquisition must go through.
			if _, err := request(e.Node(2), 0); err != nil {
				return err
			}
			err := drive(e, nil, 60000, "node 2 lock grant after the fence lifts", func() bool {
				if raced() {
					return true // deposed mid-probe; inconclusive
				}
				v, _ := e.Node(2).LockValue(simGroup, simLock)
				return v == gwc.GrantValue(2)
			})
			if err != nil {
				return fmt.Errorf("lock stranded after fenced-queue overflow (release shed?): %w", err)
			}
			return nil
		},
	}
}
