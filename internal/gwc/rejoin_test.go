package gwc

import (
	"testing"
	"time"

	"optsync/internal/transport"
)

// Rejoin edge cases, table-driven over the chaos harness: each case
// crashes node 2 somewhere awkward in the protocol's state space and
// checks that re-admission leaves the group fully functional — locks
// flow, writes converge, and the rejoiner is a first-class member
// again. The detsim harness explores the same territory across seeded
// schedules (RejoinUnderLoad); these pin the named edges in tier 1.
func TestRejoinEdgeCases(t *testing.T) {
	const victim = 2
	cases := []struct {
		name    string
		nodes   int
		guarded bool
		run     func(t *testing.T, c *cluster, fl *transport.Flaky)
	}{
		{
			// The victim dies inside its critical section. Re-admission
			// must free the lock (the section died with its memory), let
			// the blocked waiter in, and still let the rejoiner acquire
			// fresh afterwards.
			name:    "holding the lock",
			nodes:   3,
			guarded: true,
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				if err := c.nodes[victim].Acquire(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
				fl.Crash(victim)
				if err := request(c.nodes[1], tLock); err != nil {
					t.Fatal(err)
				}
				fl.Revive(victim)
				if err := c.nodes[victim].Rejoin(tGroup); err != nil {
					t.Fatal(err)
				}
				if ok, err := waitGrant(c.nodes[1]); err != nil || !ok {
					t.Fatalf("waiter never granted after holder rejoined: ok=%v err=%v", ok, err)
				}
				if err := c.nodes[1].Release(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
				if err := c.nodes[victim].Acquire(tGroup, tLock); err != nil {
					t.Fatalf("rejoiner cannot reacquire: %v", err)
				}
				if err := c.nodes[victim].Release(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The victim dies while queued behind a live holder. Its stale
			// queue entry must be dropped on re-admission — the grant must
			// skip the rejoiner (whose request died with its memory) and
			// the lock must still flow to everyone afterwards.
			name:    "queued behind a holder",
			nodes:   3,
			guarded: true,
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				if err := c.nodes[1].Acquire(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
				if err := request(c.nodes[victim], tLock); err != nil {
					t.Fatal(err)
				}
				waitFor(t, c, 5*time.Second, "the victim to queue", func() bool {
					c.nodes[0].mu.Lock()
					defer c.nodes[0].mu.Unlock()
					return c.nodes[0].roots[tGroup].book.lock(tLock).waiting(victim) >= 0
				})
				fl.Crash(victim)
				fl.Revive(victim)
				if err := c.nodes[victim].Rejoin(tGroup); err != nil {
					t.Fatal(err)
				}
				waitFor(t, c, 5*time.Second, "re-admission", func() bool {
					return c.nodes[victim].Stats().Rejoins >= 1
				})
				if err := c.nodes[1].Release(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
				// The freed lock must be acquirable by anyone — including
				// the rejoiner whose phantom queue entry is gone.
				if err := c.nodes[victim].Acquire(tGroup, tLock); err != nil {
					t.Fatalf("rejoiner cannot acquire after phantom dequeue: %v", err)
				}
				if err := c.nodes[victim].Release(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The victim revives while the cluster is mid-election after a
			// root crash — and with 4 members the quorum gate needs its
			// report, so the election can only finish BECAUSE the rejoiner
			// comes back. The corrective heartbeat of the eventual winner
			// converts the dangling rejoin into epoch adoption.
			name:    "racing an election",
			nodes:   4,
			guarded: false,
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				if err := c.nodes[1].Write(tGroup, tVar, 1); err != nil {
					t.Fatal(err)
				}
				for _, n := range c.nodes {
					waitValue(t, n, tVar, 1)
				}
				fl.Crash(victim)
				fl.Crash(0)
				waitFor(t, c, 10*time.Second, "the election to begin", func() bool {
					return c.nodes[1].Stats().Elections >= 1 || c.nodes[3].Stats().Elections >= 1
				})
				fl.Revive(victim)
				if err := c.nodes[victim].Rejoin(tGroup); err != nil {
					t.Fatal(err)
				}
				waitFor(t, c, 10*time.Second, "the quorum-gated failover", func() bool {
					return c.nodes[1].Stats().Failovers >= 1 || c.nodes[3].Stats().Failovers >= 1
				})
				if err := c.nodes[1].Write(tGroup, tVarB, 5); err != nil {
					t.Fatal(err)
				}
				waitValue(t, c.nodes[victim], tVarB, 5)
				waitValue(t, c.nodes[victim], tVar, 1)
			},
		},
		{
			// Rejoin called twice back to back (a restart loop, or an
			// operator retrying). The second handshake must not corrupt
			// the first's re-based state or wedge the ack plumbing.
			name:    "double rejoin",
			nodes:   3,
			guarded: false,
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				if err := c.nodes[1].Write(tGroup, tVar, 1); err != nil {
					t.Fatal(err)
				}
				for _, n := range c.nodes {
					waitValue(t, n, tVar, 1)
				}
				fl.Crash(victim)
				if err := c.nodes[1].Write(tGroup, tVar, 2); err != nil {
					t.Fatal(err)
				}
				waitValue(t, c.nodes[0], tVar, 2)
				fl.Revive(victim)
				if err := c.nodes[victim].Rejoin(tGroup); err != nil {
					t.Fatal(err)
				}
				if err := c.nodes[victim].Rejoin(tGroup); err != nil {
					t.Fatal(err)
				}
				waitValue(t, c.nodes[victim], tVar, 2)
				waitFor(t, c, 5*time.Second, "re-admission on both ends", func() bool {
					return c.nodes[victim].Stats().Rejoins >= 1 && c.nodes[0].Stats().Rejoins >= 1
				})
				// Still a full citizen: its writes sequence and converge.
				if err := c.nodes[victim].Write(tGroup, tVarB, 7); err != nil {
					t.Fatal(err)
				}
				for _, n := range c.nodes {
					waitValue(t, n, tVarB, 7)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, fl := newChaosCluster(t, tc.nodes, tc.guarded)
			tc.run(t, c, fl)
		})
	}
}
