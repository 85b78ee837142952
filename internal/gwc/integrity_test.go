package gwc

import (
	"fmt"
	"testing"
	"time"
)

// TestDigestFoldsOnlyWhileSweeping pins when the integrity digests fold:
// a node folds a sequenced write into its digest only while its sweep
// interval is set. With sweeps off, the default, the root's and every
// member's digest stay zero however many writes the group carries, so the
// data path pays nothing for a mode that is off. With SetIntegrity made at
// set-up on every node, the sums are non-zero and agree at the watermark,
// and a sweep finds no divergence.
func TestDigestFoldsOnlyWhileSweeping(t *testing.T) {
	const writes = 40
	for _, every := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("every=%v", every), func(t *testing.T) {
			c := newInProcCluster(t, 3, false)
			if every > 0 {
				// An hour: no tick sweeps on its own, the test starts the one sweep.
				for _, nd := range c.nodes {
					nd.SetIntegrity(every)
				}
			}
			for i := int64(1); i <= writes; i++ {
				if err := c.nodes[1].Write(tGroup, tVar, i); err != nil {
					t.Fatal(err)
				}
				if err := c.nodes[0].Write(tGroup, tVarB, i); err != nil {
					t.Fatal(err)
				}
			}
			for _, nd := range c.nodes {
				waitValue(t, nd, tVar, writes)
				waitValue(t, nd, tVarB, writes)
			}

			root := c.nodes[0]
			root.mu.Lock()
			r := root.roots[tGroup]
			rootSum, watermark := r.digest.Sum(), r.ring.seq()
			root.mu.Unlock()
			if watermark != 2*writes {
				t.Fatalf("root sequenced %d messages, want %d", watermark, 2*writes)
			}
			if every == 0 && rootSum != 0 {
				t.Errorf("sweeps off: root digest %#x, want 0", rootSum)
			}
			if every > 0 && rootSum == 0 {
				t.Errorf("sweeps on: root digest is 0 after %d writes", 2*writes)
			}
			for i, nd := range c.nodes {
				sum, applied, diverged, err := nd.DigestState(tGroup)
				if err != nil {
					t.Fatal(err)
				}
				if applied != watermark || diverged {
					t.Errorf("node %d: applied %d diverged=%v, want %d and false", i, applied, diverged, watermark)
				}
				if sum != rootSum {
					t.Errorf("node %d: digest %#x, root's %#x", i, sum, rootSum)
				}
			}
			if every == 0 {
				return
			}

			// One sweep. A marker write queues behind each probe, so a member
			// that applied it has answered the probe; its Sync request then
			// queues behind that answer at the root, so once Sync returns
			// the root has compared it.
			root.mu.Lock()
			root.sweepDigests(r, r.lastSweep.Add(every))
			root.mu.Unlock()
			if err := root.Write(tGroup, tVarB, writes+1); err != nil {
				t.Fatal(err)
			}
			for _, nd := range c.nodes[1:] {
				waitValue(t, nd, tVarB, writes+1)
				if err := nd.Sync(tGroup); err != nil {
					t.Fatal(err)
				}
			}
			if got := root.Stats().DigestSweeps; got != 1 {
				t.Errorf("root ran %d sweeps, want 1", got)
			}
			for i, nd := range c.nodes {
				if got := nd.Stats().Divergences; got != 0 {
					t.Errorf("node %d recorded %d divergences, want 0", i, got)
				}
			}
		})
	}
}
