package gwc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/transport"
	"optsync/internal/wire"
)

// newChaosCluster builds a cluster over a fault-injectable network with
// failover timers tightened for tests.
func newChaosCluster(t *testing.T, n int, guarded bool) (*cluster, *transport.Flaky) {
	t.Helper()
	inner, err := transport.NewInProc(n)
	if err != nil {
		t.Fatal(err)
	}
	return newChaosClusterOver(t, inner, guarded)
}

func newChaosClusterOver(t *testing.T, inner transport.Network, guarded bool) (*cluster, *transport.Flaky) {
	t.Helper()
	fl := transport.NewFlaky(inner, transport.FaultPlan{})
	c := newCluster(t, fl, guarded)
	for _, nd := range c.nodes {
		nd.SetTimers(10*time.Millisecond, 60*time.Millisecond, 30*time.Millisecond)
	}
	return c, fl
}

// waitFor blocks until cond holds or the deadline passes. Instead of
// busy-polling wall time, it subscribes one wake-up channel to every
// node's event tracer — each protocol transition (grant, fence, reign
// change, ...) re-checks the condition immediately — with a coarse
// fallback ticker for state changes that emit no event. On timeout the
// failure includes each node's recent trace so the stall is debuggable.
func waitFor(t *testing.T, c *cluster, d time.Duration, what string, cond func() bool) {
	t.Helper()
	wake := make(chan struct{}, 1)
	for _, nd := range c.nodes {
		defer nd.Metrics().Trace.SubscribeChan(wake)()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for {
		if cond() {
			return
		}
		select {
		case <-wake:
		case <-tick.C:
		case <-deadline.C:
			var traces strings.Builder
			for i, nd := range c.nodes {
				ev := nd.Metrics().Trace.Snapshot()
				if len(ev) > 8 {
					ev = ev[len(ev)-8:]
				}
				fmt.Fprintf(&traces, "\nnode %d: %s", i, obs.Format(ev))
			}
			t.Fatalf("timed out waiting for %s%s", what, traces.String())
		}
	}
}

// waitAdopted waits until a member has switched to the given root. Writes
// are fire-once up-messages, so a test must not write through a member
// that may still be addressing the deposed root.
func waitAdopted(t *testing.T, c *cluster, n *Node, root int) {
	t.Helper()
	waitFor(t, c, 5*time.Second, "member to adopt the new root", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.groups[tGroup].rootID == root
	})
}

func TestRootFailoverElectsLowestSurvivor(t *testing.T) {
	c, fl := newChaosCluster(t, 4, false)
	if err := c.nodes[2].Write(tGroup, tVar, 41); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 41)
	}

	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to promote itself", func() bool {
		return c.nodes[1].Stats().Failovers == 1
	})

	// The group keeps working under the new root, and pre-crash state
	// survived the reconstruction.
	waitAdopted(t, c, c.nodes[3], 1)
	if err := c.nodes[3].Write(tGroup, tVarB, 7); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes[1:] {
		waitValue(t, n, tVarB, 7)
		waitValue(t, n, tVar, 41)
	}
	if f := c.nodes[2].Stats().Failovers + c.nodes[3].Stats().Failovers; f != 0 {
		t.Errorf("non-candidate nodes promoted themselves %d times", f)
	}
}

func TestFailoverPreservesLockHolderAndQueue(t *testing.T) {
	c, fl := newChaosCluster(t, 4, true)
	if err := c.nodes[2].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[3].SendLockRequest(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, "node 3 to queue at the root", func() bool {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].roots[tGroup].lock(tLock).queued(3)
	})

	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to promote itself", func() bool {
		return c.nodes[1].Stats().Failovers == 1
	})
	// The new root must see node 2 as holder (no double grant).
	c.nodes[1].mu.Lock()
	holder := soleNode(c.nodes[1].roots[tGroup].lock(tLock))
	c.nodes[1].mu.Unlock()
	if holder != 2 {
		t.Fatalf("reconstructed holder = %d, want 2", holder)
	}

	// Once the holder has adopted the new reign, its release must hand
	// the lock to the queued waiter.
	waitAdopted(t, c, c.nodes[2], 1)
	if err := c.nodes[2].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	ok, err := waitGrant(c.nodes[3])
	if err != nil || !ok {
		t.Fatalf("queued waiter never granted after failover: ok=%v err=%v", ok, err)
	}
	if err := c.nodes[3].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
}

// firstWordNet goes under the fault injector. Once armed for a node it
// drops every frame addressed to that node — held back as a one-way
// partition would — until the node has sent a frame of its own: whatever
// the node still believes, it gets to say it before anyone corrects it.
type firstWordNet struct {
	transport.Network
	held atomic.Int32 // the node whose inbound traffic is held back, or -1
}

func (f *firstWordNet) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := f.Network.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &firstWordEndpoint{Endpoint: ep, net: f, id: id}, nil
}

type firstWordEndpoint struct {
	transport.Endpoint
	net *firstWordNet
	id  int
}

func (e *firstWordEndpoint) Send(to int, m wire.Message) error {
	held := int(e.net.held.Load())
	if to == held && e.id != held {
		return nil
	}
	err := e.Endpoint.Send(to, m)
	if e.id == held && to != held {
		e.net.held.Store(-1) // its frame is in the peer's mailbox by now
	}
	return err
}

func TestRevivedOldRootIsDemoted(t *testing.T) {
	inner, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	firstWord := &firstWordNet{Network: inner}
	firstWord.held.Store(-1)
	c, fl := newChaosClusterOver(t, firstWord, false)
	if err := c.nodes[0].Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 1)
	}

	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to promote itself", func() bool {
		return c.nodes[1].Stats().Failovers == 1
	})
	waitAdopted(t, c, c.nodes[2], 1)
	if err := c.nodes[2].Write(tGroup, tVar, 99); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[1], tVar, 99)

	// The last wait below needs the revival itself to put an old-reign
	// frame in front of a new-reign node. Left to the scheduler, the new
	// root's heartbeat can reach node 0 and demote it before its own next
	// tick has sent anything, and then nothing stale ever flows. So node 0
	// speaks first: its own heartbeat, from the reign it still believes
	// in — real traffic, which the new reign must reject by itself.
	firstWord.held.Store(0)
	fl.Revive(0)
	waitFor(t, c, 5*time.Second, "the revived root to stand down", func() bool {
		return c.nodes[0].Stats().Demotions == 1
	})
	// The deposed root resyncs to the new reign's state instead of
	// splitting the group.
	waitValue(t, c.nodes[0], tVar, 99)
	waitFor(t, c, 5*time.Second, "stale-epoch traffic to be rejected", func() bool {
		total := 0
		for _, n := range c.nodes {
			total += n.Stats().StaleEpochRejected
		}
		return total > 0
	})
}

func TestAcquireContextExpiredReturnsPromptly(t *testing.T) {
	c := newInProcCluster(t, 2, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := c.nodes[1].AcquireContext(ctx, tGroup, tLock)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireContext with dead context = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("AcquireContext took %v with an expired context", d)
	}
}

func TestCancelWhileQueuedLeavesNoPhantom(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c := newInProcCluster(t, 3, true)
		if err := c.nodes[2].EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if err := c.nodes[1].EnterSessionContext(ctx, tGroup, tLock, k.session); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("AcquireContext = %v, want context.DeadlineExceeded", err)
		}
		if err := c.nodes[2].Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		// The cancelled waiter must not inherit the lock: the root's queue
		// entry was withdrawn, so the release frees the lock outright.
		waitFor(t, c, 5*time.Second, "the lock to come to rest free", func() bool {
			c.nodes[0].mu.Lock()
			ls := c.nodes[0].roots[tGroup].lock(tLock)
			free, qlen := ls.free(), len(ls.queue)
			c.nodes[0].mu.Unlock()
			return free && qlen == 0
		})
		// And the waiter's local copy agrees.
		waitFor(t, c, 5*time.Second, "node 1's local lock copy to read free", func() bool {
			v, err := c.nodes[1].LockValue(tGroup, tLock)
			return err == nil && v == Free
		})
	})
}

func TestAcquireContextGrantRaceReleases(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		// A cancellation that loses the race with the grant must hand the
		// lock back rather than keep it; later acquirers proceed normally.
		c := newInProcCluster(t, 3, true)
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*time.Millisecond)
			err := c.nodes[1].EnterSessionContext(ctx, tGroup, tLock, k.session)
			cancel()
			if err == nil {
				if err := c.nodes[1].Release(tGroup, tLock); err != nil {
					t.Fatal(err)
				}
			} else if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("AcquireContext = %v", err)
			}
		}
		// Whatever the races did, the lock must still be acquirable.
		if err := c.nodes[2].EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		if err := c.nodes[2].Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
	})
}
