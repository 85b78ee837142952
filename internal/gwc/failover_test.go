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
	if err := request(c.nodes[3], tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, "node 3 to queue at the root", func() bool {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].roots[tGroup].book.lock(tLock).waiting(3) >= 0
	})

	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to promote itself", func() bool {
		return c.nodes[1].Stats().Failovers == 1
	})
	// The new root must see node 2 as holder (no double grant).
	c.nodes[1].mu.Lock()
	holder := soleNode(c.nodes[1].roots[tGroup].book.lock(tLock))
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
			ls := c.nodes[0].roots[tGroup].book.lock(tLock)
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

// TestStaleEpochRejectionsAreEvents feeds a deposed root's frames to the
// new reign at every place one is turned away — the root's own path, a
// member's heartbeat, batch and snapshot handlers — and checks each one
// is an EvStaleEpoch event, so the event count and Stats agree.
func TestStaleEpochRejectionsAreEvents(t *testing.T) {
	c, fl := newChaosCluster(t, 3, false)
	c.nodes[0].mu.Lock()
	old := wire.Hdr{Group: uint32(tGroup), Src: 0, Epoch: c.nodes[0].groups[tGroup].epoch}
	c.nodes[0].mu.Unlock()
	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to promote itself", func() bool {
		return c.nodes[1].Stats().Failovers == 1
	})
	waitAdopted(t, c, c.nodes[2], 1)

	c.nodes[1].deliver([]wire.Message{old.Update(uint32(tVar), 5)})
	c.nodes[2].deliver([]wire.Message{
		old.Heartbeat(0, 0),
		old.Batch([]wire.Message{old.Update(uint32(tVar), 5), old.Update(uint32(tVarB), 6)}),
		old.SnapVar(1, uint32(tVar), 5),
	})
	for i, want := range map[int]int{1: 1, 2: 3} {
		nd := c.nodes[i]
		got := nd.Stats().StaleEpochRejected
		if events := nd.Metrics().Snapshot().Events[obs.EvStaleEpoch]; events != uint64(got) {
			t.Errorf("node %d: %d stale-epoch events, Stats counts %d", i, events, got)
		}
		if got < want {
			t.Errorf("node %d rejected %d stale frames, want at least %d", i, got, want)
		}
	}
}

// TestFailoverReplaysTheHoldersSection: node 2 enters, stores x = 6 and
// releases, and both frames die on the link to the root, which then
// crashes with node 3 queued for the lock. The election's majority is
// {1, 2, 3}, with node 2 a frame behind the others — a shape in which a
// vote over the reported copies loses the store. The new reign replays
// what node 2 sent instead: the store is sequenced once, before the
// release hands the lock to node 3, which reads 6. The new reign's
// snapshot then answers node 2's store, so node 2 stops re-shipping it,
// and a late copy of it drops at the new root as a duplicate rather than
// landing after node 3's write.
func TestFailoverReplaysTheHoldersSection(t *testing.T) {
	const other VarID = 20 // unguarded: the frame node 2 misses
	c, fl, tap := newTapCluster(t, 5)
	n1, n2, n3 := c.nodes[1], c.nodes[2], c.nodes[3]
	if err := n1.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := n1.Write(tGroup, tVar, 5); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.nodes {
		waitValue(t, nd, tVar, 5)
	}
	if err := n2.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	done := acquireAsync(n3, tLock)
	waitFor(t, c, 5*time.Second, "node 3 queued at the root", func() bool {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].roots[tGroup].book.lock(tLock).waiting(3) >= 0
	})
	tap.filter(func(from, to int, m *wire.Message) bool {
		switch {
		case to == 2 && m.Type == wire.TSeqUpdate && VarID(m.Var) == other:
			return true // node 2 stays a frame behind
		case from == 2 && to == 0:
			return m.Type == wire.TUpdate || m.Type == wire.TLockRel // the section dies with the root
		case from == 4 && to == 1:
			// Node 4's report never arrives: the majority is {1, 2, 3}.
			return m.Type == wire.TSnapVar || m.Type == wire.TSnapLock || m.Type == wire.TSnapDone
		}
		return false
	})
	if err := c.nodes[4].Write(tGroup, other, 1); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3, 4} {
		waitValue(t, c.nodes[i], other, 1)
	}
	if err := n2.Write(tGroup, tVar, 6); err != nil {
		t.Fatal(err)
	}
	if err := n2.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to promote itself", func() bool {
		return n1.Stats().Failovers == 1
	})
	waitAcquired(t, done, "node 3's Acquire across the failover")
	if x, _ := n3.Read(tGroup, tVar); x != 6 {
		t.Fatalf("node 3 entered the new reign reading x = %d, want node 2's 6", x)
	}
	if err := n3.Write(tGroup, tVar, 7); err != nil {
		t.Fatal(err)
	}
	if err := n3.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	// Node 2 re-shipped its store when it adopted the reign, ahead of the
	// snapshot it asked for, so the snapshot answers the store and node 2
	// stops re-shipping it (settle). A copy the link delivers late, after
	// node 3's 7, drops at the root as the duplicate the replay's nonce
	// makes it: no judge sees it, so nothing is suppressed. Node 2's
	// request follows on the same link, so once node 2 is in, the new root
	// has taken the late copy in.
	waitAdopted(t, c, n2, 1)
	waitFor(t, c, 5*time.Second, "node 2 to apply the new reign's snapshot", func() bool {
		n2.mu.Lock()
		defer n2.mu.Unlock()
		return !n2.groups[tGroup].snapWanted
	})
	n2.mu.Lock()
	mv := n2.groups[tGroup].vars.at(tVar)
	late, out := mv.eagerMsg, mv.eagerOut
	n2.mu.Unlock()
	if out {
		t.Errorf("node 2's store is still out after the snapshot that answered it")
	}
	suppressed := n1.Stats().Suppressed
	late.Epoch = 1
	if err := n2.ep.Send(1, late); err != nil {
		t.Fatal(err)
	}
	if err := n2.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if x, _ := n2.Read(tGroup, tVar); x != 7 {
		t.Errorf("node 2 reads x = %d after node 3 wrote 7: its late store landed again", x)
	}
	if got := n1.Stats().Suppressed; got != suppressed {
		t.Errorf("the new root judged node 2's late store (Suppressed %d -> %d): the replay did not record its nonce", suppressed, got)
	}
	if err := n2.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	n1.mu.Lock()
	defer n1.mu.Unlock()
	r, sixes := n1.roots[tGroup], 0
	for s := uint64(1); s <= r.ring.seq(); s++ {
		if m := &r.ring.slot(s).msg; m.Type == wire.TSeqUpdate && VarID(m.Var) == tVar && m.Val == 6 {
			sixes++
		}
	}
	if sixes != 1 {
		t.Errorf("the new reign sequenced x = 6 %d times, want once", sixes)
	}
}
