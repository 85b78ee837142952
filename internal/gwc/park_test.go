package gwc

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/vclock"
	"optsync/internal/wire"
)

// Blocked callers park on one channel and keep no timer or schedule of
// their own; the maintenance tick is the node's one retry engine. These
// tests pin the tick's half of that bargain.

// tapNet shows every frame to a filter on its way out — sender, receiver
// and the frame — and drops the ones the filter claims. It sits above the
// fault injector, so it also sees frames addressed to a crashed node.
type tapNet struct {
	transport.Network
	mu   sync.Mutex
	drop func(from, to int, m *wire.Message) bool
}

func (tn *tapNet) filter(f func(from, to int, m *wire.Message) bool) {
	tn.mu.Lock()
	tn.drop = f
	tn.mu.Unlock()
}

func (tn *tapNet) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := tn.Network.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &tapEndpoint{Endpoint: ep, net: tn, id: id}, nil
}

type tapEndpoint struct {
	transport.Endpoint
	net *tapNet
	id  int
}

func (e *tapEndpoint) Send(to int, m wire.Message) error {
	e.net.mu.Lock()
	drop := e.net.drop != nil && e.net.drop(e.id, to, &m)
	e.net.mu.Unlock()
	if drop {
		return nil
	}
	return e.Endpoint.Send(to, m)
}

// newTapCluster is newChaosCluster with a tap over the fault injector.
func newTapCluster(t *testing.T, n int) (*cluster, *transport.Flaky, *tapNet) {
	t.Helper()
	inner, err := transport.NewInProc(n)
	if err != nil {
		t.Fatal(err)
	}
	fl := transport.NewFlaky(inner, transport.FaultPlan{})
	tap := &tapNet{Network: fl}
	c := newCluster(t, tap, true)
	for _, nd := range c.nodes {
		nd.SetTimers(10*time.Millisecond, 60*time.Millisecond, 30*time.Millisecond)
	}
	return c, fl, tap
}

// acquireAsync runs Acquire on its own goroutine; the channel yields its
// result.
func acquireAsync(n *Node, l LockID) <-chan error { return enterAsync(n, l, 0) }

// enterAsync is acquireAsync for any session.
func enterAsync(n *Node, l LockID, session uint32) <-chan error {
	done := make(chan error, 1)
	go func() { done <- n.EnterSession(tGroup, l, session) }()
	return done
}

func waitAcquired(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the parked Acquire never returned", what)
	}
}

// lockRecord reads lock l's member record on n.
func lockRecord(n *Node, l LockID) memberLock {
	n.mu.Lock()
	defer n.mu.Unlock()
	return *n.groups[tGroup].locks.at(l)
}

// TestDroppedLockRequestRecoversOnTick: the waiter sends its request once
// and parks; when that frame is lost, one tick re-send gets the grant —
// for a waiter on a member and for one on the node that roots the group,
// whose request is a self-send the tick must retry all the same.
func TestDroppedLockRequestRecoversOnTick(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		for _, waiter := range []int{1, 0} {
			c, _, tap := newTapCluster(t, 3)
			for _, nd := range c.nodes {
				nd.SetTimers(20*time.Millisecond, time.Hour, time.Hour)
			}
			var dropped atomic.Int32
			tap.filter(func(from, to int, m *wire.Message) bool {
				return m.Type == wire.TLockReq && from == waiter && dropped.Add(1) == 1
			})
			n := c.nodes[waiter]
			start := time.Now()
			waitAcquired(t, enterAsync(n, tLock, k.session), "Acquire whose request frame was lost")
			if got := n.Stats().LockRequests; got != 2 {
				t.Errorf("waiter on node %d: %d lock requests sent, want 2 (the lost one and one tick re-send)", waiter, got)
			}
			// The re-send is due in [base/2, base] and fires at the first tick
			// at or after that.
			if d := time.Since(start); d < 10*time.Millisecond {
				t.Errorf("waiter on node %d: granted after %v, before any retry could be due", waiter, d)
			}
			if err := n.Release(tGroup, tLock); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestParkedAcquireSurvivesRejoin: Rejoin wipes the member's lock records
// — the outstanding request with them — and the root drops the rejoiner
// from its queues, but the caller parked in Acquire is still there. The
// tick must mint it a fresh request (a new token: the old acquisition is
// gone on both sides) and the caller must get the lock.
func TestParkedAcquireSurvivesRejoin(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c, _, _ := newTapCluster(t, 3)
		holder, n := c.nodes[2], c.nodes[1]
		if err := holder.EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		done := enterAsync(n, tLock, k.session)
		waitFor(t, c, 5*time.Second, "node 1 queued at the root", func() bool {
			c.nodes[0].mu.Lock()
			defer c.nodes[0].mu.Unlock()
			return c.nodes[0].roots[tGroup].lock(tLock).queued(1)
		})
		before := lockRecord(n, tLock)
		if !before.want || before.parked != 1 {
			t.Fatalf("before the rejoin: want=%v parked=%d, expected an outstanding request with one parked caller", before.want, before.parked)
		}
		if err := n.Rejoin(tGroup); err != nil {
			t.Fatal(err)
		}
		if lk := lockRecord(n, tLock); lk.want || lk.parked != 1 {
			t.Fatalf("after the rejoin: want=%v parked=%d, expected the request wiped and the caller still counted", lk.want, lk.parked)
		}
		waitFor(t, c, 5*time.Second, "the re-minted request to queue at the root", func() bool {
			c.nodes[0].mu.Lock()
			defer c.nodes[0].mu.Unlock()
			return n.Stats().Rejoins >= 1 && c.nodes[0].roots[tGroup].lock(tLock).queued(1)
		})
		if err := holder.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		waitAcquired(t, done, "Acquire parked across its node's Rejoin")
		after := lockRecord(n, tLock)
		if after.reqToken <= before.reqToken {
			t.Errorf("request token %d after the rejoin, want a fresh one past %d", after.reqToken, before.reqToken)
		}
		if after.parked != 0 {
			t.Errorf("%d callers still counted as parked after Acquire returned", after.parked)
		}
	})
}

// TestParkedAcquireSurvivesFailover: the root dies under a parked waiter
// on the node that succeeds it. The promotion re-queues the waiter
// token-less, so the first grant of the new reign is declined, and only
// a retry — from the tick, on the node that now roots the group —
// re-registers the live token.
func TestParkedAcquireSurvivesFailover(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c, fl, _ := newTapCluster(t, 4)
		holder, n := c.nodes[2], c.nodes[1]
		if err := holder.EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		done := enterAsync(n, tLock, k.session)
		waitFor(t, c, 5*time.Second, "node 1 queued at the root", func() bool {
			c.nodes[0].mu.Lock()
			defer c.nodes[0].mu.Unlock()
			return c.nodes[0].roots[tGroup].lock(tLock).queued(1)
		})
		fl.Crash(0)
		waitFor(t, c, 5*time.Second, "node 1 to take over the group", func() bool {
			return n.Stats().Failovers == 1
		})
		waitAdopted(t, c, holder, 1)
		if err := holder.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		waitAcquired(t, done, "Acquire parked across a failover onto its own node")
		if err := n.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWaitGEReturnsThroughTheProbeAlone pins that WaitGE needs no timer:
// with a sequenced frame lost and every gap NACK lost too, the tick's
// resync probe — which re-requests everything from the next expected
// sequence number while a gap is open — is what repairs the stream.
func TestWaitGEReturnsThroughTheProbeAlone(t *testing.T) {
	c, _, tap := newTapCluster(t, 3)
	var lostFrames, lostNacks atomic.Int32
	tap.filter(func(from, to int, m *wire.Message) bool {
		switch {
		case m.Type == wire.TSeqUpdate && to == 2 && m.Val == 1:
			return lostFrames.Add(1) == 1 // the multicast, not its retransmission
		case m.Type == wire.TNack && from == 2 && m.Val != math.MaxInt64:
			// A gap NACK names the highest buffered sequence number; the
			// probe of a stalled stream asks for everything.
			lostNacks.Add(1)
			return true
		}
		return false
	})
	got := make(chan error, 1)
	go func() {
		ok, err := c.nodes[2].WaitGE(tGroup, 20, 2)
		if err == nil && !ok {
			err = ErrClosed
		}
		got <- err
	}()
	// Two writes to an unguarded variable: the first is lost on its way to
	// node 2, the second opens the gap there.
	for val := int64(1); val <= 2; val++ {
		if err := c.nodes[1].Write(tGroup, 20, val); err != nil {
			t.Fatal(err)
		}
		waitValue(t, c.nodes[0], 20, val)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("WaitGE never returned (stats %+v)", c.nodes[2].Stats())
	}
	if lostFrames.Load() < 2 || lostNacks.Load() == 0 {
		t.Errorf("saw %d copies of the lost frame and lost %d gap NACKs, want the multicast plus a retransmission and at least 1",
			lostFrames.Load(), lostNacks.Load())
	}
}

// TestCancelledAcquireLeavesInBoundedSteps: a cancelled waiter leaves in
// a bounded number of its own steps — it never waits on the network, so
// an unreachable root cannot hold it — and leaves nothing behind for the
// tick to keep retrying.
func TestCancelledAcquireLeavesInBoundedSteps(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c, fl, _ := newTapCluster(t, 3)
		for _, nd := range c.nodes {
			nd.SetTimers(5*time.Millisecond, time.Hour, time.Hour) // no failover: the root just stays dark
		}
		n := c.nodes[1]
		fl.Crash(0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := n.EnterSessionContext(ctx, tGroup, tLock, k.session); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("AcquireContext = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("the cancelled waiter took %v to leave", d)
		}
		lk := lockRecord(n, tLock)
		if lk.want || lk.parked != 0 || !lk.reqSince.IsZero() || lk.value(n.id) != Free {
			t.Errorf("after the cancel: want=%v parked=%d stamped=%v value=%d, expected a clean record",
				lk.want, lk.parked, !lk.reqSince.IsZero(), lk.value(n.id))
		}
		sent := n.Stats().LockRequests
		for i := 0; i < 5; i++ {
			n.tick()
		}
		if got := n.Stats().LockRequests; got != sent {
			t.Errorf("the tick re-sent a cancelled request: %d frames, was %d", got, sent)
		}
	})
}

// TestWatchdogReissueKeepsTheDeadline: a request's deadline lives in the
// lock record, and every frame of the acquisition quotes it — the
// watchdog's re-issue included. The root takes a duplicate's deadline as
// the freshest word, so a re-issue without one would erase the caller's
// deadline there; with the cancel then lost, the root would grant into
// the void instead of dropping the expired request at dequeue.
func TestWatchdogReissueKeepsTheDeadline(t *testing.T) {
	c, _, tap := newTapCluster(t, 3)
	root, holder, n := c.nodes[0], c.nodes[2], c.nodes[1]
	for _, nd := range c.nodes {
		nd.SetTimers(5*time.Millisecond, time.Hour, time.Hour)
	}
	// The ordinary retry schedule stays out of the way: the only frames of
	// this acquisition are the first and the watchdog's.
	n.SetBackoff(time.Hour, time.Hour)
	n.SetWatchdog(20 * time.Millisecond)
	tap.filter(func(from, to int, m *wire.Message) bool {
		return m.Type == wire.TLockCancel && from == 1
	})
	if err := holder.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := n.AcquireContext(ctx, tGroup, tLock); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireContext = %v, want context.DeadlineExceeded", err)
	}
	if st := n.Stats(); st.WatchdogReissues == 0 || st.LockRequests < 2 {
		t.Fatalf("the watchdog never re-issued the request (reissues %d, requests %d)", st.WatchdogReissues, st.LockRequests)
	}
	if err := holder.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, "the lock to come to rest free", func() bool {
		root.mu.Lock()
		defer root.mu.Unlock()
		ls := root.roots[tGroup].lock(tLock)
		return ls.free() && len(ls.queue) == 0
	})
	if st := root.Stats(); st.DeadlineDrops != 1 || st.LockGrants != 1 {
		t.Errorf("root counted %d deadline drops and %d grants, want the expired request dropped (1) and only the holder granted (1)",
			st.DeadlineDrops, st.LockGrants)
	}
}

// TestFailoverRebuildsLocksUnleased: a lock record rebuilt at promotion
// must start where a fresh one does — leased to nobody. Rebuilt with the
// zero value, every lock would read as leased to node 0, and the first
// request to queue behind a holder would send node 0 a revoke demand
// with leasing off.
func TestFailoverRebuildsLocksUnleased(t *testing.T) {
	c, fl, tap := newTapCluster(t, 4)
	var leaseFrames atomic.Int32
	tap.filter(func(from, to int, m *wire.Message) bool {
		if m.Type == wire.TLeaseGrant {
			leaseFrames.Add(1)
		}
		return false
	})
	holder, n := c.nodes[2], c.nodes[3]
	if err := holder.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	fl.Crash(0)
	waitFor(t, c, 5*time.Second, "node 1 to take over the group", func() bool {
		return c.nodes[1].Stats().Failovers == 1
	})
	waitAdopted(t, c, holder, 1)
	waitAdopted(t, c, n, 1)
	done := acquireAsync(n, tLock)
	waitFor(t, c, 5*time.Second, "node 3 queued behind the holder at the new root", func() bool {
		c.nodes[1].mu.Lock()
		defer c.nodes[1].mu.Unlock()
		return c.nodes[1].roots[tGroup].lock(tLock).queued(3)
	})
	if err := holder.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitAcquired(t, done, "the queued request after the failover")
	if st := c.nodes[1].Stats(); st.LeaseRevokes != 0 || leaseFrames.Load() != 0 {
		t.Errorf("leasing is off, yet the new root sent %d revoke demands (%d lease frames on the wire)",
			st.LeaseRevokes, leaseFrames.Load())
	}
}

// countingClock is the wall clock with its calls counted: timers minted,
// and clock reads made from inside Node.Write or while a pushed frame is
// being applied (Node.tryDeliver, on the pusher's goroutine).
type countingClock struct {
	vclock.Clock
	timers       atomic.Int32
	nowFromWrite atomic.Int32
	nowFromPush  atomic.Int32
}

func (c *countingClock) NewTimer(d time.Duration) vclock.Timer {
	c.timers.Add(1)
	return c.Clock.NewTimer(d)
}

func (c *countingClock) Now() time.Time {
	if onStack("gwc.(*Node).Write") {
		c.nowFromWrite.Add(1)
	}
	if onStack("gwc.(*Node).tryDeliver") {
		c.nowFromPush.Add(1)
	}
	return c.Clock.Now()
}

// onStack reports whether a function whose name ends in suffix is among
// the callers of the function that asks.
func onStack(suffix string) bool {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, suffix) {
			return true
		}
		if !more {
			return false
		}
	}
}

// newClockedCluster is a default InProc cluster, group tGroup rooted at
// node 0, each node on a counting clock and with tracing off (an emitted
// event reads the clock).
func newClockedCluster(t *testing.T, nodes int, guards map[VarID]LockID) (*transport.InProc, []*Node, []*countingClock) {
	t.Helper()
	net, err := transport.NewInProc(nodes)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int, nodes)
	for i := range members {
		members[i] = i
	}
	clocks := make([]*countingClock, nodes)
	ns := make([]*Node, nodes)
	for i := range ns {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		clocks[i] = &countingClock{Clock: vclock.Real()}
		ns[i] = NewNodeClock(i, ep, clocks[i])
		if err := ns[i].Join(GroupConfig{ID: tGroup, Root: 0, Members: members, Guards: guards}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range ns {
			_ = n.Close()
		}
		_ = net.Close()
	})
	return net, ns, clocks
}

// TestWaitsMintNoTimersAndWritesReadNoClock: after a thousand contended
// acquires with guarded writes inside and a thousand WaitGEs, each node
// has minted exactly one timer — its maintenance timer — no Write has read
// the clock, and neither has any node while a frame pushed at it was
// applied, though most of the fan-out arrived that way.
func TestWaitsMintNoTimersAndWritesReadNoClock(t *testing.T) {
	const nodes, rounds = 4, 250
	net, ns, clocks := newClockedCluster(t, nodes, map[VarID]LockID{tVar: tLock})
	// Every node runs rounds sections on the one lock: a guarded write
	// inside, an unguarded one after, then a WaitGE for a neighbour's.
	var wg sync.WaitGroup
	for i, n := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(1); k <= rounds; k++ {
				if err := n.Acquire(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				v, _ := n.Read(tGroup, tVar)
				if err := n.Write(tGroup, tVar, v+1); err != nil {
					t.Error(err)
				}
				if err := n.Release(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				if err := n.Write(tGroup, VarID(100+i), k); err != nil {
					t.Error(err)
				}
				if ok, err := n.WaitGE(tGroup, VarID(100+(i+1)%nodes), k); err != nil || !ok {
					t.Errorf("WaitGE = %v, %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, ck := range clocks {
		if got := ck.timers.Load(); got != 1 {
			t.Errorf("node %d minted %d timers, want 1 (the maintenance timer)", i, got)
		}
		if got := ck.nowFromWrite.Load(); got != 0 {
			t.Errorf("node %d: Write read the clock %d times", i, got)
		}
		if got := ck.nowFromPush.Load(); got != 0 {
			t.Errorf("node %d: the clock was read %d times while a pushed frame was applied", i, got)
		}
	}
	if s := net.TransportStats(); s.PushedInPlace < nodes*rounds {
		t.Errorf("only %d pushes ran in place (%d queued): the no-clock assertion saw too little", s.PushedInPlace, s.PushedQueued)
	}
	if got := ns[0].Stats().LockGrants; got < nodes*rounds {
		t.Errorf("%d grants for %d sections", got, nodes*rounds)
	}
}

// TestSnapshotAlignsAFreeLocksEpoch: a member that missed a stretch of
// lock traffic and catches up by snapshot must come out with the root's
// epoch for every lock, a free one included — the epoch is what it tags
// its next speculative writes with. The snapshot of a free lock used to
// leave the member's epoch where it was: the root then judged the writes
// of its next (clean, committed) speculation as older than the newest
// foreign entry and suppressed them — a section that ran, committed and
// left nothing behind.
func TestSnapshotAlignsAFreeLocksEpoch(t *testing.T) {
	c, _, tap := newTapCluster(t, 3)
	for _, nd := range c.nodes {
		nd.SetTimers(10*time.Millisecond, time.Hour, time.Hour) // no failover: node 2 is just cut off
	}
	busy, n := c.nodes[1], c.nodes[2]
	tap.filter(func(from, to int, m *wire.Message) bool { return to == 2 })
	// More sections than the root's history can retransmit: a snapshot is
	// the only way back.
	for i := int64(1); c.nodes[0].Stats().LockGrants < 1500; i++ {
		if err := busy.Acquire(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if err := busy.Write(tGroup, tVar, i); err != nil {
			t.Fatal(err)
		}
		if err := busy.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
	}
	last, _ := busy.Read(tGroup, tVar)
	tap.filter(nil)
	waitValue(t, n, tVar, last)
	rootEpoch := func() uint32 {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].roots[tGroup].lock(tLock).epoch
	}
	if got, want := lockRecord(n, tLock).grantEpoch, rootEpoch(); got != want {
		t.Errorf("after the snapshot node 2 has the lock at epoch %d, the root at %d", got, want)
	}
	// A speculative section on node 2, as the engine runs it.
	suppressed := c.nodes[0].Stats().Suppressed
	intr := new(countIntr)
	if ok, err := n.Speculate(tGroup, tLock, 0, intr); !ok || err != nil {
		t.Fatalf("Speculate on the free lock = %v, %v", ok, err)
	}
	if err := n.Write(tGroup, tVar, last+100); err != nil {
		t.Fatal(err)
	}
	if ok, err := waitGrant(n); !ok || err != nil {
		t.Fatalf("waitGrant = %v, %v", ok, err)
	}
	if err := n.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if intr.fired.Load() != 0 {
		t.Fatal("the speculation was interrupted: no rival was anywhere near")
	}
	if err := n.Sync(tGroup); err != nil {
		t.Fatal(err)
	}
	if got := c.nodes[0].Stats().Suppressed; got != suppressed {
		t.Errorf("the root suppressed %d write(s) of a speculation that committed", got-suppressed)
	}
	waitValue(t, busy, tVar, last+100)
}
