package gwc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/wire"
)

// countingNet wraps a transport and counts lock-plane frames per sender,
// so a test can assert a code path put nothing lock-related on the wire.
// Maintenance probes (resync, acks) keep flowing on their own clock and
// are deliberately not counted there. It also counts every frame per
// link, whatever its kind, so a test can assert nothing at all travelled
// between two nodes.
type countingNet struct {
	inner transport.Network
	sent  []atomic.Int64
	links []atomic.Int64 // from*Size()+to, every frame
}

func newCountingNet(inner transport.Network) *countingNet {
	n := inner.Size()
	return &countingNet{inner: inner, sent: make([]atomic.Int64, n), links: make([]atomic.Int64, n*n)}
}

// link reads the frames sent from one node to another.
func (c *countingNet) link(from, to int) int64 { return c.links[from*c.Size()+to].Load() }

func (c *countingNet) Size() int    { return c.inner.Size() }
func (c *countingNet) Close() error { return c.inner.Close() }

func (c *countingNet) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := c.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{Endpoint: ep, net: c, id: id}, nil
}

type countingEndpoint struct {
	transport.Endpoint
	net *countingNet
	id  int
}

func lockPlaneFrame(t wire.Type) bool {
	switch t {
	case wire.TLockReq, wire.TLockRel, wire.TSeqLock, wire.TLeaseGrant, wire.TLeaseRet:
		return true
	}
	return false
}

func (e *countingEndpoint) Send(to int, m wire.Message) error {
	if lockPlaneFrame(m.Type) {
		e.net.sent[e.id].Add(1)
	}
	e.net.links[e.id*e.net.Size()+to].Add(1)
	return e.Endpoint.Send(to, m)
}

// leaseCluster builds an in-proc cluster with leasing enabled on every
// node.
func leaseCluster(t *testing.T, n int, guarded bool, ttl time.Duration) *cluster {
	t.Helper()
	c := newInProcCluster(t, n, guarded)
	for _, nd := range c.nodes {
		nd.SetLeases(ttl)
	}
	return c
}

// warmLease acquires and releases the lock on nd until a re-acquire is
// decided locally, which proves the lease landed and the cached grant is
// live. The first grant races the unicast lease frame (a Release that
// beats it simply drops the lease), so warming is a loop, not one pass.
func warmLease(t *testing.T, nd *Node, l LockID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := nd.Acquire(tGroup, l); err != nil {
			t.Fatal(err)
		}
		warm := nd.Stats().LeaseLocal > 0
		if err := nd.Release(tGroup, l); err != nil {
			t.Fatal(err)
		}
		if warm {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("lease never warmed up on node %d: stats %+v", nd.ID(), nd.Stats())
}

// rootLeaseTo reads the root's lease record for a lock.
func rootLeaseTo(root *Node, l LockID) int {
	root.mu.Lock()
	defer root.mu.Unlock()
	r, ok := root.roots[tGroup]
	if !ok {
		return -1
	}
	ls := r.book.locks.peek(l)
	if ls == nil || !ls.used {
		return -1
	}
	return ls.leaseTo
}

// TestSessionEntryReturnsIdleLease pins the one enter path's lease rule:
// a section that cannot enter through the idle lease this node holds — it
// wants another session — gives the lease back before it asks, so the
// root has the lock free when the request arrives. When the session path
// did not know leases existed, the root answered the leaseholder's
// request by re-announcing its old exclusive grant, the member ignored
// that, and the entry waited out the lease (5 s here).
func TestSessionEntryReturnsIdleLease(t *testing.T) {
	c := leaseCluster(t, 3, false, 5*time.Second)
	nd := c.nodes[1]
	warmLease(t, nd, tLock)
	if got := rootLeaseTo(c.nodes[0], tLock); got != 1 {
		t.Fatalf("root's leaseTo = %d after warming, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := nd.EnterSessionContext(ctx, tGroup, tLock, 7); err != nil {
		t.Fatalf("entering session 7 over an idle lease: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the entry took %v: it waited for the lease instead of returning it", d)
	}
	if got := rootLeaseTo(c.nodes[0], tLock); got != -1 {
		t.Errorf("root's leaseTo = %d after the session entry, want -1", got)
	}
	if si, _ := nd.SessionState(tGroup, tLock); !si.Mine || si.Session != 7 {
		t.Errorf("session state %+v after the entry, want this node inside session 7", si)
	}
	if err := nd.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredIdleLeaseIsReturnedNotEntered: between a lease's expiry and
// the tick that returns it, this node's entry is still in its copy. An
// acquire in that window must not take the copy for its grant — it would
// run its section on a lease the next tick gives away — so it returns the
// lease and asks, like any section that cannot enter through it.
func TestExpiredIdleLeaseIsReturnedNotEntered(t *testing.T) {
	const ttl = 100 * time.Millisecond
	c := leaseCluster(t, 3, false, ttl)
	nd := c.nodes[1]
	// No tick on this node for the next two seconds (the one already armed
	// fires within the old interval).
	nd.SetTimers(2*time.Second, time.Minute, 0)
	time.Sleep(80 * time.Millisecond)
	warmLease(t, nd, tLock)
	time.Sleep(ttl + 50*time.Millisecond)
	local, returns := nd.Stats().LeaseLocal, c.nodes[0].Stats().LeaseReturns
	if err := nd.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	nd.mu.Lock()
	lk := nd.groups[tGroup].locks.at(tLock)
	idle := lk.idleLease()
	nd.mu.Unlock()
	if idle {
		t.Error("inside the lock on an idle, expired lease: the next tick returns it mid-section")
	}
	if got := nd.Stats().LeaseLocal; got != local {
		t.Errorf("LeaseLocal moved %d -> %d: entered through an expired lease", local, got)
	}
	if got := c.nodes[0].Stats().LeaseReturns; got != returns+1 {
		t.Errorf("root saw %d lease returns, want %d: the expired lease did not go back first", got, returns+1)
	}
	if err := nd.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
}

// TestLeasedReacquireZeroWire is the headline property: once a lease is
// cached, an uncontended Acquire/Release pair is a purely local decision
// — zero lock-plane wire frames, counted at the transport itself.
func TestLeasedReacquireZeroWire(t *testing.T) {
	inner, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	net := newCountingNet(inner)
	c := newCluster(t, net, false)
	for _, nd := range c.nodes {
		nd.SetLeases(time.Hour)
	}
	nd := c.nodes[1]
	warmLease(t, nd, tLock)

	const reacquires = 200
	frames := net.sent[1].Load()
	base := nd.Stats()
	for i := 0; i < reacquires; i++ {
		if err := nd.Acquire(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if err := nd.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
	}
	got := nd.Stats()
	if d := net.sent[1].Load() - frames; d != 0 {
		t.Errorf("leased re-acquire put %d lock-plane frames on the wire, want 0", d)
	}
	if d := got.LockRequests - base.LockRequests; d != 0 {
		t.Errorf("leased re-acquire sent %d lock requests, want 0", d)
	}
	if d := got.LeaseLocal - base.LeaseLocal; d != reacquires {
		t.Errorf("LeaseLocal advanced by %d, want %d", d, reacquires)
	}
}

// TestConvoyHandsOverThroughTheRoot pins the one way a contended lock
// changes hands with leases on: the release (or the lease return) goes to
// the root, and the root's sequenced grant names the next holder. Node 1
// holds the lock under a lease and nodes 2 and 3 queue behind it; each of
// the three acquisitions must be a grant the root counted, and no
// frame of any kind may travel member to member.
func TestConvoyHandsOverThroughTheRoot(t *testing.T) {
	inner, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	net := newCountingNet(inner)
	c := newCluster(t, net, false)
	for _, nd := range c.nodes {
		nd.SetLeases(time.Hour)
	}
	root := c.nodes[0]
	grants := root.Stats().LockGrants

	// Node 1 takes the lock, and the lease that comes with an empty queue;
	// nodes 2 and 3 queue behind it, and the root demands the lease back.
	if err := c.nodes[1].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	queued := func(want int) func() bool {
		return func() bool {
			root.mu.Lock()
			defer root.mu.Unlock()
			ls := root.roots[tGroup].book.locks.peek(tLock)
			return ls != nil && len(ls.queue) >= want
		}
	}
	var wg sync.WaitGroup
	worker := func(i int) {
		defer wg.Done()
		if err := c.nodes[i].Acquire(tGroup, tLock); err != nil {
			t.Errorf("node %d acquire: %v", i, err)
			return
		}
		time.Sleep(2 * time.Millisecond)
		if err := c.nodes[i].Release(tGroup, tLock); err != nil {
			t.Errorf("node %d release: %v", i, err)
		}
	}
	wg.Add(1)
	go worker(2)
	waitFor(t, c, 5*time.Second, "node 2 queued at the root", queued(1))
	wg.Add(1)
	go worker(3)
	waitFor(t, c, 5*time.Second, "two waiters queued", queued(2))

	if err := c.nodes[1].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := root.Stats().LockGrants - grants; got != 3 {
		t.Errorf("the root granted %d times for 3 acquisitions, want one grant each", got)
	}
	for from := 1; from < len(c.nodes); from++ {
		for to := 1; to < len(c.nodes); to++ {
			if d := net.link(from, to); d != 0 {
				t.Errorf("node %d sent node %d %d frame(s), want every hand-over through the root", from, to, d)
			}
		}
	}
}

// TestLeaseRevocation is the root-side lifecycle table: every way a
// lease is taken back — a fence demanding it, the watchdog re-driving a
// stuck demand, the leaseholder rejoining from a crash — must end with
// the root's record retired and the lock grantable again.
func TestLeaseRevocation(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c *cluster, fl *transport.Flaky)
	}{
		{
			// Quorum loss fences the reign; the fence demands every lease
			// back because it can no longer vouch for leased re-entries.
			// Contact returns, the demand loop converges, the lease dies.
			name: "fence",
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				fl.Crash(1)
				fl.Crash(2)
				waitFor(t, c, 5*time.Second, "root to fence and demand the lease", func() bool {
					s := c.nodes[0].Stats()
					return s.Fenced >= 1 && s.LeaseRevokes >= 1
				})
				fl.Revive(1)
				fl.Revive(2)
			},
		},
		{
			// The leaseholder goes dark with a waiter queued: the revoke
			// demand goes unanswered past the liveness budget and the
			// watchdog trips (lease kind), resetting the demand cadence.
			// The root must NOT force-free — only the holder's return ends
			// it, here after the holder comes back.
			name: "watchdog",
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				fl.Crash(1)
				done := make(chan error, 1)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					if err := c.nodes[2].AcquireContext(ctx, tGroup, tLock); err != nil {
						done <- err
						return
					}
					done <- c.nodes[2].Release(tGroup, tLock)
				}()
				waitFor(t, c, 5*time.Second, "watchdog to trip on the unanswered demand", func() bool {
					s := c.nodes[0].Stats()
					return s.LeaseRevokes >= 1 && s.WatchdogStuck >= 1
				})
				if got := rootLeaseTo(c.nodes[0], tLock); got != 1 {
					t.Errorf("watchdog force-freed the lease: leaseTo = %d, want 1", got)
				}
				fl.Revive(1)
				if err := <-done; err != nil {
					t.Fatalf("queued waiter never got the lock back: %v", err)
				}
			},
		},
		{
			// A crashed-and-restarted leaseholder rejoins with no memory of
			// the lease; re-admission frees its hold, which retires the
			// lease with it.
			name: "rejoin",
			run: func(t *testing.T, c *cluster, fl *transport.Flaky) {
				if err := c.nodes[1].Rejoin(tGroup); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, fl := newChaosCluster(t, 3, false)
			for _, nd := range c.nodes {
				nd.SetLeases(time.Hour)
				nd.SetWatchdog(150 * time.Millisecond)
			}
			warmLease(t, c.nodes[1], tLock)
			waitFor(t, c, 5*time.Second, "root to record the lease", func() bool {
				return rootLeaseTo(c.nodes[0], tLock) == 1
			})

			tc.run(t, c, fl)

			// The lock is grantable again: a different member gets it with
			// the full machinery. (A revoked-but-unanswered lease converges
			// on demand — this acquire IS the demand that forces it.)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.nodes[2].AcquireContext(ctx, tGroup, tLock); err != nil {
				t.Fatalf("lock not grantable after %s revocation: %v", tc.name, err)
			}
			if err := c.nodes[2].Release(tGroup, tLock); err != nil {
				t.Fatal(err)
			}
			// Node 1's lease is retired at the root; whoever holds a lease
			// now (node 2 may have one, the queue having emptied), it is
			// not the revoked one.
			if got := rootLeaseTo(c.nodes[0], tLock); got == 1 {
				t.Errorf("node 1's revoked lease still recorded after %s", tc.name)
			}
		})
	}
}

// TestLeaseRenewalKeepsLockLocal holds a lease across several TTLs of
// active re-use: the renewal machinery (adaptive backoff past the half
// life, root extension while the queue is empty) must keep the lock
// local the whole time instead of letting it lapse back to wire
// acquisitions.
func TestLeaseRenewalKeepsLockLocal(t *testing.T) {
	const ttl = 400 * time.Millisecond
	c := leaseCluster(t, 3, false, ttl)
	for _, nd := range c.nodes {
		// A 5ms tick backs renewals off from 5ms up to 80ms.
		nd.SetTimers(5*time.Millisecond, 200*time.Millisecond, 100*time.Millisecond)
	}
	nd := c.nodes[1]
	warmLease(t, nd, tLock)

	base := nd.Stats()
	rootBase := c.nodes[0].Stats()
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		if err := nd.Acquire(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if err := nd.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	got := nd.Stats()
	if got.LeaseRenewals-base.LeaseRenewals == 0 {
		t.Error("no lease renewals across three TTLs of active use")
	}
	if d := c.nodes[0].Stats().LeaseGrants - rootBase.LeaseGrants; d == 0 {
		t.Error("root never extended the lease")
	}
	// One lapse is tolerated (a renewal can lose the race with expiry
	// under scheduler pressure); systematic lapses mean renewal is broken.
	if d := got.LockRequests - base.LockRequests; d > 1 {
		t.Errorf("%d wire acquisitions during a renewed lease, want <= 1", d)
	}
	if got.LeaseLocal == base.LeaseLocal {
		t.Error("no local re-acquires during the renewal window")
	}
}

// TestLeasedRetryStormBounded is the leasing build of the retry-storm
// bound: waiters born into a root outage, with the lease machinery live,
// must still converge on the failover with adaptively-bounded resends —
// the lease paths (renewals, revoke demands, and the retry schedule's
// reset when a grant epoch moves mid-wait) add no unbounded traffic.
func TestLeasedRetryStormBounded(t *testing.T) {
	const (
		waiters   = 16
		retry     = 10 * time.Millisecond
		failAfter = 200 * time.Millisecond
		electWait = 100 * time.Millisecond
		boBase    = retry      // the backoff starts at the retry interval
		boCap     = 16 * retry // and climbs to 16x it
	)
	c, fl := newChaosCluster(t, 3, true)
	for _, nd := range c.nodes {
		nd.SetTimers(retry, failAfter, electWait)
		nd.SetLeases(time.Hour)
	}

	baseline := c.nodes[1].Stats().LockRequests + c.nodes[2].Stats().LockRequests

	fl.Crash(0)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		node := 1 + i%2
		lock := LockID(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.nodes[node].Acquire(tGroup, lock); err != nil {
				t.Errorf("waiter on node %d lock %d: %v", node, lock, err)
				return
			}
			if err := c.nodes[node].Release(tGroup, lock); err != nil {
				t.Errorf("release on node %d lock %d: %v", node, lock, err)
			}
		}()
	}
	wg.Wait()
	downtime := time.Since(start)

	total := c.nodes[1].Stats().LockRequests + c.nodes[2].Stats().LockRequests
	resends := total - baseline - waiters
	if resends < 0 {
		t.Fatalf("counter went backwards: %d requests for %d waiters", total-baseline, waiters)
	}
	// Same budget shape as TestRetryStormBounded, plus slack for the
	// grant-epoch reset: the failover re-bases every lock, and each
	// waiter's schedule legitimately restarts at base once when its lock
	// moves under the new reign.
	climb := 1
	for d := boBase; d < boCap; d *= 2 {
		climb++
	}
	perWaiter := climb + int(downtime/(boCap/2)) + 6
	budget := waiters * perWaiter
	t.Logf("downtime %v: %d resends (budget %d)", downtime, resends, budget)
	if resends > budget {
		t.Errorf("%d resends for %d waiters exceeds adaptive budget %d", resends, waiters, budget)
	}
	renewals := c.nodes[1].Stats().LeaseRenewals + c.nodes[2].Stats().LeaseRenewals
	if renewals > waiters {
		t.Errorf("%d lease renewals during an hour-TTL run, want ~0", renewals)
	}
}
