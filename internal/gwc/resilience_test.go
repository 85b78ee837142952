package gwc

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestRetryStormBounded pins the adaptive-retry contract: waiters that
// outlive a root crash re-send their lock requests on a jittered
// exponential backoff, so the total resend traffic across a downtime D
// grows like waiters*log(D/base) — not waiters*D/tick, which is what
// the old flat maintenance-tick resend produced. 16 waiters block
// across a forced failover; the resend frames they emit (LockRequests
// beyond the initial sends) must fit the logarithmic budget and stay
// well under the flat-resend floor for the same downtime.
func TestRetryStormBounded(t *testing.T) {
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
	}

	baseline := c.nodes[1].Stats().LockRequests + c.nodes[2].Stats().LockRequests

	// The root dies first, so every acquisition below is born into the
	// outage: the initial request lands in a dead mailbox and only the
	// retry schedule keeps it alive until the failover re-homes it.
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

	// Per-waiter budget: the climb from base to cap (log2(cap/base)
	// doublings plus the first send at base), the capped tail across the
	// remaining downtime (jitter can halve a delay, hence cap/2), and
	// slack for the schedule reset on the reign change, which buys the
	// prompt re-registration with the new root.
	climb := 1
	for d := boBase; d < boCap; d *= 2 {
		climb++
	}
	perWaiter := climb + int(downtime/(boCap/2)) + 4
	adaptive := waiters * perWaiter
	flat := waiters * int(downtime/retry)
	t.Logf("downtime %v: %d resends (budget %d, flat-resend floor %d)", downtime, resends, adaptive, flat)
	if resends > adaptive {
		t.Errorf("%d resend frames for %d waiters over %v exceeds the O(waiters*log(downtime/base)) budget %d",
			resends, waiters, downtime, adaptive)
	}
	if flat <= adaptive {
		t.Errorf("downtime %v too short to discriminate: flat floor %d <= adaptive budget %d", downtime, flat, adaptive)
	}
}

// TestSyncBarrierSurvivesRejoin pins the race between an in-flight sync
// barrier and a rejoin of the node that issued it: the caller's
// goroutine outlives the "crash" (its request frame died with the
// outage, its volatile group state with the rejoin), so the pending
// barrier must survive the re-admission, re-issue itself on the retry
// schedule under the adopted epoch, and complete — not hang forever on
// a token the root never saw.
func TestSyncBarrierSurvivesRejoin(t *testing.T) {
	const victim = 2
	c, fl := newChaosCluster(t, 3, false)
	if err := c.nodes[victim].Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[0], tVar, 1)

	// The root goes dark before the barrier is issued, so the TSyncReq
	// is lost in flight and only the maintenance tick's resend can ever
	// deliver it.
	fl.Crash(0)
	syncErr := make(chan error, 1)
	go func() { syncErr <- c.nodes[victim].Sync(tGroup) }()

	// The issuer bounces while the barrier is pending, losing its
	// volatile state, and rejoins once the root is back.
	fl.Crash(victim)
	fl.Revive(victim)
	if err := c.nodes[victim].Rejoin(tGroup); err != nil {
		t.Fatal(err)
	}
	fl.Revive(0)
	waitFor(t, c, 10*time.Second, "the victim's re-admission", func() bool {
		return c.nodes[victim].Stats().Rejoins >= 1
	})

	select {
	case err := <-syncErr:
		if err != nil {
			t.Fatalf("sync barrier failed across the rejoin: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync barrier never completed after the rejoin")
	}

	// The rejoined issuer is a full citizen again: its writes sequence
	// and converge everywhere.
	if err := c.nodes[victim].Write(tGroup, tVarB, 7); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.nodes {
		waitValue(t, nd, tVarB, 7)
	}
}

// TestLockTokenRetryAfterGrant pins the idempotence of request retries
// that arrive after their grant: a backoff retry is a duplicate of a
// request the root may have already answered, and it must neither
// re-queue the holder, steal the lock, nor disturb the holder's token.
func TestLockTokenRetryAfterGrant(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c := newInProcCluster(t, 3, true)
		n1, n2 := c.nodes[1], c.nodes[2]
		rootState := func() (holder int, token uint32, queued int) {
			c.nodes[0].mu.Lock()
			defer c.nodes[0].mu.Unlock()
			ls := c.nodes[0].roots[tGroup].book.lock(tLock)
			if len(ls.held.in) != 1 {
				return -1, 0, len(ls.queue)
			}
			return ls.held.in[0].node, ls.held.in[0].token, len(ls.queue)
		}
		// retry re-sends n's outstanding request as the maintenance tick does
		// (retryLocks): the same acquisition, token and session.
		retry := func(n *Node) {
			n.mu.Lock()
			g := n.groups[tGroup]
			n.send(g.rootID, n.lockRequest(g, tLock, g.locks.at(tLock), n.Now()))
			n.mu.Unlock()
		}
		inside := func(n *Node, session uint32) bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			return n.groups[tGroup].locks.at(tLock).inside(n.id, session)
		}

		if err := n1.EnterSession(tGroup, tLock, k.session); err != nil {
			t.Fatal(err)
		}
		holder, token, _ := rootState()
		if holder != 1 {
			t.Fatalf("holder = %d, want 1", holder)
		}

		// A retry of the granted request: the root must re-announce, not
		// re-queue. Sync is the FIFO fence that proves the frame was handled.
		retry(n1)
		if err := n1.Sync(tGroup); err != nil {
			t.Fatal(err)
		}
		if h, tok, q := rootState(); h != 1 || tok != token || q != 0 {
			t.Fatalf("after retry-of-granted: holder=%d token=%d queue=%d, want 1/%d/0", h, tok, q, token)
		}
		if !inside(n1, k.session) {
			t.Fatal("the holder's local copy no longer shows it inside")
		}

		// A waiter that retries while queued must stay queued once, its
		// entry refreshed rather than duplicated.
		if _, err := n2.Request(tGroup, tLock, k.rival, 0, n2.Now()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, c, 5*time.Second, "the waiter to queue", func() bool {
			_, _, q := rootState()
			return q == 1
		})
		retry(n2)
		if err := n2.Sync(tGroup); err != nil {
			t.Fatal(err)
		}
		if _, _, q := rootState(); q != 1 {
			t.Fatalf("waiter retry duplicated its queue entry: %d entries", q)
		}

		// Handoff grants the waiter exactly once; its own late retry after
		// the grant is equally inert.
		if err := n1.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if ok, err := n2.WaitEnteredContext(context.Background(), tGroup, tLock, k.rival, nil); err != nil || !ok {
			t.Fatalf("waiter never granted: ok=%v err=%v", ok, err)
		}
		retry(n2)
		if err := n2.Sync(tGroup); err != nil {
			t.Fatal(err)
		}
		if h, _, q := rootState(); h != 2 || q != 0 {
			t.Fatalf("after post-grant retry: holder=%d queue=%d, want 2/0", h, q)
		}
		if err := n2.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if err := n1.EnterSession(tGroup, tLock, k.session); err != nil {
			t.Fatalf("lock stopped flowing after retry storm: %v", err)
		}
		if err := n1.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
	})
}
