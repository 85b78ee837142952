package gwc

import (
	"context"
	"errors"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/wire"
)

// newHistoryCluster is newChaosCluster with a custom retransmission
// window, for tests that need a member to fall past it.
func newHistoryCluster(t *testing.T, n, history int) (*cluster, *transport.Flaky) {
	t.Helper()
	inner, err := transport.NewInProc(n)
	if err != nil {
		t.Fatal(err)
	}
	fl := transport.NewFlaky(inner, transport.FaultPlan{})
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	c := &cluster{net: fl, nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		ep, err := fl.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = NewNode(i, ep)
		// Tracing drives waitFor's wake-ups and timeout dumps; it is
		// atomics-only, so it cannot mask the races these tests hunt.
		c.nodes[i].Metrics().Trace.Enable(0)
		c.nodes[i].SetTimers(10*time.Millisecond, 60*time.Millisecond, 30*time.Millisecond)
		if err := c.nodes[i].Join(GroupConfig{
			ID:          tGroup,
			Root:        0,
			Members:     members,
			HistorySize: history,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			_ = nd.Close()
		}
		_ = fl.Close()
	})
	return c, fl
}

func TestMinorityRootFencesAndMajorityReignSurvives(t *testing.T) {
	c, fl := newChaosCluster(t, 5, false)
	if err := c.nodes[1].Write(tGroup, tVar, 41); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 41)
	}

	// Root 0 lands on the 2-node minority side.
	fl.Partition([]int{0, 1}, []int{2, 3, 4})
	waitFor(t, c, 5*time.Second, "the minority root to fence itself", func() bool {
		return c.nodes[0].Stats().Fenced >= 1
	})

	// A write into the fenced reign parks instead of being sequenced:
	// the root's own copy must not move.
	if err := c.nodes[1].Write(tGroup, tVar, 100); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if got, err := c.nodes[0].Read(tGroup, tVar); err != nil || got != 41 {
		t.Fatalf("fenced root sequenced a minority write: read %d, %v; want 41", got, err)
	}

	// The majority side holds a report quorum and elects node 2 (node 1
	// is unreachable and gets suspected past over).
	waitFor(t, c, 5*time.Second, "node 2 to promote itself", func() bool {
		return c.nodes[2].Stats().Failovers == 1
	})
	if e := c.nodes[2].Stats().Elections; e < 1 {
		t.Errorf("promoted node entered %d elections, want >= 1", e)
	}
	waitAdopted(t, c, c.nodes[3], 2)
	if err := c.nodes[3].Write(tGroup, tVar, 55); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes[2:] {
		waitValue(t, n, tVar, 55)
	}

	// Healing deposes the fenced root; its parked minority write was
	// never acknowledged and is discarded, and everyone converges on the
	// majority reign's history.
	fl.Heal()
	waitFor(t, c, 5*time.Second, "the deposed root to stand down", func() bool {
		return c.nodes[0].Stats().Demotions == 1
	})
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 55)
	}
}

func TestSymmetricSplitFencesThenResumesWithoutElection(t *testing.T) {
	// A 2/2 split of a 4-node group leaves no side with a majority: the
	// root must fence, the other side must fail to elect, and healing
	// must resume the original reign with the parked traffic replayed.
	c, fl := newChaosCluster(t, 4, false)
	if err := c.nodes[1].Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 1)
	}

	fl.Partition([]int{0, 1}, []int{2, 3})
	waitFor(t, c, 5*time.Second, "the root to fence itself", func() bool {
		return c.nodes[0].Stats().Fenced == 1
	})
	if err := c.nodes[1].Write(tGroup, tVar, 2); err != nil {
		t.Fatal(err)
	}

	// A sync barrier against the fenced root parks with the write; its
	// answer doubles as proof the write outlived the partition.
	synced := make(chan error, 1)
	go func() { synced <- c.nodes[1].Sync(tGroup) }()

	time.Sleep(150 * time.Millisecond)
	for i, n := range c.nodes {
		if f := n.Stats().Failovers; f != 0 {
			t.Fatalf("node %d promoted itself %d times in a quorum-less split", i, f)
		}
	}
	if got, _ := c.nodes[2].Read(tGroup, tVar); got != 1 {
		t.Fatalf("cut-off side advanced to %d without a root", got)
	}
	if e := c.nodes[2].Stats().Elections; e < 1 {
		t.Errorf("cut-off candidate entered %d elections, want >= 1", e)
	}
	select {
	case err := <-synced:
		t.Fatalf("sync barrier answered while the root was fenced: %v", err)
	default:
	}

	fl.Heal()
	if err := <-synced; err != nil {
		t.Fatalf("sync barrier after heal: %v", err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 2)
	}
	if f := c.nodes[0].Stats().Fenced; f != 1 {
		t.Errorf("root fenced %d times, want exactly 1", f)
	}
	if d := c.nodes[0].Stats().Demotions; d != 0 {
		t.Errorf("root was deposed %d times without a competing reign", d)
	}
}

func TestQuorumWatermarkDefersHandoffUntilMajorityAck(t *testing.T) {
	// Drive the root's watermark machinery directly (under its lock, so
	// live ticks cannot interleave): a release with a queued waiter
	// designates the next holder at once — the lock never goes
	// holderless, so a clean speculation landing in the park window is
	// sequenced, not suppressed — but the grant *multicast* must not go
	// out until a majority acked the releaser's data.
	c := newInProcCluster(t, 5, true)
	root := c.nodes[0]
	root.SetQuorumAcks(true)

	root.mu.Lock()
	defer root.mu.Unlock() // Fatalf runs deferred calls, so cleanup can Close
	r := root.roots[tGroup]
	root.multicast(r, wire.Message{
		Type:  wire.TSeqUpdate,
		Group: uint32(tGroup),
		Src:   int32(root.id),
		Var:   uint32(tVar),
		Val:   5,
	})
	ls := r.lock(tLock)
	ls.held.put(holder{node: 3, epoch: 1})
	ls.epoch = 1
	ls.queue = []lockWaiter{{node: 4}}
	seqBefore := r.ring.seq()
	root.leaveLock(r, tLock, ls, 3)
	if !ls.holds(4) || len(ls.queue) != 0 {
		t.Fatalf("next holder not designated at release: holders=%v queue=%v", ls.held.in, ls.queue)
	}
	if len(ls.pending) == 0 {
		t.Fatal("grant multicast not deferred behind the watermark")
	}
	if r.ring.seq() != seqBefore {
		t.Fatalf("deferred grant was multicast anyway: seq %d -> %d", seqBefore, r.ring.seq())
	}
	if w := root.stats.QuorumAckWaits; w != 1 {
		t.Fatalf("QuorumAckWaits = %d, want 1", w)
	}
	if g := root.stats.LockGrants; g != 0 {
		t.Fatalf("LockGrants = %d before the watermark advanced, want 0", g)
	}

	// Acks from non-members are ignored; acks past the reign's sequence
	// clamp. Neither reaches the quorum of 3 (root + two members).
	root.rootAck(r, 99, 1)
	root.rootAck(r, 1, 100)
	if r.commit != 0 {
		t.Fatalf("commit = %d after one member ack, want 0", r.commit)
	}
	if len(ls.pending) == 0 {
		t.Fatal("grant multicast released below quorum")
	}

	// The second member ack completes the majority and sends the parked
	// multicast (which advances r.ring.seq() past the watermark again — the
	// next section's data, not yet quorum-held).
	root.rootAck(r, 2, 1)
	if r.commit != seqBefore {
		t.Fatalf("commit = %d after majority ack, want %d", r.commit, seqBefore)
	}
	if len(ls.pending) != 0 || r.ring.seq() != seqBefore+1 {
		t.Fatalf("deferred grant not serviced: pending=%v seq=%d", ls.pending, r.ring.seq())
	}
	if g := root.stats.LockGrants; g != 1 {
		t.Fatalf("LockGrants = %d after the watermark advanced, want 1", g)
	}
}

func TestQuorumAckedHandoffCarriesData(t *testing.T) {
	// End to end: under quorum acks, the next holder observes the
	// previous section's writes the moment it is granted.
	c := newInProcCluster(t, 3, true)
	for _, n := range c.nodes {
		n.SetQuorumAcks(true)
	}
	if err := c.nodes[1].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[2].SendLockRequest(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, "node 2 to queue at the root", func() bool {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].roots[tGroup].lock(tLock).queued(2)
	})
	if err := c.nodes[1].Write(tGroup, tVar, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[1].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	ok, err := waitGrant(c.nodes[2])
	if err != nil || !ok {
		t.Fatalf("queued waiter never granted: ok=%v err=%v", ok, err)
	}
	// The grant was sequenced behind the quorum-committed write, so the
	// value is already local — no polling.
	if got, err := c.nodes[2].Read(tGroup, tVar); err != nil || got != 5 {
		t.Fatalf("new holder read %d, %v; want 5", got, err)
	}
	if err := c.nodes[2].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
}

func TestSyncBarrierWaitsForQuorumCommit(t *testing.T) {
	c := newInProcCluster(t, 3, false)
	for _, n := range c.nodes {
		n.SetQuorumAcks(true)
	}
	if err := c.nodes[1].Write(tGroup, tVar, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[1].Sync(tGroup); err != nil {
		t.Fatal(err)
	}
	// The barrier vouches for the write: it is sequenced at the root and
	// covered by the quorum watermark.
	if got, err := c.nodes[0].Read(tGroup, tVar); err != nil || got != 7 {
		t.Fatalf("root read %d, %v after sync, want 7", got, err)
	}
	c.nodes[0].mu.Lock()
	r := c.nodes[0].roots[tGroup]
	commit, seq := r.commit, r.ring.seq()
	c.nodes[0].mu.Unlock()
	if commit < seq {
		t.Fatalf("commit watermark %d below sequence %d after sync", commit, seq)
	}

	// The root syncing its own group goes through the same path.
	if err := c.nodes[0].Write(tGroup, tVarB, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[0].Sync(tGroup); err != nil {
		t.Fatal(err)
	}
}

func TestSyncContextCancelsWhileRootUnreachable(t *testing.T) {
	c, fl := newChaosCluster(t, 3, false)
	if err := c.nodes[1].Write(tGroup, tVar, 3); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[0], tVar, 3)

	fl.Partition([]int{1}, []int{0})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if err := c.nodes[1].SyncContext(ctx, tGroup); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SyncContext against unreachable root = %v, want deadline exceeded", err)
	}
	fl.Heal()
	// The abandoned token must not wedge later barriers.
	if err := c.nodes[1].Sync(tGroup); err != nil {
		t.Fatalf("sync after cancelled barrier: %v", err)
	}
}

func TestRejoinAfterCrashConverges(t *testing.T) {
	c, fl := newChaosCluster(t, 3, false)
	if err := c.nodes[1].Write(tGroup, tVar, 41); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 41)
	}

	fl.Crash(2)
	if err := c.nodes[1].Write(tGroup, tVar, 42); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[0], tVar, 42)

	fl.Revive(2)
	if err := c.nodes[2].Rejoin(tGroup); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[2], tVar, 42)
	waitFor(t, c, 5*time.Second, "the rejoin handshake to complete on both ends", func() bool {
		return c.nodes[2].Stats().Rejoins >= 1 && c.nodes[0].Stats().Rejoins >= 1
	})

	// The re-admitted member is a full citizen again.
	if err := c.nodes[2].Write(tGroup, tVarB, 9); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVarB, 9)
	}

	// A root cannot rejoin the reign it runs.
	if err := c.nodes[0].Rejoin(tGroup); err == nil {
		t.Error("root Rejoin of its own reign succeeded, want error")
	}
}

func TestRejoinFreesCrashedHoldersLock(t *testing.T) {
	c, fl := newChaosCluster(t, 3, true)
	if err := c.nodes[2].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	fl.Crash(2)
	if err := c.nodes[1].SendLockRequest(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 5*time.Second, "node 1 to queue behind the crashed holder", func() bool {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].roots[tGroup].lock(tLock).queued(1)
	})

	// The holder reboots: its critical section died with its memory, so
	// re-admission frees the lock and the waiter gets in.
	fl.Revive(2)
	if err := c.nodes[2].Rejoin(tGroup); err != nil {
		t.Fatal(err)
	}
	ok, err := waitGrant(c.nodes[1])
	if err != nil || !ok {
		t.Fatalf("waiter never granted after holder rejoin: ok=%v err=%v", ok, err)
	}
	if err := c.nodes[1].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
}

func TestFarBehindRevivalFetchesSnapshot(t *testing.T) {
	// A member that missed more than the root's retransmission window
	// cannot be NACK-repaired; the root's heartbeat sequence number gives
	// it away and it fetches a snapshot instead — no explicit Rejoin.
	c, fl := newHistoryCluster(t, 3, 8)
	if err := c.nodes[1].Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 1)
	}

	fl.Crash(2)
	for i := int64(2); i <= 20; i++ {
		if err := c.nodes[1].Write(tGroup, tVar, i); err != nil {
			t.Fatal(err)
		}
	}
	waitValue(t, c.nodes[0], tVar, 20)

	fl.Revive(2)
	waitValue(t, c.nodes[2], tVar, 20)
	if rj := c.nodes[2].Stats().Rejoins; rj != 0 {
		t.Errorf("snapshot catch-up counted %d rejoins, want 0", rj)
	}
}
