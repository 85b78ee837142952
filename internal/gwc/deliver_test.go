package gwc

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/transport"
)

// These tests drive the path on which a TCP link reader dispatches what
// it decoded itself (Node.deliver registered through transport.DeliverTo)
// instead of queueing it for recvLoop.

func newTCPCluster(t *testing.T, n int, guarded bool) (*cluster, *transport.TCPNet) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	net, err := transport.NewTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return newCluster(t, net, guarded), net
}

// TestConcurrentLinksApplyOneTotalOrder: three members write at once, so
// the root has three inbound links dispatching concurrently — one of them
// carrying TBatch frames — and every member must still apply one total
// order, with each writer's values in the order it wrote them.
func TestConcurrentLinksApplyOneTotalOrder(t *testing.T) {
	const writes = 2000 // per writer; inside the outbox bound, so nothing is shed
	c, _ := newTCPCluster(t, 4, false)
	// Writer 2 batches, over four variables: same-variable writes in one
	// window coalesce, so it takes several to fill a TBatch frame.
	vars := map[int][]VarID{1: {20}, 2: {30, 31, 32, 33}, 3: {40}}
	const batcher = 2
	c.nodes[batcher].SetBatching(200*time.Microsecond, 16)

	type event struct {
		v   VarID
		val int64
	}
	var mu sync.Mutex
	logs := make([][]event, len(c.nodes))
	applied := make([]map[VarID]int64, len(c.nodes)) // newest value each hook saw
	for id, n := range c.nodes {
		applied[id] = make(map[VarID]int64)
		for _, vs := range vars {
			for _, v := range vs {
				if _, err := n.OnVarChange(tGroup, v, func(val int64) {
					mu.Lock()
					logs[id] = append(logs[id], event{v, val})
					applied[id][v] = val
					mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w, vs := range vars {
		wg.Add(1)
		go func(w int, vs []VarID) {
			defer wg.Done()
			for k := 1; k <= writes; k++ {
				if err := c.nodes[w].Write(tGroup, vs[k%len(vs)], int64(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, vs)
	}
	wg.Wait()
	last := make(map[VarID]int64)
	for _, vs := range vars {
		for k := 1; k <= writes; k++ {
			last[vs[k%len(vs)]] = int64(k)
		}
	}
	// A writer reads its own last write at once, but its hooks run only
	// when the root's echo lands: wait on the hooks, not on Read.
	waitFor(t, c, 5*time.Second, "every member's hooks to apply the last writes", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for id := range c.nodes {
			for v, val := range last {
				if applied[id][v] != val {
					return false
				}
			}
		}
		return true
	})

	mu.Lock()
	defer mu.Unlock()
	ref := logs[0]
	prev := make(map[VarID]int64)
	for _, e := range ref {
		// Batching coalesces same-variable writes in a window, so the
		// batcher's values may skip; nobody's may step back or repeat.
		step := e.val - prev[e.v]
		if batched := slices.Contains(vars[batcher], e.v); step < 1 || (!batched && step != 1) {
			t.Fatalf("variable %d: value %d applied after %d: per-link FIFO broken", e.v, e.val, prev[e.v])
		}
		prev[e.v] = e.val
	}
	for id := 1; id < len(c.nodes); id++ {
		if !slices.Equal(logs[id], ref) {
			t.Errorf("node %d applied a different order than the root (%d events against %d)", id, len(logs[id]), len(ref))
		}
	}
	if c.nodes[batcher].Stats().Batches == 0 {
		t.Error("no batch frame was sent: the TBatch path went untested")
	}
}

// TestSelfSendFromReaderDispatchIsQueued: under quorum acks the root's
// own Sync barrier is answered when a member's ack arrives — on a link
// reader, inside dispatch, under n.mu — with a TSyncAck the root sends
// to itself. That send must queue for recvLoop; delivered inline it
// would re-enter the node lock.
func TestSelfSendFromReaderDispatchIsQueued(t *testing.T) {
	c, _ := newTCPCluster(t, 3, false)
	for _, n := range c.nodes {
		n.SetQuorumAcks(true)
	}
	root := c.nodes[0]
	for k := int64(1); k <= 20; k++ {
		if err := root.Write(tGroup, tVar, k); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := root.SyncContext(ctx, tGroup)
		cancel()
		if err != nil {
			t.Fatalf("root's barrier %d: %v (stats %+v)", k, err, root.Stats())
		}
	}
	if root.Stats().QuorumAckWaits == 0 {
		t.Error("no barrier ever waited for a member's ack: the self-send from a reader's dispatch went untested")
	}
}

// TestEndpointWithoutDeliverKeepsRecvPath: a decorator written against
// transport.Endpoint alone (bench/'s tracer; detsim's endpoint is the
// same case) hides the capability even around TCP, and the node then
// takes every frame through Recv exactly as before — one-message batches.
func TestEndpointWithoutDeliverKeepsRecvPath(t *testing.T) {
	tcp, err := transport.NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, newCountingNet(tcp), true) // countingEndpoint embeds the bare interface
	if err := c.nodes[1].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 500; k++ {
		if err := c.nodes[1].Write(tGroup, tVar, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.nodes[1].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 500)
		if hw := n.Metrics().Gauge(obs.GaugeRecvBacklog).Max(); hw != 1 {
			t.Errorf("node %d: recv_backlog high-water = %d, want 1: frames bypassed the decorator's Recv", n.ID(), hw)
		}
	}
}

// TestCloseWhileReaderWaitsForNodeLock: a link reader parked in deliver,
// waiting for n.mu, must not wedge Close — Close gives the lock up before
// it closes the endpoint, whose Close waits for that reader — and nothing
// is dispatched once Close has returned.
func TestCloseWhileReaderWaitsForNodeLock(t *testing.T) {
	c, _ := newTCPCluster(t, 3, false)
	victim := c.nodes[2]
	var closed atomic.Bool
	if _, err := victim.OnVarChange(tGroup, tVar, func(int64) {
		if closed.Load() {
			t.Error("a message was dispatched after Close returned")
		}
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keeps the root's link into the victim busy
		defer wg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.nodes[1].Write(tGroup, tVar, k); err != nil {
				t.Error(err)
				return
			}
			if k%64 == 0 {
				if _, err := c.nodes[0].WaitGE(tGroup, tVar, k); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	waitFor(t, c, 5*time.Second, "traffic to reach the victim", func() bool {
		v, _ := victim.Read(tGroup, tVar)
		return v > 0
	})
	victim.mu.Lock()
	time.Sleep(20 * time.Millisecond) // the reader runs into the held lock
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = victim.Close()
		closed.Store(true)
	}()
	time.Sleep(5 * time.Millisecond) // Close queues for the lock behind the reader
	victim.mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a link reader inside deliver")
	}
	time.Sleep(20 * time.Millisecond) // a late dispatch would land here
	close(stop)
	wg.Wait()
}

// TestBlockedNodePushesBackInsteadOfQueueing: while a member's node lock
// is held its link readers stop reading, so the root's fan-out to it
// backs up through TCP into the root's bounded outbox, which sheds —
// nothing piles up at the member. When the lock is released the member
// sees the gap and repairs it like any other loss.
func TestBlockedNodePushesBackInsteadOfQueueing(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the loopback socket buffers")
	}
	c, net := newTCPCluster(t, 4, false)
	for _, n := range c.nodes {
		// The stalled member must not take its own stall for a dead root.
		n.SetTimers(0, time.Minute, 0)
	}
	const tFree VarID = 12
	writer, witness, stalled := c.nodes[1], c.nodes[3], c.nodes[2]
	if err := writer.Write(tGroup, tFree, 1); err != nil {
		t.Fatal(err)
	}
	waitValue(t, stalled, tFree, 1)

	stalled.mu.Lock()
	k := int64(1)
	for deadline := time.Now().Add(60 * time.Second); net.TransportStats().SendDrops == 0; {
		if time.Now().After(deadline) {
			stalled.mu.Unlock()
			t.Fatal("the root's outbox never shed: the stalled member's backlog is growing somewhere unbounded")
		}
		// Paced on a healthy member, so only the stalled link backs up.
		for i := 0; i < 64; i++ {
			k++
			if err := writer.Write(tGroup, tFree, k); err != nil {
				stalled.mu.Unlock()
				t.Fatal(err)
			}
		}
		if _, err := witness.WaitGE(tGroup, tFree, k); err != nil {
			stalled.mu.Unlock()
			t.Fatal(err)
		}
	}
	hw := stalled.Metrics().Gauge(obs.GaugeRecvBacklog).Max()
	stalled.mu.Unlock()

	waitFor(t, c, 30*time.Second, "the stalled member to catch up", func() bool {
		v, _ := stalled.Read(tGroup, tFree)
		return v == k
	})
	if s := stalled.Stats(); s.Gaps == 0 {
		t.Errorf("the stalled member saw no gap although the root shed %d frames to it (stats %+v)", net.TransportStats().SendDrops, s)
	}
	// One socket read is at most the reader's 4 KiB buffer, ~70 frames:
	// whatever arrived while the lock was held stayed in the kernel.
	if after := stalled.Metrics().Gauge(obs.GaugeRecvBacklog).Max(); hw > 128 || after > 128 {
		t.Errorf("recv_backlog high-water = %d held, %d after: arrivals were queued in the node", hw, after)
	}
}
