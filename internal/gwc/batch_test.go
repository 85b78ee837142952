package gwc

import (
	"errors"
	"testing"
	"time"

	"optsync/internal/transport"
)

// enableBatching turns the batched update plane on for every node.
func (c *cluster) enableBatching(delay time.Duration, msgs int) {
	for _, nd := range c.nodes {
		nd.SetBatching(delay, msgs)
	}
}

func TestBatchSizeFlush(t *testing.T) {
	c := newInProcCluster(t, 3, false)
	c.enableBatching(time.Hour, 4) // only the size bound can flush
	w := c.nodes[1]
	for i := 0; i < 4; i++ {
		if err := w.Write(tGroup, VarID(20+i), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range c.nodes {
		for i := 0; i < 4; i++ {
			waitValue(t, nd, VarID(20+i), int64(i+1))
		}
	}
	st := w.Stats()
	if st.FlushReasons.Size != 1 {
		t.Errorf("size flushes = %d, want 1", st.FlushReasons.Size)
	}
	if st.Batches != 1 {
		t.Errorf("batches sent = %d, want 1", st.Batches)
	}
	if rs := c.nodes[0].Stats(); rs.Batches == 0 {
		t.Error("root fanned the batch out unbatched")
	}
}

func TestBatchDelayFlushAndCoalescing(t *testing.T) {
	c := newInProcCluster(t, 3, false)
	c.enableBatching(20*time.Millisecond, 100)
	w := c.nodes[2]
	for i := 1; i <= 10; i++ {
		if err := w.Write(tGroup, tVar, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range c.nodes {
		waitValue(t, nd, tVar, 10)
	}
	st := w.Stats()
	if st.Coalesced != 9 {
		t.Errorf("coalesced = %d, want 9 (10 writes to one var in-window)", st.Coalesced)
	}
	if st.FlushReasons.Delay != 1 {
		t.Errorf("delay flushes = %d, want 1", st.FlushReasons.Delay)
	}
	// Ten writes combined into one wire message, so no batch frame was
	// even needed.
	if st.Batches != 0 {
		t.Errorf("batches sent = %d, want 0 for a fully combined window", st.Batches)
	}
}

// TestBatchReleaseFlushOrdering checks the paper's GWC invariant under
// batching: the queue flushes before the release message, so by the time
// the next holder sees its grant, the previous section's data has
// already been applied. The delay bound is an hour, so only the release
// flush can have shipped the writes.
func TestBatchReleaseFlushOrdering(t *testing.T) {
	c := newInProcCluster(t, 3, true)
	c.enableBatching(time.Hour, 100)
	a, b := c.nodes[1], c.nodes[2]

	if err := a.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(tGroup, tVar, 7); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(tGroup, tVarB, 8); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.FlushReasons.Release != 1 {
		t.Errorf("release flushes = %d, want 1", st.FlushReasons.Release)
	}

	if err := b.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Release(tGroup, tLock) }()
	// No waiting: holding the lock must already imply visibility.
	if got, _ := b.Read(tGroup, tVar); got != 7 {
		t.Errorf("holder read %d before section data, want 7", got)
	}
	if got, _ := b.Read(tGroup, tVarB); got != 8 {
		t.Errorf("holder read %d before section data, want 8", got)
	}
}

// TestBatchGuardedEpochsNotCombined checks that writes to the same
// variable from different grant epochs stay distinct in the queue: the
// root must judge each against its own epoch tag.
func TestBatchGuardedEpochsNotCombined(t *testing.T) {
	c := newInProcCluster(t, 2, true)
	w := c.nodes[1]
	w.SetBatching(time.Hour, 100)

	if err := w.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(tGroup, tLock); err != nil { // flushes epoch-1 write
		t.Fatal(err)
	}
	if err := w.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tGroup, tVar, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[0], tVar, 2)
	if st := w.Stats(); st.Coalesced != 0 {
		t.Errorf("coalesced = %d, want 0 across grant epochs", st.Coalesced)
	}
}

func TestBatchTreeFanout(t *testing.T) {
	net, err := transport.NewInProc(9)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int, 9)
	for i := range members {
		members[i] = i
	}
	c := &cluster{net: net, nodes: make([]*Node, 9)}
	for i := range c.nodes {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = NewNode(i, ep)
		// Tracing drives waitFor's wake-ups and timeout dumps; it is
		// atomics-only, so it cannot mask the races these tests hunt.
		c.nodes[i].Metrics().Trace.Enable(0)
		if err := c.nodes[i].Join(GroupConfig{
			ID:         tGroup,
			Root:       0,
			Members:    members,
			TreeFanout: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			_ = nd.Close()
		}
		_ = net.Close()
	})
	c.enableBatching(time.Hour, 3)
	w := c.nodes[5]
	for i := 0; i < 3; i++ {
		if err := w.Write(tGroup, VarID(30+i), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Every member — including leaves that only hear via relayed batch
	// frames — must converge.
	for _, nd := range c.nodes {
		for i := 0; i < 3; i++ {
			waitValue(t, nd, VarID(30+i), int64(i+1))
		}
	}
}

// TestBatchLossRecovery drops sequenced traffic (whole batch frames
// included) and checks NACK-driven retransmission repairs the stream.
func TestBatchLossRecovery(t *testing.T) {
	inner, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	fl := transport.NewFlaky(inner, transport.FaultPlan{DropRate: 0.4, Seed: 11, DownOnly: true})
	c := newCluster(t, fl, false)
	for _, nd := range c.nodes {
		nd.SetTimers(5*time.Millisecond, 0, 0)
	}
	c.enableBatching(time.Millisecond, 8)
	w := c.nodes[1]
	const rounds = 40
	for i := 1; i <= rounds; i++ {
		if err := w.Write(tGroup, tVarB, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			time.Sleep(3 * time.Millisecond) // let windows close so frames multiply
		}
	}
	for _, nd := range c.nodes {
		waitValue(t, nd, tVarB, rounds)
	}
	dropped, _, _ := fl.Stats()
	if dropped == 0 {
		t.Fatal("fault plan dropped nothing; test exercised no recovery")
	}
	if rs := c.nodes[0].Stats(); rs.Retransmits == 0 {
		t.Error("stream converged without retransmissions despite drops")
	}
}

// TestBatchFailover runs the batched plane through a root crash: queued
// and future writes must survive the election and reach the new reign.
func TestBatchFailover(t *testing.T) {
	c, fl := newChaosCluster(t, 3, false)
	c.enableBatching(time.Millisecond, 8)
	w := c.nodes[2]
	if err := w.Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.nodes {
		waitValue(t, nd, tVar, 1)
	}
	fl.Crash(0)
	waitAdopted(t, c, c.nodes[2], 1)
	if err := w.Write(tGroup, tVar, 2); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[1], tVar, 2)
	waitValue(t, c.nodes[2], tVar, 2)
}

// TestBatchReleaseCloseRaceKeepsFlushOrdering races Release against Close
// on a member whose batch window is an hour long, so only those two paths
// can ship the section's queued guarded writes. Whichever side wins the
// node mutex must drain the queue exactly once, while the member is still
// the lock holder and before the TLockRel leaves the node. If a flush
// were ever dropped by Close or reordered after the release, the writes
// would reach the root after it freed the lock, be judged NotHolder, and
// be suppressed — a silently lost critical section.
func TestBatchReleaseCloseRaceKeepsFlushOrdering(t *testing.T) {
	for i := 0; i < 30; i++ {
		c := newInProcCluster(t, 2, true)
		w := c.nodes[1]
		w.SetBatching(time.Hour, 100)
		if err := w.Acquire(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		want := int64(i + 1)
		if err := w.Write(tGroup, tVar, want); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(tGroup, tVarB, -want); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Losing the race to Close is fine; dropping the flush is not.
			_ = w.Release(tGroup, tLock)
		}()
		_ = w.Close()
		<-done

		// The member's endpoint only closes its own inbox, so the release
		// always reaches the root; wait for it to be processed.
		root := c.nodes[0]
		waitFor(t, c, 5*time.Second, "root to process the release", func() bool {
			root.mu.Lock()
			defer root.mu.Unlock()
			return root.roots[tGroup].book.lock(tLock).free()
		})
		// The root handled the release, so FIFO says the flushed section
		// data was already sequenced — no waiting, and nothing suppressed.
		if got, err := root.Read(tGroup, tVar); err != nil || got != want {
			t.Fatalf("iter %d: root var A = %d (%v), want %d: section data lost in Release/Close race", i, got, err, want)
		}
		if got, err := root.Read(tGroup, tVarB); err != nil || got != -want {
			t.Fatalf("iter %d: root var B = %d (%v), want %d: section data lost in Release/Close race", i, got, err, -want)
		}
		if s := root.Stats().Suppressed; s != 0 {
			t.Fatalf("iter %d: root suppressed %d guarded writes: flush reordered after TLockRel", i, s)
		}
	}
}

func TestSentinelErrors(t *testing.T) {
	net, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0, _ := net.Endpoint(0)
	n := NewNode(0, ep0)
	t.Cleanup(func() { _ = net.Close() })

	if err := n.Join(GroupConfig{ID: 9, Root: 1, Members: []int{1}}); !errors.Is(err, ErrNotMember) {
		t.Errorf("Join outside members: %v, want ErrNotMember", err)
	}
	if _, err := n.Read(42, tVar); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("Read of unjoined group: %v, want ErrUnknownGroup", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(GroupConfig{ID: 9, Root: 0, Members: []int{0, 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Join after Close: %v, want ErrClosed", err)
	}
}
