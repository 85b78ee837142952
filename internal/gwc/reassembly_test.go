package gwc

import (
	"testing"
	"testing/quick"

	"optsync/internal/transport"
	"optsync/internal/wire"
)

// soloNode builds a node whose group pretends the root is elsewhere, so
// sequenced messages can be injected directly through handle().
func soloNode(t *testing.T, history int) *Node {
	t.Helper()
	net, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(1, ep)
	if err := n.Join(GroupConfig{
		ID: tGroup, Root: 0, Members: []int{0, 1},
		Guards:      map[VarID]LockID{tVar: tLock},
		HistorySize: history,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = n.Close()
		_ = net.Close()
	})
	return n
}

// handle injects one message the way recvLoop would: a backlog of one.
func (n *Node) handle(m wire.Message) { n.dispatch([]wire.Message{m}) }

// seqUpdate builds a sequenced update message.
func seqUpdate(seq uint64, v VarID, val int64) wire.Message {
	return wire.Message{
		Type: wire.TSeqUpdate, Group: uint32(tGroup), Src: 0, Origin: 0,
		Seq: seq, Var: uint32(v), Val: val,
	}
}

func TestReassemblyInOrder(t *testing.T) {
	n := soloNode(t, 0)
	for s := uint64(1); s <= 5; s++ {
		n.handle(seqUpdate(s, tVar, int64(s)))
	}
	if got, _ := n.Read(tGroup, tVar); got != 5 {
		t.Errorf("value = %d, want 5", got)
	}
	s := n.Stats()
	if s.Gaps != 0 || s.Duplicates != 0 {
		t.Errorf("stats = %+v, want no gaps or duplicates", s)
	}
}

func TestReassemblyBuffersOutOfOrder(t *testing.T) {
	n := soloNode(t, 0)
	n.handle(seqUpdate(3, tVar, 3)) // gap: 1 and 2 missing
	n.handle(seqUpdate(2, tVar, 2))
	if got, _ := n.Read(tGroup, tVar); got != 0 {
		t.Errorf("value applied before the gap filled: %d", got)
	}
	n.handle(seqUpdate(1, tVar, 1))
	// All three must now apply in order, ending at 3.
	if got, _ := n.Read(tGroup, tVar); got != 3 {
		t.Errorf("value = %d, want 3 after gap fill", got)
	}
	if gaps := n.Stats().Gaps; gaps != 2 {
		t.Errorf("Gaps = %d, want 2 (seq 3 and seq 2 were early)", gaps)
	}
}

func TestReassemblyDropsDuplicates(t *testing.T) {
	n := soloNode(t, 0)
	n.handle(seqUpdate(1, tVar, 7))
	n.handle(seqUpdate(1, tVar, 999)) // replay
	if got, _ := n.Read(tGroup, tVar); got != 7 {
		t.Errorf("duplicate overwrote value: %d", got)
	}
	if d := n.Stats().Duplicates; d != 1 {
		t.Errorf("Duplicates = %d, want 1", d)
	}
	// Duplicate of a pending (not yet applied) message is also dropped.
	n.handle(seqUpdate(5, tVar, 5))
	n.handle(seqUpdate(5, tVar, 5))
	if gaps := n.Stats().Gaps; gaps != 1 {
		t.Errorf("Gaps = %d, want 1 (second copy of pending seq must not recount)", gaps)
	}
}

// Property: any permutation of a sequenced burst converges to the value
// of the highest sequence number, with nothing applied out of order.
func TestReassemblyPermutationProperty(t *testing.T) {
	prop := func(perm []uint8) bool {
		const burst = 8
		n := soloNode(t, 0)
		// Build a permutation of 1..burst from the random input.
		order := make([]uint64, 0, burst)
		used := make(map[uint64]bool, burst)
		for _, p := range perm {
			s := uint64(p)%burst + 1
			if !used[s] {
				used[s] = true
				order = append(order, s)
			}
		}
		for s := uint64(1); s <= burst; s++ {
			if !used[s] {
				order = append(order, s)
			}
		}
		for _, s := range order {
			n.handle(seqUpdate(s, tVar, int64(s)))
		}
		got, err := n.Read(tGroup, tVar)
		return err == nil && got == burst
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// rootNodeHarness builds a node that IS the root of its group, to unit
// test the sequencing/lock-manager state machine via injected messages.
func rootNodeHarness(t *testing.T, history int) *Node {
	t.Helper()
	net, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, ep)
	if err := n.Join(GroupConfig{
		ID: tGroup, Root: 0, Members: []int{0, 1, 2},
		Guards:      map[VarID]LockID{tVar: tLock},
		HistorySize: history,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = n.Close()
		_ = net.Close()
	})
	return n
}

func TestRootHistoryWindowExhausted(t *testing.T) {
	n := rootNodeHarness(t, 4) // tiny retransmission buffer
	for i := 1; i <= 10; i++ {
		n.handle(wire.Message{
			Type: wire.TUpdate, Group: uint32(tGroup), Src: 1, Origin: 1,
			Var: 99, Val: int64(i),
		})
	}
	// Ask for everything from seq 1: seqs 1..6 have fallen out of the
	// 4-entry window, only 7..10 can be served.
	n.handle(wire.Message{
		Type: wire.TNack, Group: uint32(tGroup), Src: 1, Seq: 1, Val: 10,
	})
	s := n.Stats()
	if s.Retransmits != 4 {
		t.Errorf("Retransmits = %d, want 4 (window size)", s.Retransmits)
	}
	if s.LostHistory != 6 {
		t.Errorf("LostHistory = %d, want 6", s.LostHistory)
	}
}

func TestRootNackBeyondCurrentSeqHarmless(t *testing.T) {
	n := rootNodeHarness(t, 16)
	n.handle(wire.Message{
		Type: wire.TUpdate, Group: uint32(tGroup), Src: 1, Origin: 1, Var: 99, Val: 1,
	})
	// Probe far beyond the current sequence (the resync probe's shape).
	n.handle(wire.Message{
		Type: wire.TNack, Group: uint32(tGroup), Src: 1, Seq: 2, Val: 1 << 40,
	})
	if s := n.Stats(); s.Retransmits != 0 || s.LostHistory != 0 {
		t.Errorf("stats = %+v, want no retransmission for an up-to-date prober", s)
	}
}

func TestRootDuplicateLockRequestIgnored(t *testing.T) {
	n := rootNodeHarness(t, 16)
	req := wire.Message{
		Type: wire.TLockReq, Group: uint32(tGroup), Src: 1, Origin: 1, Lock: uint32(tLock),
	}
	n.handle(req)
	n.handle(req) // retry while already holder
	if g := n.Stats().LockGrants; g != 1 {
		t.Errorf("LockGrants = %d, want 1", g)
	}
	// A second requester queues once even if it retries.
	req2 := req
	req2.Src, req2.Origin = 2, 2
	n.handle(req2)
	n.handle(req2)
	n.mu.Lock()
	qlen := len(n.roots[tGroup].book.lock(tLock).queue)
	n.mu.Unlock()
	if qlen != 1 {
		t.Errorf("queue length = %d, want 1 (duplicate requests must dedup)", qlen)
	}
}

func TestRootLockCancelLeavesNoPhantomEntry(t *testing.T) {
	n := rootNodeHarness(t, 16)
	req := func(origin int32) {
		n.handle(wire.Message{
			Type: wire.TLockReq, Group: uint32(tGroup), Src: origin, Origin: origin, Lock: uint32(tLock),
		})
	}
	cancel := func(origin int32) {
		n.handle(wire.Message{
			Type: wire.TLockCancel, Group: uint32(tGroup), Src: origin, Origin: origin, Lock: uint32(tLock),
		})
	}
	req(1) // granted
	req(2) // queued behind 1
	cancel(2)
	n.mu.Lock()
	ls := n.roots[tGroup].book.lock(tLock)
	holder, qlen := soleNode(ls), len(ls.queue)
	n.mu.Unlock()
	if holder != 1 {
		t.Errorf("holder = %d after a waiter cancelled, want 1", holder)
	}
	if qlen != 0 {
		t.Errorf("queue length = %d after cancel, want 0 (phantom entry)", qlen)
	}
	// The next release must free the lock outright, never granting the
	// withdrawn waiter.
	n.handle(wire.Message{
		Type: wire.TLockRel, Group: uint32(tGroup), Src: 1, Origin: 1, Lock: uint32(tLock), Var: 1,
	})
	n.mu.Lock()
	holder = soleNode(n.roots[tGroup].book.lock(tLock))
	n.mu.Unlock()
	if holder != -1 {
		t.Errorf("holder = %d after release, want -1 (cancelled waiter must not inherit)", holder)
	}

	// A cancel that loses the race with its own grant releases on the
	// requester's behalf instead of stranding the queue.
	req(3) // granted immediately
	req(4) // queued
	cancel(3)
	n.mu.Lock()
	ls = n.roots[tGroup].book.lock(tLock)
	holder, qlen = soleNode(ls), len(ls.queue)
	n.mu.Unlock()
	if holder != 4 || qlen != 0 {
		t.Errorf("holder = %d queue = %d after holder cancel, want lock handed to 4", holder, qlen)
	}
	if c := n.Stats().LockCancels; c != 2 {
		t.Errorf("LockCancels = %d, want 2", c)
	}
}

func TestRootStaleEpochReleaseIgnored(t *testing.T) {
	n := rootNodeHarness(t, 16)
	grant := func(origin int32) {
		n.handle(wire.Message{
			Type: wire.TLockReq, Group: uint32(tGroup), Src: origin, Origin: origin, Lock: uint32(tLock),
		})
	}
	release := func(origin int32, epoch uint32) {
		n.handle(wire.Message{
			Type: wire.TLockRel, Group: uint32(tGroup), Src: origin, Origin: origin,
			Lock: uint32(tLock), Var: epoch,
		})
	}
	grant(1)      // epoch 1, holder 1
	release(1, 1) // freed
	grant(1)      // epoch 2, holder 1 again
	release(1, 1) // stale duplicate from epoch 1: must be ignored
	n.mu.Lock()
	holder := soleNode(n.roots[tGroup].book.lock(tLock))
	n.mu.Unlock()
	if holder != 1 {
		t.Errorf("holder = %d after stale release, want 1 (epoch 2 grant intact)", holder)
	}
	release(1, 2) // the real release
	n.mu.Lock()
	holder = soleNode(n.roots[tGroup].book.lock(tLock))
	n.mu.Unlock()
	if holder != -1 {
		t.Errorf("holder = %d after valid release, want -1", holder)
	}
}

func TestRootSequencesAcrossManyVariables(t *testing.T) {
	n := rootNodeHarness(t, 1024)
	for i := 1; i <= 100; i++ {
		n.handle(wire.Message{
			Type: wire.TUpdate, Group: uint32(tGroup), Src: 1, Origin: 1,
			Var: uint32(200 + i%7), Val: int64(i),
		})
	}
	n.mu.Lock()
	seq := n.roots[tGroup].ring.seq()
	n.mu.Unlock()
	if seq != 100 {
		t.Errorf("root sequence = %d, want 100", seq)
	}
}
