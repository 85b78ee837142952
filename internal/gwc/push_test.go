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

// TestCrossRootedGroupsPushWithoutDeadlock: nodes 0 and 1 each root a
// group the other is a member of and both write flat out (ten 20 ms
// bursts), so each node's fan-out pushes into the other while the other's
// pushes into it; every write must become visible at the other node. A
// node's consumer — its receive loop while it dispatches, or a writer that
// is running the node's root handlers in place (each Write here is pushed
// at the writer's own node, its group's root) — has the node's mailbox
// marked busy, so what the peer pushes at it meanwhile queues without
// reaching for its lock: writers alone cannot close the cycle. The pushes
// that can meet head on are the ones a node makes under its lock from
// outside any consumer — a maintenance tick that promotes or services a
// quorum multicasts too — and two goroutines here do just that, each
// holding its own node's lock while it pushes at the other. A consumer
// that waited for the node lock instead of trying it (tryDeliver with Lock
// for TryLock) stops both, and every writer behind them, within
// microseconds: the test then fails at its 10 s deadline.
func TestCrossRootedGroupsPushWithoutDeadlock(t *testing.T) {
	net, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]*Node, 2)
	for i := range ns {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = NewNode(i, ep)
		for root := range ns {
			if err := ns[i].Join(GroupConfig{ID: GroupID(1 + root), Root: root, Members: []int{0, 1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer func() {
		for _, n := range ns {
			_ = n.Close()
		}
		_ = net.Close()
	}()
	var rootInPlace, rootQueued atomic.Int64
	for i, n := range ns {
		countSequencing(t, n, GroupID(1+i), &rootInPlace, &rootQueued)
	}
	// Ten bursts, the mailboxes drained between them: flat out the queues
	// never empty and everything queues (under -race beside other
	// packages, 99 191 pushes of 99 191), which tests nothing. A burst
	// that starts on idle nodes has both sides pushing in place at once.
	wrote, stale := make([]int64, 2), make([]int, 2)
	for burst := 0; burst < 10; burst++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i, n := range ns {
			wg.Add(2)
			go func() { // the node's own group, sequenced here and pushed at the peer
				defer wg.Done()
				for k := wrote[i] + 1; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := n.Write(GroupID(1+i), tVar, k); err != nil {
						t.Error(err)
						return
					}
					wrote[i] = k
				}
			}()
			go func() { // what a tick-driven multicast does: push under the node lock
				defer wg.Done()
				// A sequenced frame the peer has long applied: counted as a
				// duplicate and otherwise ignored.
				m := wire.Message{Type: wire.TSeqUpdate, Group: uint32(1 + i), Src: int32(i), Var: uint32(tVarB)}
				for {
					select {
					case <-stop:
						return
					default:
					}
					n.mu.Lock()
					n.push(1-i, m)
					n.mu.Unlock()
					stale[i]++
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		close(stop)
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			// The nodes are wedged and Close would wait for them: leak them.
			ns = nil
			t.Fatal("deadlock: two nodes pushing at each other under their own locks never finished")
		}
		for i := range ns {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if ok, err := ns[1-i].WaitGEContext(ctx, GroupID(1+i), tVar, wrote[i]); !ok || err != nil {
				t.Fatalf("node %d's last write (%d) never showed at node %d: %v", i, wrote[i], 1-i, err)
			}
			cancel()
			for end := time.Now().Add(10 * time.Second); ns[1-i].Stats().Duplicates < stale[i]; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(end) {
					t.Fatalf("node %d saw %d of the %d frames pushed at it under the peer's lock", 1-i, ns[1-i].Stats().Duplicates, stale[i])
				}
			}
		}
	}
	if s := net.TransportStats(); s.PushedInPlace == 0 || s.PushedQueued == 0 || s.PushedDeclined == 0 {
		t.Errorf("pushed in place %d, queued %d, declined %d: the test left a path out", s.PushedInPlace, s.PushedQueued, s.PushedDeclined)
	}
	if in, q := rootInPlace.Load(), rootQueued.Load(); in == 0 || q == 0 {
		t.Errorf("%d writes ran their root in place, %d through its receive loop: the test exercised one path only", in, q)
	}
}

// countSequencing counts how root, which roots gid, comes to sequence the
// writes to tVar: on the writer's goroutine (the root's own apply of the
// stamped frame has Write among its callers) or on its receive loop's, the
// writer's push having queued.
func countSequencing(t *testing.T, root *Node, gid GroupID, inPlace, queued *atomic.Int64) {
	t.Helper()
	if _, err := root.OnVarChange(gid, tVar, func(int64) {
		if onStack("gwc.(*Node).Write") {
			inPlace.Add(1)
		} else {
			queued.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPushIntoClosingNode: Close racing a stream of pushes returns, and a
// frame that finds the node closed is dropped like a send to a closed
// mailbox.
func TestPushIntoClosingNode(t *testing.T) {
	c := newInProcCluster(t, 2, false)
	root, member := c.nodes[0], c.nodes[1]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := root.Write(tGroup, tVar, k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if ok, err := member.WaitGE(tGroup, tVar, 100); !ok || err != nil { // the stream is flowing
		t.Fatalf("WaitGE = %v, %v", ok, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- member.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while frames were being pushed at the node")
	}
	close(stop)
	wg.Wait()
	// The very next frame of the stream: an open node would apply it.
	member.mu.Lock()
	g := member.groups[tGroup]
	before := g.varValue(tVar)
	frame := []wire.Message{{Type: wire.TSeqUpdate, Group: uint32(tGroup), Var: uint32(tVar), Val: before + 1, Seq: g.nextSeq, Epoch: g.epoch}}
	member.mu.Unlock()
	if !member.tryDeliver(frame) {
		t.Error("a closed node declined a pushed frame; it should take it and drop it")
	}
	if after, _ := member.Read(tGroup, tVar); after != before {
		t.Errorf("a closed node applied a pushed frame: %d -> %d", before, after)
	}
}

// TestFanOutRunsInPlace pins the point of the push: in a quiet cluster the
// root's receive loop applies its fan-out at the members itself. If a
// later change makes the in-place path decline or queue as a rule, every
// test still passes and only the benchmark knows; this one knows too.
func TestFanOutRunsInPlace(t *testing.T) {
	net, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, net, false)
	for k := int64(1); k <= 2000; k++ {
		if err := c.nodes[1].Write(tGroup, tVar, k); err != nil {
			t.Fatal(err)
		}
		if ok, err := c.nodes[3].WaitGE(tGroup, tVar, k); !ok || err != nil {
			t.Fatalf("WaitGE = %v, %v", ok, err)
		}
	}
	// One push up and three down a round.
	s := net.TransportStats()
	if total := s.PushedInPlace + s.PushedQueued + s.PushedDeclined; total < 4*2000 || s.PushedInPlace*10 < total*9 {
		t.Errorf("%d of %d pushes ran in place, want at least 90%% of at least 8000", s.PushedInPlace, total)
	}
}

// TestWriteSequencesInPlace pins the up-plane half: on an idle group the
// goroutine that calls Write runs the root and, through the root's
// fan-out, every member, so the value is at the farthest member when Write
// returns — no goroutine woken, no clock read, and the WaitGE that follows
// has nothing to park for (the test reads member 3's copy first: what that
// read finds is what WaitGE's first look finds).
func TestWriteSequencesInPlace(t *testing.T) {
	const nodes, rounds = 4, 2000
	net, ns, clocks := newClockedCluster(t, nodes, nil)
	var atRoot, queued atomic.Int64
	countSequencing(t, ns[0], tGroup, &atRoot, &queued)
	there := 0 // rounds in which member 3 had the value when Write returned
	for k := int64(1); k <= rounds; k++ {
		if err := ns[1].Write(tGroup, tVar, k); err != nil {
			t.Fatal(err)
		}
		if v, _ := ns[3].Read(tGroup, tVar); v >= k {
			there++
		}
		if ok, err := ns[3].WaitGE(tGroup, tVar, k); !ok || err != nil {
			t.Fatalf("WaitGE = %v, %v", ok, err)
		}
	}
	if got := atRoot.Load(); got*10 < rounds*9 {
		t.Errorf("the root sequenced %d of %d writes on the writer's goroutine (%d on its receive loop's), want at least 90%%", got, rounds, queued.Load())
	}
	if there*10 < rounds*9 {
		t.Errorf("member 3 had the value when Write returned in %d of %d rounds, want at least 90%%", there, rounds)
	}
	s := net.TransportStats()
	if total := s.PushedInPlace + s.PushedQueued + s.PushedDeclined; total < 4*rounds || s.PushedInPlace*10 < total*9 {
		t.Errorf("%d of %d pushes ran in place, want at least 90%% of at least %d", s.PushedInPlace, total, 4*rounds)
	}
	// Everything the writer ran in place — the root's handlers, each
	// member's apply — has Write among its callers.
	for i, ck := range clocks {
		if w, p := ck.nowFromWrite.Load(), ck.nowFromPush.Load(); w != 0 || p != 0 {
			t.Errorf("node %d's clock was read %d times under Write and %d times under a pushed frame's apply, want 0 and 0", i, w, p)
		}
	}
}

// TestRootLocalWriteSequencesInPlace: a write on the root node is pushed
// at the node's own mailbox and runs under TryLock of its own lock, which
// Write has released. A frame offered there by a caller that holds the
// node lock — the shape a release's batch flush would have, were it pushed
// — is declined and queued for the receive loop, never re-entered (with
// Lock for TryLock in tryDeliver this test hangs on its own lock).
func TestRootLocalWriteSequencesInPlace(t *testing.T) {
	const rounds = 1000
	net, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, net, false)
	root, member := c.nodes[0], c.nodes[1]
	var own, queued atomic.Int64
	countSequencing(t, root, tGroup, &own, &queued)
	for k := int64(1); k <= rounds; k++ {
		if err := root.Write(tGroup, tVar, k); err != nil {
			t.Fatal(err)
		}
		if ok, err := member.WaitGE(tGroup, tVar, k); !ok || err != nil {
			t.Fatalf("WaitGE = %v, %v", ok, err)
		}
	}
	if got := own.Load(); got*10 < rounds*9 {
		t.Errorf("the root sequenced %d of its own %d writes on the writer's goroutine (%d on its receive loop's), want at least 90%%", got, rounds, queued.Load())
	}

	before := net.TransportStats()
	root.mu.Lock()
	r := root.roots[tGroup]
	seq := r.ring.seq()
	root.push(root.id, wire.Message{Type: wire.TUpdate, Group: uint32(tGroup), Src: int32(root.id), Origin: int32(root.id), Var: uint32(tVarB), Val: 7, Epoch: r.epoch})
	reentered := r.ring.seq() != seq
	root.mu.Unlock()
	if reentered {
		t.Error("a frame pushed at the node's own mailbox under its lock was handled under that hold")
	}
	waitValue(t, member, tVarB, 7) // the receive loop had it
	after := net.TransportStats()
	if got := after.PushedDeclined - before.PushedDeclined; got != 1 {
		t.Errorf("%d pushes declined, want 1 (in place %d -> %d, queued %d -> %d)", got,
			before.PushedInPlace, after.PushedInPlace, before.PushedQueued, after.PushedQueued)
	}
}

// TestInPlaceWritesKeepTheFenceOpen: the root's proof of contact from a
// member whose writes all run in place is the last tick's timestamp, not a
// clock read (tryDeliver). Every other up-frame is dropped here — no
// probe, no ack reaches the root — so in-place writes are all the root
// hears for three failure-detection periods: it must not fence, because
// the tick re-stamps msgNow every interval. Cut a majority off and it
// must, within failAfter plus one interval: the stamp is never late.
func TestInPlaceWritesKeepTheFenceOpen(t *testing.T) {
	const retry, failAfter = 10 * time.Millisecond, 200 * time.Millisecond
	inner, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	fl := transport.NewFlaky(inner, transport.FaultPlan{DropRate: 1,
		Spare: []wire.Type{wire.TUpdate, wire.TSeqUpdate, wire.TSeqLock, wire.THeartbeat}})
	c := newCluster(t, fl, false)
	for _, nd := range c.nodes {
		nd.SetTimers(retry, failAfter, time.Hour)
	}
	root := c.nodes[0]
	writeFor := func(d time.Duration) {
		for end, k := time.Now().Add(d), int64(1); time.Now().Before(end); k++ {
			for _, nd := range c.nodes[1:] {
				if err := nd.Write(tGroup, VarID(100+nd.id), k); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	writeFor(3 * failAfter)
	if st := root.Stats(); st.Fenced != 0 {
		t.Fatalf("the root fenced %d time(s) while all three members were writing to it", st.Fenced)
	}
	if dropped, _, _ := fl.Stats(); dropped == 0 {
		t.Error("no probe was dropped: the root heard more than the writes")
	}
	s := inner.TransportStats()
	if total := s.PushedInPlace + s.PushedQueued + s.PushedDeclined; s.PushedInPlace*10 < total*9 {
		t.Errorf("%d of %d pushes ran in place: the root heard the writes through its clock-reading dispatch", s.PushedInPlace, total)
	}

	cutAt := time.Now()
	fl.Partition([]int{0}, []int{2, 3}) // the root and member 1: two of four
	writeFor(failAfter + 10*retry)
	root.mu.Lock()
	fenced, fencedAt := root.roots[tGroup].fenced, root.roots[tGroup].fencedAt
	root.mu.Unlock()
	// One interval for the tick that notices; another failAfter of slack
	// for a tick that a loaded machine runs late.
	if late := fencedAt.Sub(cutAt) - (failAfter + retry); !fenced || late > failAfter {
		t.Errorf("fenced=%v %v after the cut, want within %v", fenced, fencedAt.Sub(cutAt), failAfter+retry)
	}
}
