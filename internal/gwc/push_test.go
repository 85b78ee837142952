package gwc

import (
	"context"
	"sync"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/wire"
)

// TestCrossRootedGroupsPushWithoutDeadlock: nodes 0 and 1 each root a
// group the other is a member of and both write flat out (ten 20 ms
// bursts), so each node's fan-out pushes into the other while the other's
// pushes into it; every write must become visible at the other node. A receive loop that is
// dispatching has its mailbox marked busy, so what it is pushed queues;
// the pushes that can meet head on are the ones a node makes under its
// lock from outside its receive loop — a maintenance tick that promotes
// or services a quorum multicasts too — and two goroutines here do just
// that, each holding its own node's lock while it pushes at the other. A
// consumer that waited for the node lock instead of trying it would stop
// both, and every writer behind them, within microseconds.
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
	if s := net.TransportStats(); s.PushedInPlace == 0 || s.PushedQueued == 0 {
		t.Errorf("pushed in place %d, queued %d: the test exercised one path only", s.PushedInPlace, s.PushedQueued)
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
	s := net.TransportStats()
	if total := s.PushedInPlace + s.PushedQueued; total < 3*2000 || s.PushedInPlace*10 < total*9 {
		t.Errorf("%d of %d pushes ran in place, want at least 90%% of at least 6000", s.PushedInPlace, total)
	}
}
