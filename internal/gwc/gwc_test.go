package gwc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/wire"
)

const (
	tGroup GroupID = 1
	tVar   VarID   = 10
	tVarB  VarID   = 11
	tLock  LockID  = 0
)

// cluster is a test harness: n nodes joined to one group rooted at 0.
type cluster struct {
	net   transport.Network
	nodes []*Node
}

// newCluster builds a cluster over the given network with tVar/tVarB
// guarded by tLock when guarded is true.
func newCluster(t *testing.T, net transport.Network, guarded bool) *cluster {
	t.Helper()
	n := net.Size()
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	guards := map[VarID]LockID{}
	if guarded {
		guards[tVar] = tLock
		guards[tVarB] = tLock
	}
	c := &cluster{net: net, nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = NewNode(i, ep)
		// Tracing drives waitFor's wake-ups and timeout dumps; it is
		// atomics-only, so it cannot mask the races these tests hunt.
		c.nodes[i].Metrics().Trace.Enable(0)
		if err := c.nodes[i].Join(GroupConfig{
			ID:      tGroup,
			Root:    0,
			Members: members,
			Guards:  guards,
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
	return c
}

func newInProcCluster(t *testing.T, n int, guarded bool) *cluster {
	t.Helper()
	net, err := transport.NewInProc(n)
	if err != nil {
		t.Fatal(err)
	}
	return newCluster(t, net, guarded)
}

// lockKind is one row of the table the lock plane's regression tests run
// over: the session the test's subject enters and the one its rival
// does. The mutex is the row in which both are session 0.
type lockKind struct {
	name           string
	session, rival uint32
}

var lockKinds = []lockKind{
	{name: "mutex", session: 0, rival: 0},
	{name: "session", session: 7, rival: 9},
}

// eachKind runs f as one subtest per lock kind.
func eachKind(t *testing.T, f func(t *testing.T, k lockKind)) {
	for _, k := range lockKinds {
		t.Run(k.name, func(t *testing.T) { f(t, k) })
	}
}

// booked reports whether the root's books show node alone in tLock, in
// the given session.
func booked(root *Node, node int, session uint32) bool {
	root.mu.Lock()
	defer root.mu.Unlock()
	ls := root.roots[tGroup].book.lock(tLock)
	return len(ls.held.in) == 1 && ls.held.in[0].node == node && ls.held.session == session
}

// soleNode is the holder of the books' open exclusive section, or -1.
func soleNode(ls *lockState) int {
	if h := ls.sole(); h != nil {
		return h.node
	}
	return -1
}

// request starts n's exclusive acquisition of lock l without waiting for
// it: the first half of Acquire.
func request(n *Node, l LockID) error {
	_, err := n.Request(tGroup, l, 0, 0, n.Now())
	return err
}

// waitGrant blocks until n holds tLock exclusively: the wait half of an
// acquisition the test started with request.
func waitGrant(n *Node) (bool, error) {
	return n.WaitEnteredContext(context.Background(), tGroup, tLock, 0, nil)
}

// waitValue blocks until node's copy of v equals want, or fails. It
// registers on the member's data notify-list — the same wake-up the
// blocking read API uses — so every applied update re-checks the value
// without busy-polling wall time.
func waitValue(t *testing.T, n *Node, v VarID, want int64) {
	t.Helper()
	n.mu.Lock()
	g, err := n.group(tGroup)
	if err != nil {
		n.mu.Unlock()
		t.Fatal(err)
	}
	ch := make(chan struct{}, 1)
	g.data.register(ch)
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		g.data.unregister(ch)
		n.mu.Unlock()
	}()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		got, err := n.Read(tGroup, v)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			return
		}
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatalf("node %d closed while waiting for var %d = %d", n.ID(), v, want)
			}
		case <-deadline.C:
			got, _ := n.Read(tGroup, v)
			t.Fatalf("node %d: var %d = %d, want %d (stats %+v)", n.ID(), v, got, want, n.Stats())
		}
	}
}

func TestWritePropagatesToAllNodes(t *testing.T) {
	c := newInProcCluster(t, 5, false)
	if err := c.nodes[2].Write(tGroup, tVar, 42); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 42)
	}
}

func TestWaitGEWakesOnRemoteWrite(t *testing.T) {
	c := newInProcCluster(t, 3, false)
	done := make(chan bool, 1)
	go func() {
		ok, err := c.nodes[2].WaitGE(tGroup, tVar, 7)
		if err != nil {
			t.Error(err)
		}
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.nodes[1].Write(tGroup, tVar, 7); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Error("WaitGE returned not-ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGE never woke")
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	c := newInProcCluster(t, 4, false)
	var wg sync.WaitGroup
	for w := 1; w <= 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.nodes[w].Write(tGroup, tVar, int64(w*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Let the last sequenced update reach everyone, then compare: the
	// root's order is authoritative, so all nodes converge identically.
	time.Sleep(200 * time.Millisecond)
	want, err := c.nodes[0].Read(tGroup, tVar)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes[1:] {
		got, err := n.Read(tGroup, tVar)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("node %d converged on %d, node 0 on %d", n.ID(), got, want)
		}
	}
}

func TestMutualExclusionCounter(t *testing.T) {
	c := newInProcCluster(t, 4, true)
	const reps = 10
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := c.nodes[id]
			for i := 0; i < reps; i++ {
				if err := n.Acquire(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				cur, err := n.Read(tGroup, tVar)
				if err != nil {
					t.Error(err)
					return
				}
				// Widen the race window: without mutual exclusion this
				// read-modify-write would lose updates.
				time.Sleep(time.Millisecond)
				if err := n.Write(tGroup, tVar, cur+1); err != nil {
					t.Error(err)
					return
				}
				if err := n.Release(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitValue(t, c.nodes[0], tVar, 4*reps)
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 4*reps)
	}
}

func TestDataValidWhenGrantArrives(t *testing.T) {
	// GWC's guarantee: when the lock arrives, the previous holder's
	// writes are already in local memory (data precedes grant in the
	// sequenced stream).
	c := newInProcCluster(t, 3, true)
	n1, n2 := c.nodes[1], c.nodes[2]
	if err := n1.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan int64, 1)
	go func() {
		if err := n2.Acquire(tGroup, tLock); err != nil {
			t.Error(err)
			acquired <- -1
			return
		}
		v, err := n2.Read(tGroup, tVar) // must already be valid
		if err != nil {
			t.Error(err)
		}
		acquired <- v
	}()
	time.Sleep(30 * time.Millisecond) // let node 2's request queue up
	if err := n1.Write(tGroup, tVar, 555); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-acquired:
		if v != 555 {
			t.Errorf("node 2 read %d at grant time, want 555", v)
		}
		_ = n2.Release(tGroup, tLock)
	case <-time.After(5 * time.Second):
		t.Fatal("node 2 never acquired")
	}
}

func TestHardwareBlockingDropsEchoes(t *testing.T) {
	c := newInProcCluster(t, 2, true)
	n1 := c.nodes[1]
	if err := n1.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := n1.Write(tGroup, tVar, 1); err != nil {
		t.Fatal(err)
	}
	if err := n1.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[0], tVar, 1)
	// The dropped echo emits an EvEchoDropped trace event, which wakes
	// waitFor's subscription the moment it happens.
	waitFor(t, c, 2*time.Second, "the guarded echo to be blocked", func() bool {
		return n1.Stats().EchoDropped >= 1
	})
}

// TestOwnEchoRestoredAfterSnapshotRebase exercises the one exception to
// hardware blocking: when a snapshot re-base has rolled back a member's
// eager guarded store, the echo of its newest own write is the only
// message that still carries the write, so it must be applied instead of
// dropped — while echoes of older, locally superseded stores stay
// blocked. The sequence is synthesized under the node lock so the test
// is hermetic; the detsim harness found the live interleaving
// (partition-during-election seed 7).
func TestOwnEchoRestoredAfterSnapshotRebase(t *testing.T) {
	c := newInProcCluster(t, 2, true)
	n := c.nodes[1]
	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.groups[tGroup]

	echo := func(val int64) *wire.Message {
		m := &wire.Message{
			Type:    wire.TSeqUpdate,
			Group:   uint32(tGroup),
			Src:     int32(g.rootID),
			Origin:  int32(n.id),
			Guarded: true,
			Seq:     g.nextSeq,
			Var:     uint32(tVar),
			Val:     val,
			Epoch:   g.epoch,
		}
		return m
	}

	// An eager guarded store whose echo is still in flight...
	mv := g.vars.at(tVar)
	store := func(val int64) { // what Write leaves behind for a guarded store
		mv.val, mv.written = val, true
		mv.eagerOut, mv.eagerMsg.Val = true, val
	}
	store(7)
	// ...rolled back by a failover snapshot cut before the write was
	// sequenced (applyVarValue is the snapshot's apply path).
	n.applyVarValue(g, tVar, 3)
	if got := mv.val; got != 3 {
		t.Fatalf("after re-base: mem = %d, want 3", got)
	}
	// The echo must repair the copy.
	n.ingest(g, echo(7))
	if got := mv.val; got != 7 {
		t.Errorf("after own echo: mem = %d, want 7 (restored)", got)
	}
	if n.Stats().EchoRestored != 1 {
		t.Errorf("EchoRestored = %d, want 1", n.Stats().EchoRestored)
	}

	// A second arrival of the same echo is a plain duplicate again.
	before := n.Stats().EchoRestored
	n.ingest(g, echo(7))
	if n.Stats().EchoRestored != before {
		t.Errorf("re-delivered echo restored again; EchoRestored = %d", n.Stats().EchoRestored)
	}

	// An echo of an older store never lands: the newer local store wins
	// even when a re-base intervened.
	store(9)
	n.applyVarValue(g, tVar, 3)
	dropped := n.Stats().EchoDropped
	n.ingest(g, echo(5)) // echo of a superseded store
	if got := mv.val; got != 3 {
		t.Errorf("superseded echo applied: mem = %d, want 3", got)
	}
	if n.Stats().EchoDropped != dropped+1 {
		t.Errorf("EchoDropped = %d, want %d", n.Stats().EchoDropped, dropped+1)
	}
	// The newest store's echo still repairs.
	n.ingest(g, echo(9))
	if got := mv.val; got != 9 {
		t.Errorf("newest echo after superseded one: mem = %d, want 9", got)
	}
}

func TestRootSuppressesNonHolderGuardedWrite(t *testing.T) {
	c := newInProcCluster(t, 3, true)
	// Node 1 holds the lock; node 2 writes the guarded variable without
	// it (an optimistic write racing a competing holder). The root must
	// discard node 2's write.
	if err := c.nodes[1].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[1].Write(tGroup, tVar, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[2].Write(tGroup, tVar, 999); err != nil {
		t.Fatal(err)
	}
	waitValue(t, c.nodes[0], tVar, 100)
	time.Sleep(50 * time.Millisecond)
	if got, _ := c.nodes[0].Read(tGroup, tVar); got != 100 {
		t.Errorf("root memory = %d, want 100 (999 must be suppressed)", got)
	}
	if sup := c.nodes[0].Stats().Suppressed; sup != 1 {
		t.Errorf("Suppressed = %d, want 1", sup)
	}
	_ = c.nodes[1].Release(tGroup, tLock)
}

func TestReleaseWithoutHoldingFails(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c := newInProcCluster(t, 3, true)
		if err := c.nodes[1].Release(tGroup, tLock); err == nil {
			t.Error("release of unheld lock succeeded, want error")
		}
		// Nor does a section somebody else is in give this node anything
		// to release.
		if err := c.nodes[2].EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		waitFor(t, c, 5*time.Second, "node 1 to see the rival inside", func() bool {
			c.nodes[1].mu.Lock()
			defer c.nodes[1].mu.Unlock()
			return c.nodes[1].groups[tGroup].locks.at(tLock).held.has(2)
		})
		if err := c.nodes[1].Release(tGroup, tLock); err == nil {
			t.Error("release of a lock a rival holds succeeded, want error")
		}
		if !booked(c.nodes[0], 2, k.rival) {
			t.Error("the rival's entry did not survive the refused release")
		}
	})
}

func TestUnknownGroupErrors(t *testing.T) {
	c := newInProcCluster(t, 2, false)
	if err := c.nodes[0].Write(99, tVar, 1); err == nil {
		t.Error("Write to unknown group succeeded")
	}
	if _, err := c.nodes[0].Read(99, tVar); err == nil {
		t.Error("Read of unknown group succeeded")
	}
	if err := c.nodes[0].Acquire(99, tLock); err == nil {
		t.Error("Acquire on unknown group succeeded")
	}
}

func TestJoinValidation(t *testing.T) {
	net, _ := transport.NewInProc(2)
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	n := NewNode(0, ep)
	defer func() { _ = n.Close() }()
	if err := n.Join(GroupConfig{ID: 1, Root: 1, Members: []int{1}}); err == nil {
		t.Error("joining a group we are not a member of succeeded")
	}
	if err := n.Join(GroupConfig{ID: 1, Root: 0, Members: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(GroupConfig{ID: 1, Root: 0, Members: []int{0, 1}}); err == nil {
		t.Error("double join succeeded")
	}
}

// countIntr is an Interrupt that counts its firings and asks for the
// suspension every time.
type countIntr struct{ fired atomic.Int32 }

func (ci *countIntr) Fire() HookAction { ci.fired.Add(1); return HookSuspend }

// TestSpeculateArmsOrRefusesInOneHold walks one lock through the cases
// Speculate tells apart, and the interrupt's life: refused while a rival
// is visible, with nothing registered and nothing sent; armed otherwise,
// and then a second entry from this node is nested; fired by a rival's
// grant only while the section lasts — the release that frees the lock
// drops it. Then the firing case: a rival's grant sequenced ahead of the
// speculation fires the interrupt exactly once, and the suspension it
// asks for parks data until ResumeInsharing; the speculation stays
// queued and is granted after the rival.
func TestSpeculateArmsOrRefusesInOneHold(t *testing.T) {
	const tFree VarID = 12 // not guarded by newCluster
	c, _, tap := newTapCluster(t, 3)
	rival, n := c.nodes[1], c.nodes[2]
	intr := new(countIntr)
	armed := func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.groups[tGroup].locks.at(tLock).spec != nil
	}
	sees := func(want int64) func() bool {
		return func() bool { v, _ := n.LockValue(tGroup, tLock); return v == want }
	}

	if err := rival.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "node 2 to see the rival's grant", sees(GrantValue(1)))
	if look, err := n.Look(tGroup, tLock, 0); err != nil || !look.Foreign || look.Leased {
		t.Fatalf("Look under a rival's grant = %+v, %v; want Foreign", look, err)
	}
	if ok, err := n.Speculate(tGroup, tLock, 0, intr); ok || err != nil {
		t.Fatalf("Speculate under a rival's grant = %v, %v; want a refusal", ok, err)
	}
	if armed() || n.Stats().LockRequests != 0 {
		t.Fatalf("a refused Speculate left an interrupt (%v) or sent a request (%d)", armed(), n.Stats().LockRequests)
	}

	if err := rival.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "node 2 to see the lock free", sees(Free))
	if ok, err := n.Speculate(tGroup, tLock, 0, intr); !ok || err != nil {
		t.Fatalf("Speculate on a free lock = %v, %v; want it armed", ok, err)
	}
	if _, err := n.Speculate(tGroup, tLock, 0, intr); !errors.Is(err, ErrNested) {
		t.Errorf("a second Speculate returned %v, want ErrNested", err)
	}
	if err := n.Acquire(tGroup, tLock); !errors.Is(err, ErrNested) {
		t.Errorf("Acquire during the speculation returned %v, want ErrNested", err)
	}
	if ok, err := waitGrant(n); !ok || err != nil {
		t.Fatalf("waitGrant = %v, %v", ok, err)
	}
	if !armed() || intr.fired.Load() != 0 {
		t.Fatalf("own grant: armed %v, fired %d; want the interrupt in place and quiet", armed(), intr.fired.Load())
	}
	if err := n.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if armed() {
		t.Fatal("Release left the interrupt armed")
	}
	if err := rival.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "node 2 to see the rival's second grant", sees(GrantValue(1)))
	if got := intr.fired.Load(); got != 0 {
		t.Errorf("a grant after the section fired its interrupt %d times", got)
	}

	// The rival's third grant is held back from node 2 until node 2 has
	// armed, so node 2 speculates on a lock its copy shows free while the
	// root has already sequenced the rival ahead of it.
	if err := rival.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "node 2 to see the lock free again", sees(Free))
	var held atomic.Int32
	tap.filter(func(from, to int, m *wire.Message) bool {
		if m.Type == wire.TSeqLock && to == 2 && m.Val == GrantValue(1) {
			held.Add(1)
			return true
		}
		return false
	})
	if err := rival.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "the rival's grant to be held back from node 2", func() bool { return held.Load() > 0 })
	if ok, err := n.Speculate(tGroup, tLock, 0, intr); !ok || err != nil {
		t.Fatalf("Speculate with the rival's grant held back = %v, %v; want it armed", ok, err)
	}
	tap.filter(nil)
	// The rival's unguarded write is sequenced after its grant. At node 2
	// it opens the gap whose repair applies the grant first — the
	// interrupt fires and insharing is suspended — and then the write,
	// which the suspension parks.
	if err := rival.Write(tGroup, tFree, 77); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "the interrupt to fire and the write to park", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return intr.fired.Load() > 0 && len(n.groups[tGroup].suspendQ) > 0
	})
	if got, _ := n.Read(tGroup, tFree); got != 0 {
		t.Fatalf("suspended node 2 applied the rival's write: read %d, want 0 until resume", got)
	}
	if err := n.ResumeInsharing(tGroup); err != nil {
		t.Fatal(err)
	}
	if got, _ := n.Read(tGroup, tFree); got != 77 {
		t.Fatalf("after ResumeInsharing node 2 reads %d, want the parked 77", got)
	}
	if err := rival.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if ok, err := waitGrant(n); !ok || err != nil {
		t.Fatalf("the rolled-back speculation's queued request: waitGrant = %v, %v", ok, err)
	}
	if got := intr.fired.Load(); got != 1 {
		t.Errorf("the rival's grant fired the interrupt %d times, want exactly once", got)
	}
	if err := n.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
}

// TestRolledBackSpeculationWritesNothing: a speculation the interrupt has
// rolled back can still be in its body when its own queued request is
// granted. A guarded write it makes then is tagged post-grant, so the root
// would sequence a value the section's re-execution overwrites — one an
// unguarded reader elsewhere (node 3 here) could see. Write refuses it
// until the rollback; the re-execution then writes as any section does.
func TestRolledBackSpeculationWritesNothing(t *testing.T) {
	const tFree VarID = 12 // not guarded by newCluster
	const late, final int64 = 666, 7
	c, _, tap := newTapCluster(t, 4)
	rival, n, watcher := c.nodes[1], c.nodes[2], c.nodes[3]
	var sawLate atomic.Bool
	if _, err := watcher.OnVarChange(tGroup, tVar, func(v int64) {
		if v == late {
			sawLate.Store(true)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// The rival's grant is held back from node 2 until node 2 has armed;
	// the rival's next write opens the gap whose repair applies the grant
	// there, and the interrupt fires.
	var held atomic.Int32
	tap.filter(func(from, to int, m *wire.Message) bool {
		if m.Type == wire.TSeqLock && to == 2 && m.Holder() == 1 {
			held.Add(1)
			return true
		}
		return false
	})
	if err := rival.Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "the rival's grant to be held back from node 2", func() bool { return held.Load() > 0 })
	intr := new(countIntr)
	if ok, err := n.Speculate(tGroup, tLock, 0, intr); !ok || err != nil {
		t.Fatalf("Speculate = %v, %v; want it armed", ok, err)
	}
	tap.filter(nil)
	if err := rival.Write(tGroup, tFree, 77); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, 2*time.Second, "the interrupt to fire", func() bool { return intr.fired.Load() > 0 })

	// The rival leaves and node 2's queued request is granted while the
	// rolled-back body is still running.
	if err := rival.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if ok, err := waitGrant(n); !ok || err != nil {
		t.Fatalf("waitGrant = %v, %v", ok, err)
	}
	lateErr := n.Write(tGroup, tVar, late)

	// The rollback, and the re-execution inside the same hold.
	if err := n.RestoreLocal(tGroup, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.ResumeInsharing(tGroup); err != nil {
		t.Fatal(err)
	}
	if err := n.Write(tGroup, tVar, final); err != nil {
		t.Fatalf("the re-execution's write: %v", err)
	}
	if err := n.Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	waitValue(t, watcher, tVar, final)
	if sawLate.Load() {
		t.Error("the rolled-back run's write was sequenced: node 3 saw it")
	}
	if !errors.Is(lateErr, ErrRolledBack) {
		t.Errorf("the rolled-back run's write returned %v, want ErrRolledBack", lateErr)
	}
}

// TestSuspendInsharingBuffersData: an armed interrupt that fires with
// HookSuspend — the one way insharing is suspended — parks data updates
// instead of applying them, and ResumeInsharing applies what was parked.
func TestSuspendInsharingBuffersData(t *testing.T) {
	c := newInProcCluster(t, 3, false)
	n2 := c.nodes[2]
	intr := new(countIntr)
	n2.mu.Lock()
	g := n2.groups[tGroup]
	lk := g.locks.at(tLock)
	lk.spec = intr
	g.locks.sawEntry(lk, 1, 0) // node 1's exclusive entry, applied here
	lk.spec = nil
	suspended := g.suspended
	n2.mu.Unlock()
	if intr.fired.Load() != 1 || !suspended {
		t.Fatalf("a rival's entry fired the interrupt %d times, suspended %v; want once, suspended", intr.fired.Load(), suspended)
	}
	if err := c.nodes[1].Write(tGroup, tVar, 77); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if got, _ := n2.Read(tGroup, tVar); got != 0 {
		t.Fatalf("suspended node saw %d, want 0 until resume", got)
	}
	if err := n2.ResumeInsharing(tGroup); err != nil {
		t.Fatal(err)
	}
	waitValue(t, n2, tVar, 77)
}

func TestRestoreLocalDoesNotPropagate(t *testing.T) {
	c := newInProcCluster(t, 3, false)
	if err := c.nodes[1].Write(tGroup, tVar, 5); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 5)
	}
	if err := c.nodes[1].RestoreLocal(tGroup, []Saved{{Var: tVar, Old: 3}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.nodes[1].Read(tGroup, tVar); got != 3 {
		t.Errorf("local restore not applied: %d", got)
	}
	time.Sleep(50 * time.Millisecond)
	if got, _ := c.nodes[2].Read(tGroup, tVar); got != 5 {
		t.Errorf("restore leaked to node 2: %d, want 5", got)
	}
}

func TestNackRecoveryUnderLoss(t *testing.T) {
	inner, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	flaky := transport.NewFlaky(inner, transport.FaultPlan{
		DropRate: 0.25,
		Seed:     1234,
		DownOnly: true,
		Spare:    []wire.Type{wire.TNack},
	})
	c := newCluster(t, flaky, false)
	const writes = 200
	for i := 1; i <= writes; i++ {
		if err := c.nodes[1].Write(tGroup, tVar, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, writes)
	}
	dropped, _, _ := flaky.Stats()
	if dropped == 0 {
		t.Fatal("fault injection never dropped anything; test is vacuous")
	}
	var nacks, retrans int
	for _, n := range c.nodes {
		s := n.Stats()
		nacks += s.Nacks
		retrans += s.Retransmits
	}
	if nacks == 0 || retrans == 0 {
		t.Errorf("nacks=%d retransmits=%d after %d drops; recovery machinery unused", nacks, retrans, dropped)
	}
}

func TestMutualExclusionUnderLossyLockPlane(t *testing.T) {
	inner, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	flaky := transport.NewFlaky(inner, transport.FaultPlan{
		DropRate: 0.15,
		Seed:     99,
		DownOnly: true,
		Spare:    []wire.Type{wire.TNack},
	})
	c := newCluster(t, flaky, true)
	const reps = 5
	var wg sync.WaitGroup
	for id := 1; id <= 2; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := c.nodes[id]
			for i := 0; i < reps; i++ {
				if err := n.Acquire(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				cur, _ := n.Read(tGroup, tVar)
				if err := n.Write(tGroup, tVar, cur+1); err != nil {
					t.Error(err)
					return
				}
				if err := n.Release(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitValue(t, c.nodes[0], tVar, 2*reps)
}

func TestDuplicateReleaseIgnoredByEpoch(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c := newInProcCluster(t, 3, true)
		n1, n2 := c.nodes[1], c.nodes[2]
		if err := n1.EnterSession(tGroup, tLock, k.session); err != nil {
			t.Fatal(err)
		}
		// Forge the duplicate release a lost-ack retry could produce: quote
		// the epoch of n1's current entry, release properly, let n1 enter
		// again, then replay the stale release. The later entry must
		// survive — and so must a rival's, once n1 has really left.
		n1.mu.Lock()
		staleEpoch := n1.groups[tGroup].locks.at(tLock).held.find(1).epoch
		n1.mu.Unlock()
		replay := func() {
			t.Helper()
			if err := n1.ep.Send(0, wire.Message{
				Type: wire.TLockRel, Group: uint32(tGroup), Src: 1, Origin: 1,
				Lock: uint32(tLock), Var: staleEpoch, Session: k.session,
			}); err != nil {
				t.Fatal(err)
			}
			if err := n1.Sync(tGroup); err != nil { // the FIFO fence behind the forged frame
				t.Fatal(err)
			}
		}
		if err := n1.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if err := n1.EnterSession(tGroup, tLock, k.session); err != nil {
			t.Fatal(err)
		}
		replay()
		if !booked(c.nodes[0], 1, k.session) {
			t.Error("a stale release closed the same node's later entry")
		}
		if err := n1.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		if err := n2.EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		replay()
		if !booked(c.nodes[0], 2, k.rival) {
			t.Error("a stale release closed a rival's entry")
		}
		_ = n2.Release(tGroup, tLock)
	})
}

func TestCloseUnblocksWaiters(t *testing.T) {
	eachKind(t, func(t *testing.T, k lockKind) {
		c := newInProcCluster(t, 3, true)
		if err := c.nodes[2].EnterSession(tGroup, tLock, k.rival); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{}, 2)
		go func() {
			defer func() { done <- struct{}{} }()
			ok, _ := c.nodes[1].WaitGE(tGroup, tVar, 100)
			if ok {
				t.Error("WaitGE satisfied after close")
			}
		}()
		go func() {
			defer func() { done <- struct{}{} }()
			if err := c.nodes[1].EnterSession(tGroup, tLock, k.session); !errors.Is(err, ErrClosed) {
				t.Errorf("entry blocked behind a rival returned %v after close, want ErrClosed", err)
			}
		}()
		time.Sleep(20 * time.Millisecond)
		_ = c.nodes[1].Close()
		for i := 0; i < 2; i++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a waiter did not unblock on close")
			}
		}
	})
}

func TestTCPClusterEndToEnd(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}
	net, err := transport.NewTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, net, true)
	if err := c.nodes[1].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[1].Write(tGroup, tVar, 2024); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[1].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 2024)
	}
}

func TestManyNodesManyLocks(t *testing.T) {
	c := newInProcCluster(t, 8, true)
	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := c.nodes[id]
			for i := 0; i < 5; i++ {
				if err := n.Acquire(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				a, _ := n.Read(tGroup, tVar)
				b, _ := n.Read(tGroup, tVarB)
				if a != b {
					t.Errorf("invariant broken inside critical section: %d != %d", a, b)
				}
				_ = n.Write(tGroup, tVar, a+1)
				_ = n.Write(tGroup, tVarB, b+1)
				if err := n.Release(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitValue(t, c.nodes[0], tVar, 40)
	waitValue(t, c.nodes[0], tVarB, 40)
}

func TestStatsString(t *testing.T) {
	// Compile-time style check that Stats is a plain value usable in logs.
	s := Stats{Suppressed: 1, Nacks: 2}
	if fmt.Sprintf("%+v", s) == "" {
		t.Error("unformattable stats")
	}
}

// TestMutualExclusionNineNodes races every member of a nine-node group
// through the same lock, so the root's fan-out carries each grant and
// each guarded write to eight members.
func TestMutualExclusionNineNodes(t *testing.T) {
	c := newInProcCluster(t, 9, true)
	const reps = 5
	var wg sync.WaitGroup
	for id := 0; id < 9; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := c.nodes[id]
			for i := 0; i < reps; i++ {
				if err := n.Acquire(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				cur, _ := n.Read(tGroup, tVar)
				if err := n.Write(tGroup, tVar, cur+1); err != nil {
					t.Error(err)
					return
				}
				if err := n.Release(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range c.nodes {
		waitValue(t, n, tVar, 9*reps)
	}
}

// TestNineMembersRecoverFromDownLoss drops a fifth of the root's
// sequenced traffic to a nine-node group; every member must recover the
// writes it missed through NACKs to the root.
func TestNineMembersRecoverFromDownLoss(t *testing.T) {
	inner, err := transport.NewInProc(9)
	if err != nil {
		t.Fatal(err)
	}
	flaky := transport.NewFlaky(inner, transport.FaultPlan{
		DropRate: 0.2,
		Seed:     5,
		DownOnly: true,
		Spare:    []wire.Type{wire.TNack},
	})
	c := newCluster(t, flaky, false)
	const writes = 100
	for i := 1; i <= writes; i++ {
		if err := c.nodes[1].Write(tGroup, tVar, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		waitValue(t, n, tVar, writes)
	}
}
