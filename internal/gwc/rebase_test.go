package gwc

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"optsync/internal/transport"
	"optsync/internal/vclock"
	"optsync/internal/wire"
)

// stillClock tells the time but never fires a timer, so a node built on
// it runs no maintenance tick under a test that inspects member state.
type stillClock struct{ vclock.Clock }

func (c stillClock) NewTimer(time.Duration) vclock.Timer { return c.Clock.NewTimer(24 * time.Hour) }

// loneMember is node 1 of a three-member group whose peers were never
// started: nothing arrives and nothing ticks, so the member state is
// exactly what the test and the call under test put there.
func loneMember(t *testing.T) (*Node, *memberGroup) {
	t.Helper()
	net, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	return stillMember(t, net, 1)
}

// stillMember starts node id of the three-member group on net with a
// clock that never ticks; the founding root, node 0, is never started.
func stillMember(t *testing.T, net transport.Network, id int) (*Node, *memberGroup) {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNodeClock(id, ep, stillClock{vclock.Real()})
	t.Cleanup(func() { _ = n.Close() })
	if err := n.Join(GroupConfig{ID: tGroup, Root: 0, Members: []int{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	return n, n.groups[tGroup]
}

// TestEveryRebaseEntranceRevokesTheSame drives the four ways a member
// comes to follow a reign — adopting a newer one, promoting itself,
// starting a rejoin, being admitted by one — from the same dirty state
// and checks they leave the same reign-scoped state behind: the one
// rebase owns all of it, so a fifth entrance cannot drift.
func TestEveryRebaseEntranceRevokesTheSame(t *testing.T) {
	for _, tc := range []struct {
		name      string
		enter     func(n *Node, g *memberGroup) // n.mu held
		epoch     uint32
		root      int
		snap      bool
		rejoining bool
	}{
		{name: "adopt", epoch: 1, root: 2, snap: true,
			enter: func(n *Node, g *memberGroup) { n.adoptEpoch(g, 1, 2) }},
		{name: "promote", epoch: 1, root: 1,
			enter: func(n *Node, g *memberGroup) { n.promote(tGroup, g) }},
		{name: "rejoin", epoch: 0, root: 0, rejoining: true,
			enter: func(n *Node, g *memberGroup) {
				n.mu.Unlock()
				defer n.mu.Lock()
				if err := n.Rejoin(tGroup); err != nil {
					panic(err)
				}
			}},
		{name: "join-ack", epoch: 3, root: 2, snap: true,
			enter: func(n *Node, g *memberGroup) {
				g.rejoining = true
				n.handleJoinAck(g, &wire.Message{Type: wire.TJoinAck, Group: uint32(tGroup), Src: 2, Epoch: 3})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, g := loneMember(t)
			n.mu.Lock()
			defer n.mu.Unlock()

			// Everything a reign leaves lying around.
			now := n.clock.Now()
			arm := func(b *backoff) { n.arm(b, now, time.Second, time.Minute) }
			g.nextSeq, g.acked = 42, 9
			g.pending[50] = wire.Message{Type: wire.TSeqUpdate, Seq: 50}
			g.snapWanted, g.snapBuf = true, newSnapReport(7)
			g.reports = map[int]*snapReport{2: newSnapReport(1)}
			g.electing, g.electEpoch, g.electBegan = true, 1, now
			g.digest.Fold(1, 1, 1)
			g.diverged = true
			arm(&g.joinB)
			arm(&g.snapB)
			arm(&g.probeB)
			sw := &syncWaiter{ch: make(chan struct{}), since: now}
			arm(&sw.bo)
			g.syncPending[1] = sw
			lk := g.locks.at(tLock)
			lk.held.put(holder{node: n.id, epoch: 4})
			d := &deleg{expiry: now.Add(time.Hour)}
			lk.deleg = d
			markBusy(&g.locks.busy, &lk.busy, tLock)
			arm(&d.renewB)
			arm(&lk.reqB)
			mv := g.vars.at(tVar)
			mv.written, mv.eagerOut = true, true
			mv.eagerMsg = n.hdr(g).GuardedUpdate(uint32(tVar), 1, 4, 1)
			markBusy(&g.busyVars, &mv.busy, tVar)

			tc.enter(n, g)

			if g.epoch != tc.epoch || g.rootID != tc.root {
				t.Errorf("follows reign (%d, root %d), want (%d, root %d)", g.epoch, g.rootID, tc.epoch, tc.root)
			}
			if g.snapWanted != tc.snap || g.rejoining != tc.rejoining || g.electing {
				t.Errorf("snapWanted=%v rejoining=%v electing=%v, want %v %v false", g.snapWanted, g.rejoining, g.electing, tc.snap, tc.rejoining)
			}
			// A promoted root's own member stands where the reign's replay
			// left the stream: the snapshot it re-based through covers it.
			next := uint64(1)
			if r := n.roots[tGroup]; r != nil {
				next = r.ring.seq() + 1
			}
			if g.nextSeq != next || len(g.pending) != 0 || g.acked != 0 || g.probeSeq != 1 {
				t.Errorf("stream not restarted: nextSeq=%d (want %d) pending=%d acked=%d probeSeq=%d", g.nextSeq, next, len(g.pending), g.acked, g.probeSeq)
			}
			if g.snapBuf != nil || g.reports != nil {
				t.Errorf("buffers of the old reign survive: snapBuf=%v reports=%v", g.snapBuf, g.reports)
			}
			if g.digest.Sum() != 0 || g.diverged {
				t.Errorf("digest %#x diverged=%v, want a fresh digest and no verdict", g.digest.Sum(), g.diverged)
			}
			for i := range g.locks.recs {
				lk := &g.locks.recs[i]
				if lk.deleg != nil {
					t.Errorf("lock %d keeps a claim against the old reign: %+v", i, *lk.deleg)
				}
				if lk.reqB != (backoff{}) {
					t.Errorf("lock %d request schedule not reset: %+v", i, lk.reqB)
				}
			}
			if e := g.vars.at(tVar).eagerMsg.Epoch; e != tc.epoch {
				t.Errorf("the unconfirmed store's frame is addressed to epoch %d, want the reign's %d", e, tc.epoch)
			}
			joinAttempts := 0
			if tc.rejoining {
				joinAttempts = 1 // reset, then armed once for the request Rejoin sent
			}
			if g.joinB.attempt != joinAttempts || g.snapB != (backoff{}) || g.probeB != (backoff{}) || sw.bo != (backoff{}) {
				t.Errorf("retry schedules not reset: join=%+v snap=%+v probe=%+v sync=%+v", g.joinB, g.snapB, g.probeB, sw.bo)
			}
		})
	}
}

// TestDelegRecordDiesWithTheReign takes a lock through the delegation
// record the way the protocol builds it — a lease granted and kept idle
// across a release — and then revokes the reign's claims both ways a
// member does: a re-base, and the report it builds for an election.
// Either way no lock keeps a record, the idle cached entry is freed (the
// report carries its release, which frees it in the new book), and the
// next tick unlists every lock, as nothing is left in flight on them.
func TestDelegRecordDiesWithTheReign(t *testing.T) {
	const leased LockID = 1
	for _, tc := range []struct {
		name   string
		revoke func(n *Node, g *memberGroup) *snapReport
	}{
		{name: "rebase", revoke: func(n *Node, g *memberGroup) *snapReport {
			n.adoptEpoch(g, 1, 2)
			return nil
		}},
		{name: "election-report", revoke: func(n *Node, g *memberGroup) *snapReport {
			g.electEpoch = 1
			rep := newSnapReport(0)
			for _, m := range g.reportFrames() {
				rep.absorb(&m)
			}
			return rep
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, g := loneMember(t)
			n.SetLeases(time.Hour)
			n.mu.Lock()
			defer n.mu.Unlock() // held at every failure below
			hdr := wire.Hdr{Group: uint32(tGroup), Src: 0, Epoch: g.epoch}
			lk := g.locks.at(leased)
			lk.want, lk.reqToken = true, 7
			g.locks.applyLock(ptr(hdr.Entry(uint32(leased), 0, n.id, 4, 7)))
			n.lockFrame(g, ptr(hdr.LeaseGrant(uint32(leased), 4, 7, time.Hour)))
			n.mu.Unlock()
			if err := n.Release(tGroup, leased); err != nil {
				t.Fatal(err)
			}
			n.mu.Lock()
			if d := g.locks.at(leased).deleg; d == nil || d.entered {
				t.Fatalf("the lock does not hold an idle lease: %+v", d)
			}
			if !g.locks.at(leased).held.has(n.id) {
				t.Fatal("the idle lease's entry is not cached")
			}
			if g.locks.at(leased).inUse() {
				t.Fatal("the lock reads in use after its release: a new acquisition would be refused as nested")
			}

			rep := tc.revoke(n, g)

			for i := range g.locks.recs {
				if d := g.locks.recs[i].deleg; d != nil {
					t.Errorf("lock %d keeps a record: %+v", i, *d)
				}
			}
			if lk := g.locks.at(leased); lk.held.has(n.id) || lk.lockDone < 4 {
				t.Errorf("idle cached entry kept: holders %v, lockDone %d", lk.held.in, lk.lockDone)
			}
			if rel := (wire.Hdr{Group: uint32(tGroup), Src: int32(n.id), Epoch: 1}).LockRel(uint32(leased), 4, 0); rep != nil && !slices.ContainsFunc(rep.up, func(m wire.Message) bool { return wire.Equal(m, rel) }) {
				t.Errorf("the report carries no release of the idle cached entry: %+v", rep.up)
			}
			if len(g.locks.busy) == 0 {
				t.Fatal("no lock listed before the tick")
			}
			n.mu.Unlock()
			n.tick()
			n.mu.Lock()
			if len(g.locks.busy) != 0 {
				t.Errorf("the tick left locks %v listed", g.locks.busy)
			}
		})
	}
}

func ptr(m wire.Message) *wire.Message { return &m }

// TestOwnReportReadsAsAPeers pins the candidate's view of itself: the
// report a member with an exclusive hold, an open session with two
// holders, a queued session request and an unconfirmed store builds for
// an election, read back by the one stream reader, is field for field the
// state written out here — the request and the store as the frames the
// member sent — so promote's own copy cannot silently change with the
// stream format.
func TestOwnReportReadsAsAPeers(t *testing.T) {
	n, g := loneMember(t)
	n.mu.Lock()
	defer n.mu.Unlock()
	const held, shared, wanted LockID = 1, 2, 3
	g.nextSeq, g.electEpoch = 42, 1
	mv := g.vars.at(tVar)
	mv.val, mv.written = 77, true
	g.vars.at(tVarB) // never written: not reported
	// A store out is reported by its frame alone.
	const stored VarID = 12
	sv := g.vars.at(stored)
	sv.val, sv.written, sv.eagerOut = 5, true, true
	sv.eagerMsg = wire.Hdr{Group: uint32(tGroup), Src: int32(n.id)}.GuardedUpdate(uint32(stored), 5, 5, 3)
	markBusy(&g.busyVars, &sv.busy, stored)
	lk := g.locks.at(held)
	lk.held.put(holder{node: n.id, epoch: 5})
	lk.grantEpoch = 5
	lk = g.locks.at(shared)
	lk.grantEpoch = 4
	lk.held = holderSet{session: 7, in: []holder{{node: 1, epoch: 3}, {node: 2, epoch: 4}}}
	lk = g.locks.at(wanted)
	lk.want, lk.reqToken, lk.reqSession = true, 2, 9

	got := newSnapReport(0)
	for _, m := range g.reportFrames() {
		if m.Epoch != 1 || int(m.Src) != n.id || GroupID(m.Group) != tGroup {
			t.Errorf("frame %+v not addressed as node %d's report for election 1", m, n.id)
		}
		got.absorb(&m)
	}
	want := &snapReport{
		seq:  41,
		done: true,
		vars: map[VarID]int64{tVar: 77},
		locks: map[LockID]lockSnap{
			held:   {epoch: 5, held: holderSet{in: []holder{{node: n.id, epoch: 5}}}},
			shared: {epoch: 4, held: holderSet{session: 7, in: []holder{{node: 1, epoch: 3}, {node: 2, epoch: 4}}}},
		},
	}
	hdr := wire.Hdr{Group: uint32(tGroup), Src: int32(n.id), Epoch: 1}
	want.up = []wire.Message{hdr.GuardedUpdate(uint32(stored), 5, 5, 3), hdr.LockReq(uint32(wanted), 2, 9, 0)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("own report reads\n  %+v\nwant\n  %+v", got, want)
	}
}

// TestStreamRoundTripsEveryLockState carries the four states a lock can
// be in — free, exclusively held, shared by two holders, and held while
// this node waits (which the lock word could not report: the grant
// overwrote the request marker and the next retry wrote it back) —
// through both state streams by the production path: node 1's election
// report, read back and rebuilt into its books by its promotion, and the
// snapshot node 2 then fetches from it. The waiter queues with its live
// token: its report carries the request it sent.
func TestStreamRoundTripsEveryLockState(t *testing.T) {
	net, err := transport.NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	n1, g1 := stillMember(t, net, 1)
	n2, g2 := stillMember(t, net, 2)
	const free, excl, shared, waited LockID = 1, 2, 3, 4
	two := holderSet{session: 7, in: []holder{{node: 1, epoch: 3}, {node: 2, epoch: 4}}}
	dirty := func(n *Node, g *memberGroup) {
		g.locks.at(excl).held.put(holder{node: 2, epoch: 5})
		g.locks.at(excl).grantEpoch = 5
		g.locks.at(shared).held = holderSet{session: 7, in: slices.Clone(two.in)}
		g.locks.at(shared).grantEpoch = 4
		g.locks.at(waited).held.put(holder{node: 2, epoch: 6})
		g.locks.at(waited).grantEpoch = 6
		for _, l := range []LockID{excl, shared, waited} {
			g.locks.at(l).want = g.locks.at(l).held.has(n.id)
		}
	}
	n1.mu.Lock()
	dirty(n1, g1)
	g1.locks.at(free).grantEpoch = 3
	lk := g1.locks.at(waited)
	lk.want, lk.reqToken = true, 1
	g1.electEpoch = 1
	g1.suspected[0] = true
	n1.promote(tGroup, g1)
	r := n1.roots[tGroup]
	for l, want := range map[LockID]lockState{
		free:   {epoch: 3},
		excl:   {epoch: 5, held: holderSet{in: []holder{{node: 2, epoch: 5}}}},
		shared: {epoch: 4, held: two},
		waited: {epoch: 6, held: holderSet{in: []holder{{node: 2, epoch: 6}}}, queue: []lockWaiter{{node: 1, token: 1}}},
	} {
		ls := r.book.lock(l)
		if ls.epoch != want.epoch || ls.held.session != want.held.session ||
			!slices.Equal(ls.held.in, want.held.in) || !slices.Equal(ls.queue, want.queue) {
			t.Errorf("lock %d rebuilt as epoch %d, section %+v, queue %+v; want %d, %+v, %+v",
				l, ls.epoch, ls.held, ls.queue, want.epoch, want.held, want.queue)
		}
	}
	if v := g1.locks.value(waited); v != GrantValue(2) || !g1.locks.at(waited).want {
		t.Errorf("the new root's own copy of the lock it waits for reads %d (want=%v), expected node 2's grant and a live request",
			v, g1.locks.at(waited).want)
	}
	n1.mu.Unlock()

	n2.mu.Lock()
	dirty(n2, g2)
	n2.adoptEpoch(g2, 1, 1) // asks node 1 for its snapshot
	n2.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n2.mu.Lock()
		synced := !g2.snapWanted
		n2.mu.Unlock()
		if synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 2 never applied node 1's snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	n2.mu.Lock()
	defer n2.mu.Unlock()
	for l, want := range map[LockID]holderSet{
		free:   {},
		excl:   {in: []holder{{node: 2, epoch: 5}}},
		shared: two,
		waited: {in: []holder{{node: 2, epoch: 6}}},
	} {
		if got := g2.locks.at(l).held; got.session != want.session || !slices.Equal(got.in, want.in) {
			t.Errorf("lock %d installed as %+v, want %+v", l, got, want)
		}
	}
	if e := g2.locks.at(free).grantEpoch; e != 3 {
		t.Errorf("the free lock's epoch arrived as %d, want 3 (the Free frame carries it)", e)
	}
	if rel := n2.Stats().StaleEpochRejected; rel != 0 {
		t.Errorf("%d stale-epoch rejections on a clean adoption", rel)
	}
}
