package gwc

import (
	"reflect"
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
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNodeClock(1, ep, stillClock{vclock.Real()})
	t.Cleanup(func() {
		_ = n.Close()
		_ = net.Close()
	})
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
			g.children = []int{2}
			g.digest.Fold(1, 1, 1)
			g.diverged = true
			arm(&g.joinB)
			arm(&g.snapB)
			arm(&g.probeB)
			sw := &syncWaiter{ch: make(chan struct{}), since: now}
			arm(&sw.bo)
			g.syncPending[1] = sw
			lk := g.locks.at(tLock)
			lk.set(GrantValue(n.id))
			lk.lease = &memberLease{expiry: now.Add(time.Hour), epoch: 4}
			arm(&lk.lease.renewB)
			lk.hint = handoffHint{node: 2, token: 1, set: true}
			lk.pendingHandoff = &handoffNotice{doneEpoch: 6}
			arm(&lk.pendingHandoff.bo)
			arm(&lk.reqB)
			g.parkHandoff(tLock, lk, &wire.Message{Type: wire.THandoff})

			tc.enter(n, g)

			if g.epoch != tc.epoch || g.rootID != tc.root {
				t.Errorf("follows reign (%d, root %d), want (%d, root %d)", g.epoch, g.rootID, tc.epoch, tc.root)
			}
			if g.snapWanted != tc.snap || g.rejoining != tc.rejoining || g.electing {
				t.Errorf("snapWanted=%v rejoining=%v electing=%v, want %v %v false", g.snapWanted, g.rejoining, g.electing, tc.snap, tc.rejoining)
			}
			if g.nextSeq != 1 || len(g.pending) != 0 || g.acked != 0 || g.probeSeq != 1 {
				t.Errorf("stream not restarted: nextSeq=%d pending=%d acked=%d probeSeq=%d", g.nextSeq, len(g.pending), g.acked, g.probeSeq)
			}
			if g.snapBuf != nil || g.reports != nil || g.children != nil {
				t.Errorf("buffers of the old reign survive: snapBuf=%v reports=%v children=%v", g.snapBuf, g.reports, g.children)
			}
			if g.digest.Sum() != 0 || g.diverged {
				t.Errorf("digest %#x diverged=%v, want a fresh digest and no verdict", g.digest.Sum(), g.diverged)
			}
			if g.parkedHandoffs != 0 {
				t.Errorf("%d direct grants still parked", g.parkedHandoffs)
			}
			for i := range g.locks.recs {
				lk := &g.locks.recs[i]
				if lk.lease != nil || lk.hint.set || lk.pendingHandoff != nil || lk.handoffIn != nil {
					t.Errorf("lock %d keeps a claim against the old reign: %+v", i, *lk)
				}
				if lk.reqB != (backoff{}) {
					t.Errorf("lock %d request schedule not reset: %+v", i, lk.reqB)
				}
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

// TestOwnReportReadsAsAPeers pins the candidate's view of itself: the
// report a member with an exclusive hold, an open session with two
// holders and a queued session request builds for an election, read back
// by the one stream reader, is field for field the state written out
// here — so promote's own copy cannot silently change with the stream
// format.
func TestOwnReportReadsAsAPeers(t *testing.T) {
	n, g := loneMember(t)
	n.mu.Lock()
	defer n.mu.Unlock()
	const held, shared, wanted LockID = 1, 2, 3
	g.nextSeq, g.electEpoch = 42, 1
	mv := g.vars.at(tVar)
	mv.val, mv.written = 77, true
	g.vars.at(tVarB) // never written: not reported
	lk := g.locks.at(held)
	lk.set(GrantValue(n.id))
	lk.grantEpoch = 5
	lk = g.locks.at(shared)
	lk.set(Free)
	lk.grantEpoch = 4
	lk.sess = &sessView{session: 7, holders: map[int]uint32{1: 3, 2: 4}, mine: true}
	lk = g.locks.at(wanted)
	lk.want, lk.reqSession = true, 9

	got := newSnapReport(0)
	for _, m := range n.reportFrames(g) {
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
			held:   {val: GrantValue(n.id), epoch: 5},
			shared: {val: Free, epoch: 4, session: 7, holders: map[int]uint32{1: 3, 2: 4}},
			wanted: {reqSession: 9},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("own report reads\n  %+v\nwant\n  %+v", got, want)
	}
}
