package gwc

import (
	"slices"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/transport"
	"optsync/internal/vclock"
	"optsync/internal/wire"
)

// TestLastHeardSparseMembers checks the root's per-member proof of life in
// a group whose member IDs are not 0..N-1: members {0, 2, 5}, rooted at 0.
// An up-frame and a join request from a member refresh that member's slot
// alone; a frame from a node outside the group, or from no node at all,
// changes nothing; and the fence counts the members it reaches exactly as
// the old per-ID map did.
func TestLastHeardSparseMembers(t *testing.T) {
	net, err := transport.NewInProc(10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNodeClock(0, ep, stillClock{vclock.Real()})
	t.Cleanup(func() { _ = n.Close() })
	n.Metrics().Trace.Enable(0)
	members := []int{0, 2, 5}
	if err := n.Join(GroupConfig{ID: tGroup, Root: 0, Members: members}); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.roots[tGroup]
	slot := func(member int) *time.Time { return &r.lastHeard[r.cfg.indexOf(member)] }
	up := func(src int32) *wire.Message {
		m := wire.Hdr{Group: uint32(tGroup), Src: src, Epoch: r.epoch}.Update(uint32(tVar), 1)
		return &m
	}
	join := func(src int32) *wire.Message {
		m := wire.Hdr{Group: uint32(tGroup), Src: src}.JoinReq(0)
		return &m
	}

	t.Run("member", func(t *testing.T) {
		before := *slot(2)
		n.msgNow = before.Add(time.Minute)
		n.rootHandle(r, up(5))
		if !slot(5).Equal(n.msgNow) {
			t.Errorf("up-frame from 5: slot 5 reads %v, want the dispatch stamp %v", *slot(5), n.msgNow)
		}
		*slot(5) = time.Time{}
		t0 := time.Now()
		n.handleJoinReq(join(5))
		if slot(5).Before(t0) {
			t.Errorf("join request from 5: slot 5 reads %v, want at or after %v", *slot(5), t0)
		}
		if !slot(2).Equal(before) {
			t.Errorf("slot 2 moved to %v, want %v: only 5 spoke", *slot(2), before)
		}
	})

	t.Run("stranger", func(t *testing.T) {
		for _, src := range []int32{3, 9, -1} {
			want := slices.Clone(r.lastHeard)
			n.msgNow = n.msgNow.Add(time.Minute)
			n.rootHandle(r, up(src))
			n.handleJoinReq(join(src))
			if !slices.Equal(r.lastHeard, want) {
				t.Errorf("frames from %d changed lastHeard: %v, want %v", src, r.lastHeard, want)
			}
		}
	})

	t.Run("reach", func(t *testing.T) {
		now := time.Now()
		stale := now.Add(-2 * n.failAfter)
		for _, heard := range []map[int]time.Time{
			{2: stale, 5: stale},
			{2: now, 5: stale},
			{2: stale, 5: now},
			{2: stale, 5: stale},
			{2: now, 5: now},
		} {
			want := 1 // the root itself, counted the old way off a map by ID
			for _, m := range members {
				if m != n.id && now.Sub(heard[m]) <= n.failAfter {
					want++
				}
			}
			*slot(2), *slot(5) = heard[2], heard[5]
			wasFenced := r.fenced
			n.checkFence(r, now)
			if r.fenced != (want < r.quorum) {
				t.Errorf("heard %v: fenced=%v, want reach %d against quorum %d", heard, r.fenced, want, r.quorum)
			}
			if r.fenced && !wasFenced {
				if got := lastEvent(n, obs.EvFence).A; got != int64(want) {
					t.Errorf("heard %v: fence counted reach %d, want %d", heard, got, want)
				}
			}
		}
	})
}

// lastEvent is the newest traced event of typ on n.
func lastEvent(n *Node, typ obs.EventType) obs.Event {
	evs := n.Metrics().Trace.Snapshot()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Type == typ {
			return evs[i]
		}
	}
	return obs.Event{}
}
