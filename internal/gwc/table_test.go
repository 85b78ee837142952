package gwc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"optsync/internal/wire"
)

// TestLockRecordsMatchMapModel drives a member's lock table and the maps
// it replaced with one random sequence of sets, request opens and
// closes, rejoin resets, reads and ordered walks. Presence is the point:
// a lock nobody wrote reads as Free (not as zero) and stays out of the
// walk election reports take, a closed request is gone rather than
// zero-valued, and a rejoin forgets everything except the acquisition
// tokens.
func TestLockRecordsMatchMapModel(t *testing.T) {
	const ids, self = 48, 1
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := newMemberGroup(1, GroupConfig{ID: tGroup, Members: []int{0, 1}}, time.Time{})
		val := map[LockID]int64{}
		want := map[LockID]bool{}
		session := map[LockID]uint32{}
		token := map[LockID]uint32{}
		for step := 0; step < 4000; step++ {
			l := LockID(rng.Intn(ids))
			switch op := rng.Intn(100); {
			case op < 30: // a lock frame opens an exclusive section, or closes it
				lk := g.locks.at(l)
				lk.held.open(0)
				delete(val, l)
				if node := rng.Intn(8); node < 4 {
					lk.held.put(holder{node: node, epoch: 1})
					val[l] = GrantValue(node)
				}
			case op < 45: // a request opens
				lk := g.locks.at(l)
				if !lk.want {
					lk.reqToken++
					token[l]++
					lk.reqSession = uint32(rng.Intn(3))
					session[l] = lk.reqSession
				}
				lk.want = true
				want[l] = true
			case op < 60: // ...and closes
				g.locks.at(l).endRequest()
				delete(want, l)
				delete(session, l)
			case op < 62: // rejoin
				g.forgetState()
				clear(val)
				clear(want)
				clear(session)
			case op < 64: // a read far past anything written grows nothing
				before := len(g.locks.recs)
				far := LockID(ids + rng.Intn(math.MaxUint32-ids))
				if got := g.lockValue(far, self); got != Free {
					t.Fatalf("seed %d step %d: lockValue(%d) = %d, want Free", seed, step, far, got)
				}
				if len(g.locks.recs) != before {
					t.Fatalf("seed %d step %d: a read grew the table %d -> %d", seed, step, before, len(g.locks.recs))
				}
			}
			// Point reads, present or not: the holder's grant, else this
			// node's own request marker, else Free.
			wantVal, ok := val[l]
			switch {
			case ok:
			case want[l]:
				wantVal = RequestValue(self)
			default:
				wantVal = Free
			}
			if got := g.lockValue(l, self); got != wantVal {
				t.Fatalf("seed %d step %d: lockValue(%d) = %d, want %d (present %v)", seed, step, l, got, wantVal, ok)
			}
			if lk := g.locks.peek(l); lk != nil {
				if lk.want != want[l] || lk.reqSession != session[l] || lk.reqToken != token[l] {
					t.Fatalf("seed %d step %d: lock %d request state = (%v, %d, %d), want (%v, %d, %d)",
						seed, step, l, lk.want, lk.reqSession, lk.reqToken, want[l], session[l], token[l])
				}
			} else if want[l] || token[l] != 0 {
				t.Fatalf("seed %d step %d: lock %d has model state but no record", seed, step, l)
			}
			if step%97 != 0 {
				continue
			}
			// The ordered walk sees exactly the held locks, in the order
			// sortedKeys gave the map.
			var walk []LockID
			for i := range g.locks.recs {
				if len(g.locks.recs[i].held.in) > 0 {
					walk = append(walk, LockID(i))
				}
			}
			if keys := sortedKeys(val); !slices.Equal(walk, keys) {
				t.Fatalf("seed %d step %d: walk = %v, map keys = %v", seed, step, walk, keys)
			}
		}
	}
}

func TestTableGrowsToTheIDAndNoFurther(t *testing.T) {
	var tb table[VarID, memberVar]
	if tb.peek(0) != nil {
		t.Fatal("empty table has a record")
	}
	tb.at(9).val = 7
	if len(tb.recs) != 10 {
		t.Fatalf("at(9) grew the table to %d records, want 10", len(tb.recs))
	}
	if tb.peek(9).val != 7 || tb.peek(3).val != 0 || tb.peek(10) != nil {
		t.Fatal("peek disagrees with at")
	}
	tb.at(3).val = 1
	if len(tb.recs) != 10 {
		t.Fatalf("at below the high-water mark changed the size to %d", len(tb.recs))
	}
	if tb.at(maxRecords) != nil || tb.at(math.MaxUint32) != nil || len(tb.recs) != 10 {
		t.Fatalf("an id past the bound got a record (table now %d records)", len(tb.recs))
	}
}

// TestIDsPastTheBoundAreDropped feeds frames naming lock and variable
// IDs past the table bound through route — bare and inside batch frames,
// at a member and at the root: each is dropped with a recorded error and
// a count, and no table grows.
func TestIDsPastTheBoundAreDropped(t *testing.T) {
	c := newInProcCluster(t, 2, true)
	sizes := func(n *Node) [4]int {
		n.mu.Lock()
		defer n.mu.Unlock()
		g := n.groups[tGroup]
		s := [4]int{len(g.vars.recs), len(g.locks.recs)}
		if r := n.roots[tGroup]; r != nil {
			s[2], s[3] = len(r.vars.recs), len(r.book.locks.recs)
		}
		return s
	}
	varTypes := []wire.Type{wire.TUpdate, wire.TSeqUpdate, wire.TSnapVar}
	lockTypes := []wire.Type{wire.TLockReq, wire.TLockRel, wire.TLockCancel, wire.TSeqLock,
		wire.TSnapLock, wire.TLeaseGrant, wire.TLeaseRet, wire.THandoff}
	for ni, n := range c.nodes {
		before := sizes(n)
		sent := 0
		for _, id := range []uint32{maxRecords, maxRecords + 1, math.MaxUint32} {
			var frames []wire.Message
			for _, ty := range varTypes {
				frames = append(frames, wire.Message{Type: ty, Group: uint32(tGroup), Src: int32(1 - ni), Origin: int32(1 - ni), Seq: 1, Var: id, Val: 5})
			}
			for _, ty := range lockTypes {
				frames = append(frames, wire.Message{Type: ty, Group: uint32(tGroup), Src: int32(1 - ni), Origin: int32(1 - ni), Seq: 1, Lock: id, Val: GrantValue(ni)})
			}
			for _, m := range frames {
				n.handle(m)
				// One bad message condemns its whole batch frame.
				good := m
				good.Var, good.Lock = uint32(tVar), uint32(tLock)
				n.handle(wire.Message{Type: wire.TBatch, Group: uint32(tGroup), Src: m.Src, Batch: []wire.Message{good, m}})
				sent += 2
			}
		}
		if after := sizes(n); after != before {
			t.Errorf("node %d: table sizes %v -> %v", ni, before, after)
		}
		if got := n.Stats().IDRangeDrops; got != sent {
			t.Errorf("node %d: IDRangeDrops = %d, want %d", ni, got, sent)
		}
		if len(n.Errors()) == 0 {
			t.Errorf("node %d recorded no protocol error", ni)
		}
	}
	// An epoch in a lock-plane frame's Var is not an ID: it may be huge.
	c.nodes[0].handle(wire.Message{Type: wire.TLockRel, Group: uint32(tGroup), Src: 1, Origin: 1, Lock: uint32(tLock), Var: math.MaxUint32})
	if got := c.nodes[0].Stats().IDRangeDrops; got != 66 {
		t.Errorf("a large grant epoch was counted as an ID: IDRangeDrops = %d", got)
	}
	// The API refuses such IDs the same way, before anything grows.
	n := c.nodes[1]
	before := sizes(n)
	for name, err := range map[string]error{
		"Write":    n.Write(tGroup, maxRecords, 1),
		"Acquire":  n.AcquireContext(context.Background(), tGroup, maxRecords),
		"Release":  n.Release(tGroup, math.MaxUint32),
		"SetGuard": n.SetGuard(tGroup, tVar, maxRecords),
	} {
		if !errors.Is(err, ErrIDRange) {
			t.Errorf("%s with an ID past the bound: %v, want ErrIDRange", name, err)
		}
	}
	if v, err := n.Read(tGroup, math.MaxUint32); v != 0 || err != nil {
		t.Errorf("Read past the bound = (%d, %v), want (0, nil)", v, err)
	}
	if after := sizes(n); after != before {
		t.Errorf("API calls grew the tables %v -> %v", before, after)
	}
}

// TestLockWaitsReuseOneWaiter pins the free list: back-to-back lock waits
// on a node draw the same wake channel instead of making one each. Each
// round's wait parks behind the root node's own section (a request for a
// free lock is granted before the wait begins, and that wait takes none).
func TestLockWaitsReuseOneWaiter(t *testing.T) {
	c := newInProcCluster(t, 2, true)
	holder, n := c.nodes[0], c.nodes[1]
	var first chan struct{}
	for i := 0; i < 20; i++ {
		if err := holder.Acquire(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- n.Acquire(tGroup, tLock) }()
		waitFor(t, c, 5*time.Second, "the waiter parked", func() bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			return len(n.groups[tGroup].lock.waiters) == 1
		})
		if err := holder.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		waitAcquired(t, done, "the parked waiter")
		if err := n.Release(tGroup, tLock); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		free := append([]chan struct{}(nil), n.freeWaits...)
		n.mu.Unlock()
		if len(free) != 1 {
			t.Fatalf("round %d: %d waiters on the free list, want 1", i, len(free))
		}
		ch := free[0]
		if first == nil {
			first = ch
		}
		if ch != first {
			t.Fatalf("round %d: wake channel %p, want %p", i, ch, first)
		}
	}
}

// TestCloseWhileWaitingKeepsNoWaiter: shutdown closes the channels of
// registered waiters to wake them, so such a waiter must never reach the
// free list — a later wait handed a closed channel would spin.
func TestCloseWhileWaitingKeepsNoWaiter(t *testing.T) {
	c := newInProcCluster(t, 3, true)
	holder, n := c.nodes[1], c.nodes[2]
	// One waiter per lock: a node has one acquisition of a lock at a time.
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		l := tLock + LockID(i)
		if err := holder.Acquire(tGroup, l); err != nil {
			t.Fatal(err)
		}
		go func() { errs <- n.Acquire(tGroup, l) }()
	}
	waitFor(t, c, 5*time.Second, "all waiters registered", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.groups[tGroup].lock.waiters) == waiters
	})
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("waiter returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter never woke from Close")
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.freeWaits) != 0 {
		t.Errorf("%d waiters on the free list of a closed node", len(n.freeWaits))
	}
}

// busyListsOK checks the busy-list invariant on one group: each list is
// ascending, holds exactly the records flagged busy, and every record
// with state the tick or the lease paths would act on is flagged. Caller
// holds n.mu.
func busyListsOK(t *testing.T, n *Node, g *memberGroup) {
	t.Helper()
	if !slices.IsSorted(g.busyLocks) || !slices.IsSorted(g.busyVars) {
		t.Errorf("node %d: busy lists out of order: %v %v", n.id, g.busyLocks, g.busyVars)
	}
	for i := range g.locks.recs {
		lk := &g.locks.recs[i]
		_, listed := slices.BinarySearch(g.busyLocks, LockID(i))
		active := !lk.reqSince.IsZero() || lk.parked > 0 || lk.lease != nil || lk.hint.Set || lk.pendingHandoff != nil || lk.handoffIn != nil
		if listed != lk.busy || (active && !listed) {
			t.Errorf("node %d lock %d: listed=%v busy=%v active=%v", n.id, i, listed, lk.busy, active)
		}
	}
	for i := range g.vars.recs {
		mv := &g.vars.recs[i]
		_, listed := slices.BinarySearch(g.busyVars, VarID(i))
		if listed != mv.busy || (mv.eagerOut && !listed) {
			t.Errorf("node %d var %d: listed=%v busy=%v eagerOut=%v", n.id, i, listed, mv.busy, mv.eagerOut)
		}
	}
}

// TestBusyListsFollowWhatIsInFlight pins what the maintenance tick
// walks: a high ID grows the table, but only records with something in
// flight are listed — in ID order, once each — an idle one leaves at the
// next sweep and may come back, and a rejoin reset empties the lists.
func TestBusyListsFollowWhatIsInFlight(t *testing.T) {
	g := &memberGroup{}
	now := time.Now()
	for _, l := range []LockID{maxRecords - 1, 2, 700, 2} {
		lk := g.locks.at(l)
		lk.reqSince = now
		markBusy(&g.busyLocks, &lk.busy, l)
	}
	for _, v := range []VarID{9, 4} {
		mv := g.vars.at(v)
		mv.eagerOut = true
		markBusy(&g.busyVars, &mv.busy, v)
	}
	if want := []LockID{2, 700, maxRecords - 1}; !slices.Equal(g.busyLocks, want) {
		t.Fatalf("busyLocks = %v, want %v", g.busyLocks, want)
	}
	if want := []VarID{4, 9}; !slices.Equal(g.busyVars, want) {
		t.Fatalf("busyVars = %v, want %v", g.busyVars, want)
	}
	g.locks.at(700).endRequest()
	g.vars.at(4).eagerOut = false
	g.sweepBusy()
	if want := []LockID{2, maxRecords - 1}; !slices.Equal(g.busyLocks, want) || g.locks.at(700).busy {
		t.Fatalf("after the sweep busyLocks = %v (lock 700 busy=%v), want %v", g.busyLocks, g.locks.at(700).busy, want)
	}
	if want := []VarID{9}; !slices.Equal(g.busyVars, want) || g.vars.at(4).busy {
		t.Fatalf("after the sweep busyVars = %v, want %v", g.busyVars, want)
	}
	lk := g.locks.at(700)
	lk.lease = &memberLease{}
	markBusy(&g.busyLocks, &lk.busy, 700)
	if want := []LockID{2, 700, maxRecords - 1}; !slices.Equal(g.busyLocks, want) {
		t.Fatalf("re-marked busyLocks = %v, want %v", g.busyLocks, want)
	}
	g.forgetState()
	if len(g.busyLocks) != 0 || len(g.busyVars) != 0 || g.locks.at(2).busy || g.vars.at(9).busy {
		t.Fatalf("forgetState left busy records: %v %v", g.busyLocks, g.busyVars)
	}
}

// TestBusyListsCoverLeaseTraffic runs a leased convoy (leases, revokes,
// hints, direct handoffs, guarded stores) and checks on every node, while
// it runs and after it settles, that nothing the tick must drive is
// missing from the lists — and that a settled group lists nothing.
func TestBusyListsCoverLeaseTraffic(t *testing.T) {
	c := leaseCluster(t, 4, true, 20*time.Millisecond)
	check := func() {
		for _, n := range c.nodes {
			n.mu.Lock()
			busyListsOK(t, n, n.groups[tGroup])
			// Sweeping this often unlists a record the moment it idles, so
			// state set without a mark shows up in the next check.
			n.groups[tGroup].sweepBusy()
			n.mu.Unlock()
		}
	}
	done := make(chan struct{})
	for i := 1; i < 4; i++ {
		go func(n *Node) {
			defer func() { done <- struct{}{} }()
			for k := 0; k < 100; k++ {
				if err := n.Acquire(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
				// A section with an unconfirmed store releases through the root;
				// the others may hand off directly.
				if k%4 == 0 {
					if err := n.Write(tGroup, tVar, int64(k)); err != nil {
						t.Error(err)
					}
				}
				time.Sleep(100 * time.Microsecond) // let a queue (and so a hint) form
				if err := n.Release(tGroup, tLock); err != nil {
					t.Error(err)
					return
				}
			}
		}(c.nodes[i])
	}
	for running := 3; running > 0; {
		select {
		case <-done:
			running--
		default:
			check()
			time.Sleep(200 * time.Microsecond)
		}
	}
	if st := c.nodes[0].Stats(); st.LeaseGrants == 0 || st.HandoffCommits == 0 {
		t.Errorf("the convoy exercised no lease (%d) or no handoff (%d)", st.LeaseGrants, st.HandoffCommits)
	}
	waitFor(t, c, 5*time.Second, "every busy list to drain", func() bool {
		check()
		for _, n := range c.nodes {
			n.tick()
			n.mu.Lock()
			g := n.groups[tGroup]
			left := len(g.busyLocks) + len(g.busyVars)
			n.mu.Unlock()
			if left > 0 {
				return false
			}
		}
		return true
	})
}

// TestEverySetterMarksItsRecord drives each place that sets tick-driven
// state on a record nothing lists yet and requires the record listed
// straight after — a set without its mark would be state the tick never
// visits (a lease never returned, a store never re-shipped).
func TestEverySetterMarksItsRecord(t *testing.T) {
	c := leaseCluster(t, 3, true, time.Hour)
	root, n := c.nodes[0], c.nodes[1]
	mine := GrantValue(n.id)
	listed := func(what string, l LockID) {
		t.Helper()
		g := n.groups[tGroup]
		busyListsOK(t, n, g)
		if _, ok := slices.BinarySearch(g.busyLocks, l); !ok {
			t.Errorf("%s left lock %d unlisted: %v", what, l, g.busyLocks)
		}
	}

	// An acquisition stamp: the root holds the lock, so no grant clears it.
	if err := root.Acquire(tGroup, 5); err != nil {
		t.Fatal(err)
	}
	if err := request(n, 5); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	listed("a lock request", 5)

	g := n.groups[tGroup]
	// A grant carrying a handoff hint.
	lk := g.locks.at(6)
	lk.want, lk.reqToken = true, 9
	n.applyLock(g, &wire.Message{Type: wire.TSeqLock, Lock: 6, Val: mine, Var: 1, Origin: 9, Deadline: int64(4)<<32 | int64(2+1)})
	if !lk.hint.Set {
		t.Fatal("the grant's hint was not captured")
	}
	listed("a hinted grant", 6)

	// A lease on a lock held mid-section.
	lk = g.locks.at(7)
	lk.held.put(holder{node: n.id, epoch: 3})
	n.handleLeaseGrant(g, &wire.Message{Type: wire.TLeaseGrant, Group: uint32(tGroup), Lock: 7, Var: 3, Deadline: int64(time.Hour), Epoch: g.epoch})
	if lk.lease == nil {
		t.Fatal("the lease was not installed")
	}
	listed("a lease grant", 7)

	// A direct grant parked on its watermark.
	lk = g.locks.at(8)
	g.parkHandoff(8, lk, &wire.Message{Type: wire.THandoff, Lock: 8, Seq: g.nextSeq + 10, Epoch: g.epoch})
	listed("a parked handoff", 8)

	// A handoff notice awaiting the root (handoffRelease drops n.mu).
	lk = g.locks.at(9)
	lk.held.put(holder{node: n.id, epoch: 1})
	if err := n.handoffRelease(tGroup, g, 9, lk, wire.Hint{Node: 2, Token: 1, Set: true}, n.clock.Now()); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	if g.locks.at(9).pendingHandoff == nil {
		t.Fatal("no handoff notice pending")
	}
	listed("a handoff notice", 9)
	n.mu.Unlock()

	// An unconfirmed guarded store: the root is held still, so no echo
	// confirms it before the check.
	root.mu.Lock()
	err := n.Write(tGroup, tVarB, 1)
	n.mu.Lock()
	mv := g.vars.at(tVarB)
	_, ok := slices.BinarySearch(g.busyVars, tVarB)
	if err != nil || !mv.eagerOut || !ok {
		t.Errorf("guarded store: err=%v eagerOut=%v listed=%v (%v)", err, mv.eagerOut, ok, g.busyVars)
	}
	busyListsOK(t, n, g)
	n.mu.Unlock()
	root.mu.Unlock()
}
