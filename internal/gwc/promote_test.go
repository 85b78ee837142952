package gwc

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// A promotion from election reports, with no node and no network: each
// member's state at the crash is set by hand and reported by the
// production reportFrames, and the reign is rebuilt by restore — what
// promote calls — over a lock book whose sink records what it multicasts.
//
// The history all of them share: x (tVar, guarded by tLock) was
// sequenced as 5, then node 2's entry into tLock at epoch 7, answering
// its token 3; the old root, node 0, had sequenced 20 frames when it died.

var reignMembers = []int{0, 1, 2, 3, 4}

const (
	bestSeq    = 20
	entryEpoch = 7
)

// reignRec records what a rebuilt reign multicasts, numbered in order.
type reignRec struct{ bookRec }

func (r *reignRec) multicast(m wire.Message) {
	r.sq++
	m.Seq = r.sq
	r.frames = append(r.frames, m)
}

// witness is node's member state when it had applied the shared history
// through seq.
func witness(node int, seq uint64) *memberGroup {
	g := newMemberGroup(node, GroupConfig{ID: tGroup, Members: reignMembers, Guards: map[VarID]LockID{tVar: tLock}}, scopeT0)
	g.nextSeq, g.electEpoch = seq+1, 1
	mv := g.vars.at(tVar)
	mv.val, mv.written = 5, true
	lk := g.locks.at(tLock)
	lk.grantEpoch = entryEpoch
	lk.held.put(holder{node: 2, epoch: entryEpoch, token: 3})
	return g
}

// store makes g's node store val to x, tagged with the newest grant epoch
// it saw, as its nonce-th guarded store; the echo died with the root.
func store(g *memberGroup, val int64, nonce uint64) {
	mv := g.vars.at(tVar)
	mv.val, mv.eagerOut = val, true
	mv.eagerMsg = wire.Hdr{Group: uint32(tGroup), Src: int32(g.locks.self)}.GuardedUpdate(uint32(tVar), val, g.locks.at(tLock).grantEpoch, nonce)
	markBusy(&g.busyVars, &mv.busy, tVar)
}

// release makes g's node leave the section it is in; the release died
// with the root.
func release(g *memberGroup) {
	lk := g.locks.at(tLock)
	g.locks.leave(lk, lk.held.find(g.locks.self).epoch)
}

// wait gives g's node an outstanding request for tLock, with token.
func wait(g *memberGroup, token uint32) {
	lk := g.locks.at(tLock)
	lk.want, lk.reqToken = true, token
}

// reportsOf reads every member's election report back, as the candidate
// does.
func reportsOf(gs ...*memberGroup) map[int]*snapReport {
	reps := make(map[int]*snapReport)
	for _, g := range gs {
		rep := newSnapReport(0)
		for _, m := range g.reportFrames() {
			rep.absorb(&m)
		}
		reps[g.locks.self] = rep
	}
	return reps
}

// rebuild starts reign 1 on candidate self from reps, node 0 suspected.
func rebuild(self int, reps map[int]*snapReport) (*rootGroup, *reignRec) {
	return rebuildAt(1, self, reps, 0)
}

// rebuildAt starts reign epoch on candidate self from reps, the dead
// suspected.
func rebuildAt(epoch uint32, self int, reps map[int]*snapReport, dead ...int) (*rootGroup, *reignRec) {
	rec := &reignRec{bookRec{clock: scopeT0}}
	r := &rootGroup{
		cfg:    GroupConfig{ID: tGroup, Root: self, Members: reignMembers},
		epoch:  epoch,
		ring:   newSeqRing(1),
		member: witness(self, 0),
		book:   lockBook{sink: rec, hdr: wire.Hdr{Group: uint32(tGroup), Src: int32(self), Epoch: epoch}},
	}
	rec.book = &r.book
	suspected := map[int]bool{}
	for _, node := range dead {
		suspected[node] = true
	}
	r.restore(reps, suspected)
	return r, rec
}

// quiet is a member lock plane's sink that keeps nothing: the members
// here only re-base, apply and report.
type quiet struct{}

func (quiet) up(wire.Message)                  {}
func (quiet) emit(obs.EventType, int64, int64) {}
func (quiet) wake()                            {}
func (quiet) arm(*backoff, time.Time)          {}
func (quiet) suspend()                         {}
func (quiet) now() time.Time                   { return scopeT0 }
func (quiet) hdr() wire.Hdr                    { return wire.Hdr{Group: uint32(tGroup)} }
func (quiet) leasing() bool                    { return false }

// follow re-bases g's node onto reign r through the reign's snapshot, as
// snapApply does: the copies and sections it carries replace g's, and
// the stores it answers settle.
func follow(g *memberGroup, r *rootGroup) {
	g.locks.sink = quiet{}
	snap := newSnapReport(0)
	for _, m := range r.snap() {
		snap.absorb(&m)
	}
	for v, val := range snap.vars {
		mv := g.vars.at(v)
		mv.val, mv.written = val, true
	}
	for l, s := range snap.locks {
		g.locks.install(l, &s.held, s.epoch)
	}
	g.settle(snap)
}

// sequenced lists the values of x the reign sequenced, in order.
func sequenced(rec *reignRec) []int64 {
	var xs []int64
	for _, m := range rec.frames {
		if m.Type == wire.TSeqUpdate && VarID(m.Var) == tVar {
			xs = append(xs, m.Val)
		}
	}
	return xs
}

// TestMergeKeepsTheHoldersStore: node 2 stored x = 6 inside its section
// and released, and both frames died with the root; node 3 waits for the
// lock with its token 4. Whatever the shape of the report majority, the
// new reign sequences x = 6 once, before node 3 enters: the holder's
// store is judged as the late frame it is, not voted on. The first four
// rows are the shapes ROADMAP measured the old vote on (it kept 6 only in
// the first); in the fifth a reporter that did not hold the guard has an
// x = 9 of its own, which the vote adopted as a lone dissenter and the
// judge refuses; in the sixth node 2 alone had seen its own entry, so only
// its report can show it inside; in the last the promotion cut node 2's
// report short after its store. Node 2 then follows the new reign as a
// member does: its store goes out again before it hands back the entry
// the reign's snapshot may still show it in (adoptEpoch, install).
func TestMergeKeepsTheHoldersStore(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reporters map[int]uint64 // reporter → applied sequence number
		dissent   bool           // node 4 stored x = 9 from outside the lock
		alone     bool           // node 2 alone saw its entry: the others hold node 1's
		cut       bool           // node 2's report is cut short by the promotion, after its store
		restored  int64          // x once the reports are replayed
	}{
		{name: "{1,2,3} all at the best sequence", reporters: map[int]uint64{1: bestSeq, 2: bestSeq, 3: bestSeq}, restored: 6},
		{name: "{1,2,3} node 3 one behind", reporters: map[int]uint64{1: bestSeq, 2: bestSeq, 3: bestSeq - 1}, restored: 6},
		{name: "{1,2,3} node 2 one behind", reporters: map[int]uint64{1: bestSeq, 2: bestSeq - 1, 3: bestSeq}, restored: 6},
		{name: "{1,3,4} node 2 not yet reported", reporters: map[int]uint64{1: bestSeq, 3: bestSeq, 4: bestSeq}, restored: 5},
		{name: "{1,3,4} a lone x = 9 from outside the lock", reporters: map[int]uint64{1: bestSeq, 3: bestSeq, 4: bestSeq}, dissent: true, restored: 5},
		{name: "{1,2,3} node 2 alone saw its entry", reporters: map[int]uint64{1: bestSeq - 1, 2: bestSeq, 3: bestSeq - 1}, alone: true, restored: 6},
		{name: "{1,3,4} node 2's report cut after its store", reporters: map[int]uint64{1: bestSeq, 3: bestSeq, 4: bestSeq}, cut: true, restored: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := map[int]*memberGroup{}
			for node := 1; node <= 4; node++ {
				ms[node] = witness(node, tc.reporters[node])
			}
			if tc.alone {
				// The frame the others missed is node 2's entry: they still
				// see node 1's, which node 1 itself has left.
				for _, g := range []*memberGroup{ms[1], ms[3], ms[4]} {
					lk := g.locks.at(tLock)
					lk.grantEpoch = entryEpoch - 1
					lk.held.open(0)
					lk.held.put(holder{node: 1, epoch: entryEpoch - 1, token: 2})
				}
				release(ms[1])
			}
			store(ms[2], 6, 11)
			release(ms[2])
			wait(ms[3], 4)
			if tc.dissent {
				store(ms[4], 9, 5)
			}
			var gs []*memberGroup
			for _, node := range sortedKeys(tc.reporters) {
				gs = append(gs, ms[node])
			}
			reps := reportsOf(gs...)
			if tc.cut {
				// The rest of it, its release among it, reaches the new root
				// as live traffic (below).
				cut := newSnapReport(0)
				for _, m := range ms[2].reportFrames() {
					if cut.absorb(&m); m.Type == wire.TUpdate {
						break
					}
				}
				reps[2] = cut
			}
			r, rec := rebuild(1, reps)
			if x := r.vars.at(tVar).auth; x != tc.restored {
				t.Errorf("x = %d once the reports are replayed, want %d", x, tc.restored)
			}

			// Node 2 follows the new reign: it re-ships its store — a
			// duplicate if the replay took it in — and then hands back
			// entry 7 — stale if the replay freed it.
			hdr := wire.Hdr{Group: uint32(tGroup), Src: 2, Epoch: 1}
			ship := ms[2].vars.at(tVar).eagerMsg
			ship.Epoch = 1
			if r.admit(&ship) {
				rec.multicast(r.book.hdr.SeqUpdate(ship.Origin, ship.Var, ship.Val, ship.Guarded))
			}
			r.book.step(ptr(hdr.LockRel(uint32(tLock), entryEpoch, 0)))

			xs := sequenced(rec)
			sixes := len(xs) - len(slices.DeleteFunc(slices.Clone(xs), func(x int64) bool { return x == 6 }))
			if r.vars.at(tVar).auth != 6 || sixes != 1 || slices.Contains(xs, 9) {
				t.Errorf("x = %d once node 2 follows the reign, which sequenced x = %v; want 6, once, and never 9", r.vars.at(tVar).auth, xs)
			}
			if h := r.book.lock(tLock).held.find(3); h == nil || h.token != 4 {
				t.Errorf("node 3 not in the lock with its token 4: %+v", r.book.lock(tLock))
			}
			entry := slices.IndexFunc(rec.frames, func(m wire.Message) bool { return m.Type == wire.TSeqLock && m.Holder() == 3 })
			data := slices.IndexFunc(rec.frames, func(m wire.Message) bool { return m.Type == wire.TSeqUpdate && m.Val == 6 })
			if entry < 0 || data < 0 || entry < data {
				t.Errorf("node 3's entry is frame %d and x = 6 frame %d of %+v: the data must come first", entry, data, rec.frames)
			}
		})
	}
}

// TestSecondFailoverKeepsALaterWrite: a store the first reign replayed
// must not hide what came after it from the second. Node 2's x = 6 and
// its release died with node 0, and reign 1 (node 1) replayed them from
// node 2's report: x = 6 was the reign's first write, and node 3 entered.
// Node 2 followed reign 1 through its snapshot, which covered the echo of
// its store. Then node 3 left, node 1 entered and wrote x = 7, and node 1
// died having sequenced it; only node 2 had applied that far. Reign 2 is
// rebuilt from nodes 2, 3 and 4 and must keep x = 7: node 2's report
// carries its copy, not the store the first reign already answered.
func TestSecondFailoverKeepsALaterWrite(t *testing.T) {
	ms := map[int]*memberGroup{}
	for node := 1; node <= 4; node++ {
		ms[node] = witness(node, bestSeq)
	}
	store(ms[2], 6, 11)
	release(ms[2])
	wait(ms[3], 4)
	r1, rec := rebuild(1, reportsOf(ms[1], ms[2], ms[3]))
	for _, node := range []int{2, 3, 4} {
		follow(ms[node], r1)
		ms[node].nextSeq = rec.sq + 1
	}
	if ms[2].vars.at(tVar).eagerOut {
		t.Errorf("node 2's store still out after the snapshot of the reign that sequenced it")
	}

	// Reign 1 moves on; node 2 applies all of it, nodes 3 and 4 none.
	h3, h1 := wire.Hdr{Group: uint32(tGroup), Src: 3, Epoch: 1}, wire.Hdr{Group: uint32(tGroup), Src: 1, Epoch: 1}
	release(ms[3])
	from := len(rec.frames)
	r1.book.step(ptr(h3.LockRel(uint32(tLock), entryEpoch+1, 0)))
	r1.book.step(ptr(h1.LockReq(uint32(tLock), 1, 0, 0)))
	if up := h1.GuardedUpdate(uint32(tVar), 7, entryEpoch+2, 1); r1.admit(&up) {
		rec.multicast(r1.book.hdr.SeqUpdate(up.Origin, up.Var, up.Val, up.Guarded))
	}
	for _, m := range rec.frames[from:] {
		switch m.Type {
		case wire.TSeqLock:
			ms[2].locks.applyLock(&m)
		case wire.TSeqUpdate:
			mv := ms[2].vars.at(VarID(m.Var))
			mv.val, mv.written = m.Val, true
		}
	}
	ms[2].nextSeq = rec.sq + 1
	if x := ms[2].vars.at(tVar).val; x != 7 {
		t.Fatalf("node 2 applied reign 1 to x = %d, want 7 (frames %+v)", x, rec.frames[from:])
	}

	for _, g := range ms {
		g.electEpoch = 2
	}
	r2, _ := rebuildAt(2, 2, reportsOf(ms[2], ms[3], ms[4]), 0, 1)
	if x := r2.vars.at(tVar).auth; x != 7 {
		t.Errorf("reign 2 starts from x = %d, want node 1's sequenced 7", x)
	}
}

// TestSnapshotSettlesTheStoresItAnswers: a snapshot comes after every
// store its member sent, so it retires each one the root has answered —
// the store of a section the member has left, or one whose value it
// shows — and keeps out only what may still be in flight: a store of the
// section the member is in that the snapshot does not show, and a
// speculation's, which waits for its grant.
func TestSnapshotSettlesTheStoresItAnswers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(g *memberGroup) // node 2, holding entry 7, stored x = 6
		shown int64                // x in the snapshot
		out   bool
	}{
		{name: "left the section, snapshot shows the store", setup: release, shown: 6},
		{name: "left the section, snapshot shows another value", setup: release, shown: 5},
		{name: "in the section, snapshot shows the store", setup: func(*memberGroup) {}, shown: 6},
		{name: "in the section, snapshot does not show it", setup: func(*memberGroup) {}, shown: 5, out: true},
		{name: "speculating, its grant to come", shown: 5, out: true, setup: func(g *memberGroup) {
			release(g)
			wait(g, 5)
			g.locks.at(tLock).spec = new(countIntr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := witness(2, bestSeq)
			g.locks.sink = quiet{}
			store(g, 6, 11)
			tc.setup(g)
			snap := newSnapReport(bestSeq)
			snap.vars[tVar] = tc.shown
			g.settle(snap)
			if out := g.vars.at(tVar).eagerOut; out != tc.out {
				t.Errorf("store out = %v after the snapshot, want %v", out, tc.out)
			}
		})
	}
}

// TestEveryCandidateRebuildsTheSameReign: the reports decide the reign,
// not who reads them. From one report set — node 1 a frame behind, node 2
// stored and released with both frames lost, node 3 and node 4 waiting,
// node 4 with a store from outside the lock — every would-be candidate
// rebuilds the same variables, book records and queues and sequences the
// same frames, and each reporting waiter is on the books exactly once,
// with its live token.
func TestEveryCandidateRebuildsTheSameReign(t *testing.T) {
	crash := func() map[int]*snapReport {
		m1, m2, m3, m4 := witness(1, bestSeq-1), witness(2, bestSeq), witness(3, bestSeq), witness(4, bestSeq)
		store(m2, 6, 11)
		release(m2)
		wait(m3, 4)
		wait(m4, 9)
		store(m4, 9, 5)
		return reportsOf(m1, m2, m3, m4)
	}
	var first string
	for cand := 1; cand <= 4; cand++ {
		r, rec := rebuild(cand, crash())
		got := describeReign(r, rec)
		if cand == 1 {
			first = got
		} else if got != first {
			t.Errorf("candidate %d rebuilds\n%s\ncandidate 1\n%s", cand, got, first)
		}
		ls := r.book.lock(tLock)
		for node, token := range map[int]uint32{3: 4, 4: 9} {
			var on []uint32
			if h := ls.held.find(node); h != nil {
				on = append(on, h.token)
			}
			for _, w := range ls.queue {
				if w.node == node {
					on = append(on, w.token)
				}
			}
			if len(on) != 1 || on[0] != token {
				t.Errorf("candidate %d: waiter %d on the books with tokens %v, want once with %d", cand, node, on, token)
			}
		}
	}
}

// describeReign prints what a rebuilt reign consists of, leaving out who
// roots it.
func describeReign(r *rootGroup, rec *reignRec) string {
	var b strings.Builder
	for i := range r.vars.recs {
		if rv := &r.vars.recs[i]; rv.written {
			fmt.Fprintf(&b, "var %d = %d\n", i, rv.auth)
		}
	}
	r.book.each(func(l LockID, ls *lockState) {
		fmt.Fprintf(&b, "lock %d: epoch %d held %+v queue %+v foreign %d last %d/%d\n",
			l, ls.epoch, ls.held, ls.queue, ls.foreignEpoch, ls.lastWinner, ls.lastSession)
	})
	for _, m := range rec.frames {
		m.Src = 0
		fmt.Fprintf(&b, "frame %+v\n", m)
	}
	return b.String()
}
