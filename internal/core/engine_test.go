package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/transport"
	"optsync/internal/wire"
)

const (
	tGroup gwc.GroupID = 1
	tVar   gwc.VarID   = 10
	tVarB  gwc.VarID   = 11
	tLock  gwc.LockID  = 0
)

// rig is a live cluster with an optimistic engine per node.
type rig struct {
	nodes   []*gwc.Node
	engines []*Engine
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	net, err := transport.NewInProc(n)
	if err != nil {
		t.Fatal(err)
	}
	return newRigOn(t, net)
}

// newRigOn is newRig over a network the caller built (and may have
// wrapped); the rig closes it.
func newRigOn(t *testing.T, net transport.Network) *rig {
	t.Helper()
	n := net.Size()
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	r := &rig{nodes: make([]*gwc.Node, n), engines: make([]*Engine, n)}
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[i] = gwc.NewNode(i, ep)
		if err := r.nodes[i].Join(gwc.GroupConfig{
			ID:      tGroup,
			Root:    0,
			Members: members,
			Guards:  map[gwc.VarID]gwc.LockID{tVar: tLock, tVarB: tLock},
		}); err != nil {
			t.Fatal(err)
		}
		r.engines[i] = NewEngine(r.nodes[i], DefaultConfig())
	}
	t.Cleanup(func() {
		for _, nd := range r.nodes {
			_ = nd.Close()
		}
		_ = net.Close()
	})
	return r
}

// waitVal polls a node's copy until it matches.
func waitVal(t *testing.T, n *gwc.Node, v gwc.VarID, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got, _ := n.Read(tGroup, v); got == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	got, _ := n.Read(tGroup, v)
	t.Fatalf("node %d: var %d = %d, want %d", n.ID(), v, got, want)
}

// kind is one of the two section kinds the engine runs. The pinned
// regressions below run once per kind: the speculation routine is
// written once, and this is what keeps a fix from landing for one kind
// only.
type kind struct {
	name    string
	session uint32 // the section under test
	rival   uint32 // an incompatible section for another node to hold
}

var kinds = []kind{
	{name: "mutex", session: 0, rival: 0},
	{name: "session", session: 7, rival: 9},
}

func (k kind) do(e *Engine, body func(tx *Tx) error) error {
	return e.DoSession(tGroup, tLock, k.session, body)
}

func (k kind) enter(n *gwc.Node) error { return n.EnterSession(tGroup, tLock, k.rival) }
func (k kind) leave(n *gwc.Node) error { return n.Release(tGroup, tLock) }

// seen reports whether n has applied a rival entry.
func (k kind) seen(n *gwc.Node) bool {
	if k.rival == 0 {
		v, _ := n.LockValue(tGroup, tLock)
		return v != gwc.Free && v != gwc.GrantValue(n.ID())
	}
	si, _ := n.SessionState(tGroup, tLock)
	return si.Holders > 0 && si.Session == k.rival
}

// eachKind runs f as one subtest per section kind.
func eachKind(t *testing.T, f func(t *testing.T, k kind)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { f(t, k) })
	}
}

func TestOptimisticCommitNoContention(t *testing.T) {
	r := newRig(t, 3)
	err := r.engines[1].Do(tGroup, tLock, func(tx *Tx) error {
		return tx.Write(tVar, 99)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.engines[1].Stats()
	if s.Optimistic != 1 || s.Commits != 1 || s.Rollbacks != 0 || s.Regular != 0 {
		t.Errorf("stats = %+v, want one committed optimistic section", s)
	}
	for _, n := range r.nodes {
		waitVal(t, n, tVar, 99)
	}
}

func TestRegularPathWhenLockVisiblyHeld(t *testing.T) {
	r := newRig(t, 3)
	// Node 2 holds the lock; wait until node 1's local copy shows it.
	if err := r.nodes[2].Acquire(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, _ := r.nodes[1].LockValue(tGroup, tLock)
		if v == gwc.GrantValue(2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 1 never saw the grant")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		done <- r.engines[1].Do(tGroup, tLock, func(tx *Tx) error {
			return tx.Write(tVar, 5)
		})
	}()
	time.Sleep(30 * time.Millisecond)
	if err := r.nodes[2].Release(tGroup, tLock); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := r.engines[1].Stats()
	if s.Regular != 1 || s.Optimistic != 0 {
		t.Errorf("stats = %+v, want the regular path (local copy showed usage)", s)
	}
}

// delayToNode wraps a network, deferring sequenced (down) messages to one
// node so its local lock copy lags reality — the deterministic way to
// reproduce Figure 7's race on the live runtime.
type delayToNode struct {
	transport.Network
	target int
	delay  time.Duration
}

func (d *delayToNode) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := d.Network.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &delayEndpoint{Endpoint: ep, net: d}, nil
}

type delayEndpoint struct {
	transport.Endpoint
	net *delayToNode
}

func (e *delayEndpoint) Send(to int, m wire.Message) error {
	if to == e.net.target && (m.Type == wire.TSeqLock || m.Type == wire.TSeqUpdate) {
		inner := e.Endpoint
		time.AfterFunc(e.net.delay, func() { _ = inner.Send(to, m) })
		return nil
	}
	return e.Endpoint.Send(to, m)
}

func TestRollbackOnContention(t *testing.T) {
	// The Figure 7 interaction, forced deterministically: node 2's view
	// of the lock lags 30ms behind, so it speculates while node 1
	// actually holds an incompatible section. Its speculative write must
	// be suppressed at the root, rolled back locally, and re-executed
	// after its queued request is granted.
	eachKind(t, func(t *testing.T, k kind) {
		inner, err := transport.NewInProc(3)
		if err != nil {
			t.Fatal(err)
		}
		r := newRigOn(t, &delayToNode{Network: inner, target: 2, delay: 30 * time.Millisecond})
		nodes, e2 := r.nodes, r.engines[2]

		if err := k.enter(nodes[1]); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Write(tGroup, tVar, 1000); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- k.do(e2, inc)
		}()
		time.Sleep(100 * time.Millisecond) // let node 2 speculate and get interrupted
		if err := k.leave(nodes[1]); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("optimistic section never finished")
		}
		s := e2.Stats()
		if s.Optimistic != 1 || s.Rollbacks != 1 {
			t.Fatalf("stats = %+v, want one speculation ending in one rollback", s)
		}
		if sup := nodes[0].Stats().Suppressed; sup == 0 {
			t.Error("root never suppressed the speculative write")
		}
		// After the rollback, node 2 re-read 1000 and wrote 1001 everywhere.
		for _, n := range nodes {
			waitVal(t, n, tVar, 1001)
		}
	})
}

func TestCounterUnderContentionAllEngines(t *testing.T) {
	r := newRig(t, 4)
	const reps = 8
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				err := r.engines[id].Do(tGroup, tLock, func(tx *Tx) error {
					cur, err := tx.Read(tVar)
					if err != nil {
						return err
					}
					time.Sleep(time.Millisecond) // widen the race window
					return tx.Write(tVar, cur+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range r.nodes {
		waitVal(t, n, tVar, 4*reps)
	}
	// Sanity: the paths actually exercised sum to the sections run.
	total := 0
	for _, e := range r.engines {
		s := e.Stats()
		total += s.Commits + s.Rollbacks + s.Regular
	}
	if total != 4*reps {
		t.Errorf("paths sum to %d sections, want %d", total, 4*reps)
	}
}

func TestHistoryRisesUnderContentionAndDecays(t *testing.T) {
	e := NewEngine(nil, Config{HistoryDecay: 0.5, HistoryThreshold: 0.3})
	// sections folds one observation each of n sections into the history.
	sections := func(n int, inUse bool) {
		for i := 0; i < n; i++ {
			r, err := e.enter(lockKey{tGroup, tLock})
			if err != nil {
				t.Fatal(err)
			}
			r.sample(inUse)
			e.exit(r)
		}
	}
	sections(5, true)
	if h := e.History(tGroup, tLock); h < 0.9 {
		t.Errorf("history after 5 busy samples = %.3f, want > 0.9", h)
	}
	sections(5, false)
	if h := e.History(tGroup, tLock); h > 0.05 {
		t.Errorf("history after 5 idle samples = %.3f, want < 0.05", h)
	}
}

func TestNestedDoFails(t *testing.T) {
	eachKind(t, func(t *testing.T, k kind) {
		r := newRig(t, 2)
		err := k.do(r.engines[1], func(tx *Tx) error {
			return k.do(r.engines[1], func(*Tx) error { return nil })
		})
		if !errors.Is(err, ErrNested) {
			t.Errorf("nested section returned %v, want ErrNested", err)
		}
	})
}

func TestBodyErrorPropagates(t *testing.T) {
	r := newRig(t, 2)
	boom := errors.New("boom")
	err := r.engines[1].Do(tGroup, tLock, func(tx *Tx) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("Do returned %v, want the body's error", err)
	}
	// The lock must be usable afterwards.
	if err := r.engines[1].Do(tGroup, tLock, func(tx *Tx) error {
		return tx.Write(tVar, 1)
	}); err != nil {
		t.Fatal(err)
	}
	waitVal(t, r.nodes[0], tVar, 1)
}

func TestDefaultConfigSanitisesBadValues(t *testing.T) {
	e := NewEngine(nil, Config{HistoryDecay: 2, HistoryThreshold: -1})
	if e.cfg.HistoryDecay != 0.95 || e.cfg.HistoryThreshold != 0.30 {
		t.Errorf("bad config not sanitised: %+v", e.cfg)
	}
}

func TestSpeculativeWritesInvisibleOnLoss(t *testing.T) {
	eachKind(t, func(t *testing.T, k kind) {
		// While node 1 holds an incompatible section, node 2's speculative write must never
		// become visible at a third node, even transiently.
		r := newRig(t, 3)
		if err := k.enter(r.nodes[1]); err != nil {
			t.Fatal(err)
		}
		if err := r.nodes[1].Write(tGroup, tVarB, 7); err != nil {
			t.Fatal(err)
		}
		waitVal(t, r.nodes[0], tVarB, 7)

		stop := make(chan struct{})
		var saw999 bool
		var watcher sync.WaitGroup
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, _ := r.nodes[0].Read(tGroup, tVarB); v == 999 {
					saw999 = true
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()

		done := make(chan error, 1)
		go func() {
			done <- k.do(r.engines[2], func(tx *Tx) error {
				return tx.Write(tVarB, 999)
			})
		}()
		time.Sleep(50 * time.Millisecond)
		if err := k.leave(r.nodes[1]); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		close(stop)
		watcher.Wait()
		// Node 2 eventually commits 999 legitimately (after grant); what must
		// never happen is 999 appearing while node 1 still held the lock. We
		// can't distinguish those phases from the watcher alone, so instead
		// assert the root suppressed at least one speculative write when the
		// section was forced to wait.
		if r.engines[2].Stats().Rollbacks > 0 && r.nodes[0].Stats().Suppressed == 0 {
			t.Error("rollback happened but no speculative write was suppressed at the root")
		}
		_ = saw999 // visibility of the committed value is fine
		waitVal(t, r.nodes[0], tVarB, 999)
	})
}

// TestConditionalBodyNeverLosesPops is the live-runtime analogue of the
// model's conditional-body regression: nodes race optimistic
// pop-if-available sections against a fixed queue; every item must be
// popped exactly once even across rollbacks, which requires the root's
// epoch validation of speculative writes.
func TestConditionalBodyNeverLosesPops(t *testing.T) {
	const (
		items           = 40
		vHead gwc.VarID = 10 // guarded (tVar)
	)
	r := newRig(t, 4)
	var mu sync.Mutex
	popped := make(map[int64]int)
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := r.engines[id]
			for {
				var got int64
				err := e.Do(tGroup, tLock, func(tx *Tx) error {
					got = 0
					head, err := tx.Read(vHead)
					if err != nil {
						return err
					}
					if head >= items {
						return nil
					}
					got = head + 1
					return tx.Write(vHead, head+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if got > 0 {
					mu.Lock()
					popped[got]++
					mu.Unlock()
					time.Sleep(200 * time.Microsecond) // "execute"
				} else {
					// Queue drained from our view; confirm and exit.
					if v, _ := r.nodes[id].Read(tGroup, vHead); v >= items {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(popped) != items {
		t.Errorf("popped %d distinct items, want %d", len(popped), items)
	}
	for item, count := range popped {
		if count != 1 {
			t.Errorf("item %d popped %d times, want exactly once", item, count)
		}
	}
}

// inc is the read-modify-write section the regressions below run.
func inc(tx *Tx) error {
	cur, err := tx.Read(tVar)
	if err != nil {
		return err
	}
	return tx.Write(tVar, cur+1)
}

// waitSeen blocks until n has applied the rival's entry.
func (k kind) waitSeen(t *testing.T, n *gwc.Node) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !k.seen(n); {
		if time.Now().After(deadline) {
			t.Fatalf("node %d never saw the rival's entry", n.ID())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFallbackAfterArmedHookResumesInsharing pinned a lost update of the
// re-check fallback when arming the interrupt and looking again were
// separate steps: an entry landing between them suspended insharing and
// then sent the section down the regular path, which never resumed it.
// Speculate does both in one hold of the node lock, so the window is
// gone, and this pins the two sides of that hold: a foreign entry applied
// before it sends the section down the regular path with nothing armed —
// insharing is never suspended — and one applied after it rolls the
// section back, and neither loses an update.
func TestFallbackAfterArmedHookResumesInsharing(t *testing.T) {
	eachKind(t, func(t *testing.T, k kind) {
		t.Run("before", func(t *testing.T) {
			r := newRig(t, 3)
			holder, n2, e2 := r.nodes[1], r.nodes[2], r.engines[2]
			if err := k.enter(holder); err != nil {
				t.Fatal(err)
			}
			k.waitSeen(t, n2)
			// Past the engine's look, straight into the speculation: the
			// section whose look still saw the lock free.
			rec, err := e2.enter(lockKey{tGroup, tLock})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				err := section{r: rec, session: k.session}.speculate(context.Background(), inc)
				e2.exit(rec)
				done <- err
			}()
			// Once node 2 has a request out it is on the regular path. The
			// holder's write must reach it while the holder is still
			// inside: insharing was never suspended.
			for deadline := time.Now().Add(5 * time.Second); n2.Stats().LockRequests == 0; {
				if time.Now().After(deadline) {
					t.Fatal("node 2 never requested the lock")
				}
				time.Sleep(100 * time.Microsecond)
			}
			if err := holder.Write(tGroup, tVar, 1000); err != nil {
				t.Fatal(err)
			}
			waitVal(t, n2, tVar, 1000)
			if err := k.leave(holder); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("section never finished")
			}
			if s := e2.Stats(); s.Regular != 1 || s.Optimistic != 0 {
				t.Errorf("stats = %+v, want Speculate's refusal to take the regular path", s)
			}
			for _, n := range r.nodes {
				waitVal(t, n, tVar, 1001)
			}
		})
		t.Run("after", func(t *testing.T) {
			// Node 2's view lags, so the holder's entry — sequenced first —
			// is applied there only after the speculation began.
			inner, err := transport.NewInProc(3)
			if err != nil {
				t.Fatal(err)
			}
			r := newRigOn(t, &delayToNode{Network: inner, target: 2, delay: 30 * time.Millisecond})
			holder, n2, e2 := r.nodes[1], r.nodes[2], r.engines[2]
			if err := k.enter(holder); err != nil {
				t.Fatal(err)
			}
			if err := holder.Write(tGroup, tVar, 1000); err != nil {
				t.Fatal(err)
			}
			runs := 0
			done := make(chan error, 1)
			go func() {
				done <- k.do(e2, func(tx *Tx) error {
					if runs++; runs == 1 {
						// Speculating: hold the body until the interrupt has
						// fired, then increment a copy that cannot see the
						// holder's write, parked behind the suspension.
						k.waitSeen(t, n2)
					}
					return inc(tx)
				})
			}()
			time.Sleep(100 * time.Millisecond) // the holder's write reaches node 2's parked queue
			if err := k.leave(holder); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("section never finished")
			}
			if s := e2.Stats(); s.Optimistic != 1 || s.Rollbacks != 1 || runs != 2 {
				t.Errorf("stats = %+v after %d body runs, want one speculation rolled back and re-executed", s, runs)
			}
			for _, n := range r.nodes {
				waitVal(t, n, tVar, 1001)
			}
		})
	})
}

// TestTxDiesWithItsSection: a view a body leaked must reach neither the
// node nor a later section's save-set — not between sections, and not
// from inside a later section's body, which is when a save-set exists.
func TestTxDiesWithItsSection(t *testing.T) {
	r := newRig(t, 2)
	e := r.engines[1]
	var leaked *Tx
	if err := e.Do(tGroup, tLock, func(tx *Tx) error {
		leaked = tx
		return tx.Write(tVar, 1)
	}); err != nil {
		t.Fatal(err)
	}
	dead := func(when string) {
		t.Helper()
		if _, err := leaked.Read(tVar); !errors.Is(err, errStaleTx) {
			t.Errorf("%s: Read through a leaked Tx returned %v, want errStaleTx", when, err)
		}
		if err := leaked.Write(tVar, 99); !errors.Is(err, errStaleTx) {
			t.Errorf("%s: Write through a leaked Tx returned %v, want errStaleTx", when, err)
		}
	}
	dead("after its section")
	if err := e.Do(tGroup, tLock, func(tx *Tx) error {
		dead("inside a later section")
		if err := inc(tx); err != nil {
			return err
		}
		if len(tx.saved) > 1 {
			t.Errorf("the later section's save-set is %v, want at most its own one write", tx.saved)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range r.nodes {
		waitVal(t, n, tVar, 2)
	}
}

// TestOptimisticIncrementSoak races two engines over one lock for long
// enough that every interleaving of look, arm, request, interrupt and
// grant turns up: no increment may be lost, and every speculation ends in
// exactly one verdict.
func TestOptimisticIncrementSoak(t *testing.T) {
	const each = 20000
	r := newRig(t, 3)
	var wg sync.WaitGroup
	for _, id := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := r.engines[id].Do(tGroup, tLock, inc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range r.nodes {
		waitVal(t, n, tVar, 2*each)
	}
	for _, id := range []int{1, 2} {
		s := r.engines[id].Stats()
		t.Logf("engine %d: %+v", id, s)
		if s.Optimistic != s.Commits+s.Rollbacks || s.Optimistic+s.Regular+s.Leased != each {
			t.Errorf("engine %d: stats = %+v, want every speculation decided and %d sections in all", id, s, each)
		}
	}
}
