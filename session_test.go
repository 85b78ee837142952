package optsync

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/obs"
)

// newSessionCluster builds a cluster with a session lock and a counter
// it guards.
func newSessionCluster(t *testing.T, n int, opts ...Option) (*Cluster, *Group, *SessionLock, *Var) {
	t.Helper()
	c, err := NewCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	g, err := c.NewGroup("test", 0)
	if err != nil {
		t.Fatal(err)
	}
	l := g.SessionLock("table")
	v := g.Int("counter", l)
	return c, g, l, v
}

// TestSessionConcurrentEntering is the acceptance test for group mutual
// exclusion: N same-session holders must be *observed concurrently* —
// all entered before any left — with the concurrency confirmed by the
// root's holder gauge and the session trace events.
func TestSessionConcurrentEntering(t *testing.T) {
	const readers = 3
	c, _, l, _ := newSessionCluster(t, readers+1, WithTracing(0))

	for i := 1; i <= readers; i++ {
		if err := c.MustHandle(i).RLock(l); err != nil {
			t.Fatal(err)
		}
	}
	// Every reader holds an entry at once; each node's local view must
	// converge on all three holders.
	for i := 1; i <= readers; i++ {
		h := c.MustHandle(i)
		deadline := time.Now().Add(5 * time.Second)
		for {
			si, err := h.SessionState(l)
			if err != nil {
				t.Fatal(err)
			}
			if si.Mine && si.Holders == readers && si.Session == SessionReaders {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d session state %+v, want %d concurrent holders", i, si, readers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The root's gauge saw all of them simultaneously.
	rootMetrics, err := c.NodeMetrics(0)
	if err != nil {
		t.Fatal(err)
	}
	gauge := rootMetrics.Gauge(obs.GaugeSessHolders)
	if got := gauge.Value(); got != readers {
		t.Errorf("root holder gauge = %d with all readers in, want %d", got, readers)
	}
	if max := gauge.Max(); max < 2 {
		t.Errorf("root holder gauge max = %d, want >= 2 (no concurrent entering happened)", max)
	}
	for i := 1; i <= readers; i++ {
		if err := c.MustHandle(i).RUnlock(l); err != nil {
			t.Fatal(err)
		}
	}
	// One session opened (the joins did not close/reopen it), and the
	// trace shows it. The close is processed asynchronously at the root
	// once the last leave lands, so poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var opens, closes int
		for _, ev := range c.TraceEvents() {
			switch ev.Type {
			case obs.EvSessOpen:
				opens++
			case obs.EvSessClose:
				closes++
			}
		}
		if opens == 1 && closes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("trace: %d sess-open / %d sess-close events, want 1/1", opens, closes)
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := c.MustHandle(0).Stats().GWC
	if st.SessionOpens != 1 || st.SessionJoins != readers-1 {
		t.Errorf("SessionOpens=%d SessionJoins=%d, want 1 and %d", st.SessionOpens, st.SessionJoins, readers-1)
	}
}

// TestSessionFairness is the acceptance test for the fairness rule: a
// writer queued behind an open reader session must enter after a
// bounded amount of reader churn — the root stops admitting new
// same-session joins the moment a different session queues.
func TestSessionFairness(t *testing.T) {
	c, _, l, v := newSessionCluster(t, 4)

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Reader churn on two nodes: overlapping short shared sections that
	// would keep the session open forever if joins were always admitted.
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for !stop.Load() {
				if err := h.RLock(l); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(200 * time.Microsecond)
				if err := h.RUnlock(l); err != nil {
					t.Error(err)
					return
				}
			}
		}(c.MustHandle(i))
	}
	// Give the churn a head start so the session is genuinely open.
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w := c.MustHandle(3)
	if err := w.EnterContext(ctx, l, SessionExclusive); err != nil {
		t.Fatalf("writer starved by same-session reader churn: %v", err)
	}
	if err := w.Write(v, 42); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(l); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	waitRead(t, w, v, 42)
}

// Session 0 through the session API is exactly the mutex: two writers
// exclude each other and the guarded counter loses no increments.
func TestSessionExclusiveIsMutex(t *testing.T) {
	c, _, l, v := newSessionCluster(t, 3)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				err := h.SessionDo(l, SessionExclusive, func() error {
					cur, err := h.Read(v)
					if err != nil {
						return err
					}
					return h.Write(v, cur+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c.MustHandle(i))
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		waitRead(t, c.MustHandle(i), v, 20)
	}
}

// TestOptimisticSessionDo drives mixed optimistic writer sections and
// optimistic reader joins and checks the guarded counter's invariant —
// the session analog of the counter model checker.
func TestOptimisticSessionDo(t *testing.T) {
	c, _, l, v := newSessionCluster(t, 4)
	const writers, rounds = 2, 8
	var wg sync.WaitGroup
	for i := 1; i <= writers; i++ {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				err := h.OptimisticSessionDo(l, SessionExclusive, func(tx *Tx) error {
					cur, err := tx.Read(v)
					if err != nil {
						return err
					}
					return tx.Write(v, cur+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c.MustHandle(i))
	}
	// A concurrent optimistic reader stream; readers never write, so
	// they only have to not break the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := c.MustHandle(3)
		for r := 0; r < rounds; r++ {
			err := h.OptimisticSessionDo(l, SessionReaders, func(tx *Tx) error {
				_, err := tx.Read(v)
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for i := 0; i < 4; i++ {
		waitRead(t, c.MustHandle(i), v, writers*rounds)
	}
}

// A session entry taken under one session must be rejected as a guard
// for another session's writes: a reader cannot write the guarded
// variable.
func TestSessionReaderWritesSuppressed(t *testing.T) {
	c, g, l, v := newSessionCluster(t, 3)
	w := c.MustHandle(1)
	if err := w.WLock(l); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(v, 7); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(l); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c.MustHandle(0), v, 7)

	// A non-holder's write to the guarded variable is suppressed at the
	// root: everyone else keeps 7.
	outsider := c.MustHandle(2)
	if err := outsider.Write(v, 99); err != nil {
		t.Fatal(err)
	}
	if err := outsider.Sync(g); err != nil {
		t.Fatal(err)
	}
	if got, err := c.MustHandle(0).Read(v); err != nil || got != 7 {
		t.Fatalf("root read %d (%v) after non-holder write, want 7 (suppressed)", got, err)
	}
}

// Leaving without entering and cross-kind name declarations fail loudly.
func TestSessionAPIValidation(t *testing.T) {
	c, g, l, _ := newSessionCluster(t, 2)
	if err := c.MustHandle(1).Leave(l); err == nil {
		t.Error("Leave without Enter succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("redeclaring a SessionLock name as Mutex did not panic")
			}
		}()
		g.Mutex("table")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("redeclaring a Mutex name as SessionLock did not panic")
			}
		}()
		g.Mutex("plain")
		g.SessionLock("plain")
	}()
}

// TestEnterAllOrdering exercises multi-group session entry: entries are
// taken in canonical order whatever the argument order, so concurrent
// multi-lock sections cannot deadlock.
func TestEnterAllOrdering(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ga, err := c.NewGroup("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := c.NewGroup("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := ga.SessionLock("l"), gb.SessionLock("l")

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(h *Handle, order []*SessionLock) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if err := h.SessionDoAll(SessionExclusive, func() error {
					return nil
				}, order...); err != nil {
					errs <- err
					return
				}
			}
		}(c.MustHandle(i), []*SessionLock{la, lb})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := c.MustHandle(1).EnterAll(SessionReaders, lb, la); err != nil {
		t.Fatal(err)
	}
	if err := c.MustHandle(2).EnterAll(SessionReaders, la, lb); err != nil {
		t.Fatal(err)
	}
	if err := c.MustHandle(1).LeaveAll(la, lb); err != nil {
		t.Fatal(err)
	}
	if err := c.MustHandle(2).LeaveAll(lb, la); err != nil {
		t.Fatal(err)
	}
}

// An entry request cancelled while queued behind an incompatible
// session leaves no phantom at the root: the session closes cleanly for
// the next comer.
func TestEnterContextCancelWhileQueued(t *testing.T) {
	c, _, l, _ := newSessionCluster(t, 3)
	if err := c.MustHandle(1).RLock(l); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.MustHandle(2).EnterContext(ctx, l, SessionExclusive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnterContext = %v, want context.DeadlineExceeded", err)
	}
	if err := c.MustHandle(1).RUnlock(l); err != nil {
		t.Fatal(err)
	}
	// The withdrawn writer must not inherit anything; a fresh writer
	// enters promptly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := c.MustHandle(2).EnterContext(ctx2, l, SessionExclusive); err != nil {
		t.Fatal(err)
	}
	if err := c.MustHandle(2).WUnlock(l); err != nil {
		t.Fatal(err)
	}
}

// TestRLockAfterWUnlockUnderLeases: with leases on, a writer section
// leaves this node holding an idle lease on the lock. A reader entry, and
// an optimistic one, on the same node must give that lease back and go
// ahead, not wait it out (5 s here; the entry used to take the whole TTL).
func TestRLockAfterWUnlockUnderLeases(t *testing.T) {
	c, _, l, v := newSessionCluster(t, 3, WithLeases(5*time.Second))
	h := c.MustHandle(1)
	warm := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for base := h.Stats().GWC.LeaseLocal; h.Stats().GWC.LeaseLocal == base; {
			if err := h.WLock(l); err != nil {
				t.Fatal(err)
			}
			if err := h.WUnlock(l); err != nil {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("the writer's lease never warmed up")
			}
		}
	}
	within := func(what string, f func() error) {
		t.Helper()
		start := time.Now()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s took %v: it waited for the writer's lease", what, d)
		}
	}
	warm()
	within("RLock after WUnlock", func() error { return h.RLock(l) })
	if err := h.RUnlock(l); err != nil {
		t.Fatal(err)
	}
	warm()
	within("OptimisticSessionDo after WUnlock", func() error {
		return h.OptimisticSessionDo(l, SessionReaders, func(tx *Tx) error {
			_, err := tx.Read(v)
			return err
		})
	})
}
