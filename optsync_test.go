package optsync

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// newTestCluster builds a small in-process cluster with a group, a mutex,
// and a guarded counter.
func newTestCluster(t *testing.T, n int, opts ...Option) (*Cluster, *Group, *Mutex, *Var) {
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
	m := g.Mutex("lock")
	v := g.Int("counter", m)
	return c, g, m, v
}

// waitRead polls a handle until the variable reaches want.
func waitRead(t *testing.T, h *Handle, v *Var, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got, err := h.Read(v)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	got, _ := h.Read(v)
	t.Fatalf("node %d: %s = %d, want %d", h.NodeID(), v.Name(), got, want)
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("NewCluster(0) succeeded")
	}
	if _, err := NewCluster(2, WithTCP([]string{"127.0.0.1:0"})); err == nil {
		t.Error("mismatched TCP address count succeeded")
	}
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.NewGroup("g", 5); err == nil {
		t.Error("out-of-range group root succeeded")
	}
}

func TestGroupIdempotentDeclarations(t *testing.T) {
	c, g, m, v := newTestCluster(t, 3)
	g2, err := c.NewGroup("test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Error("NewGroup with same name returned a different group")
	}
	if _, err := c.NewGroup("test", 1); err == nil {
		t.Error("NewGroup with same name and different root succeeded")
	}
	if g.Mutex("lock") != m {
		t.Error("Mutex with same name returned a different lock")
	}
	if g.Int("counter") != v {
		t.Error("Int with same name returned a different variable")
	}
	if v.Guard() != m {
		t.Errorf("counter guard = %v, want the lock", v.Guard())
	}
}

func TestWriteVisibleEverywhere(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 4)
	free := g.Int("free") // unguarded
	if err := c.MustHandle(2).Write(free, 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		waitRead(t, c.MustHandle(i), free, 7)
	}
}

func TestDoCounter(t *testing.T) {
	c, _, m, v := newTestCluster(t, 4)
	const reps = 6
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		h := c.MustHandle(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				err := h.Do(m, func() error {
					cur, err := h.Read(v)
					if err != nil {
						return err
					}
					time.Sleep(500 * time.Microsecond)
					return h.Write(v, cur+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		waitRead(t, c.MustHandle(i), v, 4*reps)
	}
}

func TestOptimisticDoCounter(t *testing.T) {
	c, _, m, v := newTestCluster(t, 4)
	const reps = 6
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		h := c.MustHandle(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				err := h.OptimisticDo(m, func(tx *Tx) error {
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
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		waitRead(t, c.MustHandle(i), v, 4*reps)
	}
}

// TestSectionWritesNeverOvertakeTheirRequest: a section's writes are pushed
// at the root (in place when it is idle) while its lock request is sent,
// and the root takes a speculative write only from a node whose request it
// has already seen. What keeps the two in order is the mailbox's rule that
// a push runs in place only when nothing is queued and nobody is consuming
// (internal/transport, mailbox.offer): with that test short-circuited to
// true this test fails — frames overtake what the same sender queued
// ahead of them, and the counter comes out wrong on every node (21 810 for
// 20 000 when it was tried). Members 1 and 2 run 20 000 sections on one
// mutex, alternating Do and OptimisticDo, on InProc bare and through Flaky
// with its faults off.
//
// The root's books must balance: every body run wrote once, and each of
// those writes was sequenced or suppressed, once; nothing is suppressed
// but a rolled-back run's write. (Not "suppressed == rollbacks": about one
// rolled-back run in 4 000 is still running when its own grant arrives, so
// its write is tagged post-grant and the root rightly sequences it; the
// re-execution, inside the same hold, overwrites it.)
func TestSectionWritesNeverOvertakeTheirRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{{"inproc", nil}, {"flaky", []Option{WithChaos()}}} {
		t.Run(tc.name, func(t *testing.T) {
			const each = 10000
			c, g, m, v := newTestCluster(t, 4, tc.opts...)
			var sequenced atomic.Int64 // data frames the root sequenced
			if _, err := c.MustHandle(0).node.OnVarChange(g.id, v.id, func(int64) { sequenced.Add(1) }); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, i := range []int{1, 2} {
				h := c.MustHandle(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < each; k++ {
						var err error
						if k%2 == 0 {
							err = h.Do(m, func() error {
								cur, err := h.Read(v)
								if err != nil {
									return err
								}
								return h.Write(v, cur+1)
							})
						} else {
							err = h.OptimisticDo(m, func(tx *Tx) error {
								cur, err := tx.Read(v)
								if err != nil {
									return err
								}
								return tx.Write(v, cur+1)
							})
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for i := 0; i < 4; i++ {
				waitRead(t, c.MustHandle(i), v, 2*each)
			}
			rollbacks := 0
			for _, i := range []int{1, 2} {
				o := c.MustHandle(i).Stats().Optimistic
				if o.Optimistic != o.Commits+o.Rollbacks {
					t.Errorf("node %d: %d speculations, %d commits + %d rollbacks", i, o.Optimistic, o.Commits, o.Rollbacks)
				}
				rollbacks += o.Rollbacks
			}
			suppressed, runs := c.MustHandle(0).Stats().GWC.Suppressed, 2*each+rollbacks
			if suppressed > rollbacks {
				t.Errorf("the root suppressed %d writes, only %d speculations rolled back", suppressed, rollbacks)
			}
			if got := int(sequenced.Load()) + suppressed; got != runs {
				t.Errorf("%d writes sequenced + %d suppressed = %d, want one for each of %d body runs", sequenced.Load(), suppressed, got, runs)
			}
		})
	}
}

func TestOptimisticCommitsWithoutContention(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3)
	h := c.MustHandle(2)
	if err := h.OptimisticDo(m, func(tx *Tx) error {
		return tx.Write(v, 42)
	}); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.Optimistic.Commits != 1 || s.Optimistic.Rollbacks != 0 {
		t.Errorf("optimistic stats = %+v, want one clean commit", s.Optimistic)
	}
	waitRead(t, c.MustHandle(0), v, 42)
}

func TestWaitGE(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 3)
	sig := g.Int("sig")
	done := make(chan error, 1)
	go func() {
		done <- c.MustHandle(2).WaitGE(sig, 10)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.MustHandle(1).Write(sig, 10); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGE never returned")
	}
}

func TestCrossGroupTxRejected(t *testing.T) {
	c, _, m, _ := newTestCluster(t, 2)
	other, err := c.NewGroup("other", 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.Int("x")
	err = c.MustHandle(0).OptimisticDo(m, func(tx *Tx) error {
		return tx.Write(foreign, 1)
	})
	if err == nil {
		t.Error("writing a foreign group's variable through a tx succeeded")
	}
}

func TestNestedOptimisticDoFails(t *testing.T) {
	c, _, m, _ := newTestCluster(t, 2)
	h := c.MustHandle(1)
	err := h.OptimisticDo(m, func(tx *Tx) error {
		return h.OptimisticDo(m, func(*Tx) error { return nil })
	})
	if !errors.Is(err, ErrNested) {
		t.Errorf("nested OptimisticDo returned %v, want ErrNested", err)
	}
}

// TestSameNodeSectionsNeverOverlap pins the one-holder-per-node rule on
// the regular path: a second goroutine entering a mutex its node is
// already inside or acquiring used to share the first one's request, both
// woke on the one grant, and their sections ran together (134 overlaps
// and 15 lost increments in 10 000 at the time). It is refused with
// ErrNested instead — here it tries again — so every section that runs
// runs alone.
func TestSameNodeSectionsNeverOverlap(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3)
	h := c.MustHandle(1)
	const each = 5000
	var inside, overlaps atomic.Int64
	section := func() error {
		if inside.Add(1) != 1 {
			overlaps.Add(1)
		}
		defer inside.Add(-1)
		cur, err := h.Read(v)
		if err != nil {
			return err
		}
		return h.Write(v, cur+1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; {
				switch err := h.Do(m, section); {
				case err == nil:
					i++
				case errors.Is(err, ErrNested):
					runtime.Gosched()
				default:
					t.Errorf("Do returned %v, want nil or ErrNested", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d sections overlapped another section of the same node", n)
	}
	for i := 0; i < 3; i++ {
		waitRead(t, c.MustHandle(i), v, 2*each)
	}
}

// TestLeakedTxIsDead: a Tx kept past its body run answers with an error,
// between sections and from inside a later section alike, and the later
// section is none the worse for it.
func TestLeakedTxIsDead(t *testing.T) {
	c, _, m, v := newTestCluster(t, 2)
	h := c.MustHandle(1)
	var leaked *Tx
	inc := func(tx *Tx) error {
		cur, err := tx.Read(v)
		if err != nil {
			return err
		}
		return tx.Write(v, cur+1)
	}
	if err := h.OptimisticDo(m, func(tx *Tx) error {
		leaked = tx
		return inc(tx)
	}); err != nil {
		t.Fatal(err)
	}
	dead := func(when string) {
		t.Helper()
		if _, err := leaked.Read(v); err == nil {
			t.Errorf("%s: Read through a leaked Tx succeeded", when)
		}
		if err := leaked.Write(v, 99); err == nil {
			t.Errorf("%s: Write through a leaked Tx succeeded", when)
		}
	}
	dead("after its section")
	if err := h.OptimisticDo(m, func(tx *Tx) error {
		dead("inside a later section")
		return inc(tx)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		waitRead(t, c.MustHandle(i), v, 2)
	}
}

func TestBodyErrorPropagatesAndLockRecovers(t *testing.T) {
	c, _, m, v := newTestCluster(t, 2)
	h := c.MustHandle(1)
	boom := errors.New("boom")
	if err := h.OptimisticDo(m, func(tx *Tx) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("got %v, want boom", err)
	}
	if err := h.Do(m, func() error { return h.Write(v, 1) }); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c.MustHandle(0), v, 1)
}

func TestLossyNetworkStillConverges(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3, WithLossyNetwork(0.2, 7))
	const reps = 5
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		h := c.MustHandle(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				err := h.Do(m, func() error {
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
		}()
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		waitRead(t, c.MustHandle(i), v, 2*reps)
	}
}

func TestTCPCluster(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3, WithTCP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}))
	h := c.MustHandle(2)
	if err := h.OptimisticDo(m, func(tx *Tx) error {
		return tx.Write(v, 11)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		waitRead(t, c.MustHandle(i), v, 11)
	}
}

func TestCloseIdempotent(t *testing.T) {
	c, _, _, _ := newTestCluster(t, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any per-node increment counts, the guarded counter ends
// at their sum — linearizable counting under optimistic mutual exclusion.
func TestCounterSumProperty(t *testing.T) {
	prop := func(counts [3]uint8) bool {
		c, err := NewCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		g, err := c.NewGroup("p", 0)
		if err != nil {
			t.Fatal(err)
		}
		m := g.Mutex("lk")
		v := g.Int("n", m)
		var wg sync.WaitGroup
		total := 0
		for i := 0; i < 3; i++ {
			reps := int(counts[i]) % 6
			total += reps
			h := c.MustHandle(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < reps; r++ {
					_ = h.OptimisticDo(m, func(tx *Tx) error {
						cur, err := tx.Read(v)
						if err != nil {
							return err
						}
						return tx.Write(v, cur+1)
					})
				}
			}()
		}
		wg.Wait()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if got, _ := c.MustHandle(0).Read(v); got == int64(total) {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		got, _ := c.MustHandle(0).Read(v)
		t.Logf("counter = %d, want %d", got, total)
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestTreeFanoutGroup(t *testing.T) {
	c, err := NewCluster(9)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("tree", 0, TreeFanout())
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	v := g.Int("counter", m)
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		h := c.MustHandle(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := h.OptimisticDo(m, func(tx *Tx) error {
				cur, err := tx.Read(v)
				if err != nil {
					return err
				}
				return tx.Write(v, cur+1)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 9; i++ {
		waitRead(t, c.MustHandle(i), v, 9)
	}
}

func TestCloseDuringBlockedSection(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.NewGroup("test", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	v := g.Int("counter", m)
	if err := c.MustHandle(1).Acquire(m); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Blocks queued behind node 1, then the cluster shuts down.
		done <- c.MustHandle(2).OptimisticDo(m, func(tx *Tx) error {
			return tx.Write(v, 1)
		})
	}()
	time.Sleep(50 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("blocked section reported success after cluster close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked section hung across cluster close")
	}
}

func TestNoGoroutineLeakAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		c, err := NewCluster(5)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.NewGroup("leak", 0)
		if err != nil {
			t.Fatal(err)
		}
		m := g.Mutex("lock")
		v := g.Int("n", m)
		h := c.MustHandle(2)
		if err := h.OptimisticDo(m, func(tx *Tx) error { return tx.Write(v, 1) }); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Give exiting goroutines a beat, then compare with slack for the
	// runtime's own background workers.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after three cluster lifecycles", before, runtime.NumGoroutine())
}
