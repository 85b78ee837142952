package optsync

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWithBatchingConverges(t *testing.T) {
	c, _, m, v := newTestCluster(t, 4, WithBatching(time.Millisecond, 16))
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		h := c.MustHandle(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
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
	for i := 0; i < 4; i++ {
		waitRead(t, c.MustHandle(i), v, 30)
	}
	// Every increment flushed at a release boundary.
	var release int
	for i := 0; i < 4; i++ {
		release += c.MustHandle(i).Stats().GWC.FlushReasons.Release
	}
	if release == 0 {
		t.Error("no release-boundary flushes recorded under batching")
	}
}

// TestBatchedLossyNackRecovery drops sequenced traffic — whole batch
// frames included — and asserts the NACK machinery repairs the stream.
func TestBatchedLossyNackRecovery(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 3,
		WithLossyNetwork(0.3, 13),
		WithBatching(time.Millisecond, 8),
		WithTiming(Timing{Retry: 5 * time.Millisecond}))
	free := g.Int("free") // unguarded: writes flow without lock traffic
	h := c.MustHandle(1)
	const rounds = 60
	for i := 1; i <= rounds; i++ {
		if err := h.Write(free, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%6 == 0 {
			time.Sleep(2 * time.Millisecond) // close windows so frames multiply
		}
	}
	for i := 0; i < 3; i++ {
		waitRead(t, c.MustHandle(i), free, rounds)
	}
	root := c.MustHandle(0).Stats().GWC
	if root.Batches == 0 {
		t.Error("root sent no batch frames; the lossy path never saw one")
	}
	if root.Retransmits == 0 {
		t.Error("stream converged without retransmissions despite 30% drops")
	}
}

func TestTCPClusterBatched(t *testing.T) {
	c, _, m, v := newTestCluster(t, 3,
		WithTCP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}),
		WithBatching(time.Millisecond, 16))
	h := c.MustHandle(2)
	if err := h.Do(m, func() error { return h.Write(v, 11) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		waitRead(t, c.MustHandle(i), v, 11)
	}
}

func TestSentinelErrorsAPI(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if _, err := c.NewGroup("bad", 9); !errors.Is(err, ErrNotMember) {
		t.Errorf("out-of-range root: %v, want ErrNotMember", err)
	}
	if _, err := c.NewGroup("bad", 0, Members(0, 7)); !errors.Is(err, ErrNotMember) {
		t.Errorf("out-of-range member: %v, want ErrNotMember", err)
	}

	ga, err := c.NewGroup("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := c.NewGroup("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	ma := ga.Mutex("m")
	vb := gb.Int("v")
	h := c.MustHandle(1)
	err = h.OptimisticDo(ma, func(tx *Tx) error { return tx.Write(vb, 1) })
	if !errors.Is(err, ErrUnknownVar) {
		t.Errorf("cross-group Tx.Write: %v, want ErrUnknownVar", err)
	}
	err = h.OptimisticDo(ma, func(tx *Tx) error { _, e := tx.Read(vb); return e })
	if !errors.Is(err, ErrUnknownVar) {
		t.Errorf("cross-group Tx.Read: %v, want ErrUnknownVar", err)
	}

	if _, err := ga.Published("p", vb); !errors.Is(err, ErrUnknownVar) {
		t.Errorf("cross-group Published: %v, want ErrUnknownVar", err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewGroup("late", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("NewGroup after Close: %v, want ErrClosed", err)
	}
}

func TestHandleErrAndPanic(t *testing.T) {
	c, _, _, _ := newTestCluster(t, 2)
	if h, err := c.Handle(1); err != nil || h == nil {
		t.Fatalf("Handle(1) = %v, %v", h, err)
	}
	if _, err := c.Handle(2); !errors.Is(err, ErrNotMember) {
		t.Errorf("Handle(2): %v, want ErrNotMember", err)
	}
	if _, err := c.Handle(-1); !errors.Is(err, ErrNotMember) {
		t.Errorf("Handle(-1): %v, want ErrNotMember", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustHandle(5) did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of range") {
			t.Errorf("panic message %v lacks a descriptive range error", r)
		}
	}()
	c.MustHandle(5)
}

func TestGroupAccessors(t *testing.T) {
	_, g, m, v := newTestCluster(t, 2)
	if v.Group() != g {
		t.Error("Var.Group() does not return the declaring group")
	}
	if m.Group() != g {
		t.Error("Mutex.Group() does not return the declaring group")
	}
}

// A small retransmission buffer still configures a working cluster.
func TestRetransmitBufferAlias(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 2, WithRetransmitBuffer(64))
	free := g.Int("free")
	if err := c.MustHandle(1).Write(free, 1); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c.MustHandle(0), free, 1)
}
