package optsync

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestWatchReceivesUpdates(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 3)
	v := g.Int("watched")
	values, cancel, err := c.MustHandle(2).Watch(v)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := c.MustHandle(1).Write(v, 5); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-values:
		if got != 5 {
			t.Errorf("watched value = %d, want 5", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never delivered")
	}
}

func TestWatchCoalescesToLatest(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 2)
	v := g.Int("burst")
	values, cancel, err := c.MustHandle(1).Watch(v)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i := 1; i <= 50; i++ {
		if err := c.MustHandle(0).Write(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain until the final value appears; coalescing may skip
	// intermediates but must never go backwards.
	var last int64
	deadline := time.After(5 * time.Second)
	for last != 50 {
		select {
		case got := <-values:
			if got < last {
				t.Fatalf("watch went backwards: %d after %d", got, last)
			}
			last = got
		case <-deadline:
			t.Fatalf("final value never observed; last = %d", last)
		}
	}
}

func TestWatchCancelClosesChannel(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 2)
	v := g.Int("w")
	values, cancel, err := c.MustHandle(1).Watch(v)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	cancel() // idempotent
	select {
	case _, ok := <-values:
		if ok {
			t.Error("value delivered after cancel")
		}
	case <-time.After(time.Second):
		t.Error("channel not closed after cancel")
	}
	// Writes after cancel must not panic (hook unregistered).
	if err := c.MustHandle(0).Write(v, 9); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
}

func TestAcquireCtxCancelled(t *testing.T) {
	c, _, m, _ := newTestCluster(t, 3)
	holder := c.MustHandle(1)
	if err := holder.Acquire(m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := c.MustHandle(2).AcquireContext(ctx, m)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireContext = %v, want deadline exceeded", err)
	}
	// A cancelled waiter ahead in the queue must not wedge the lock:
	// node 2 withdrew its request at the root (or hands back a grant that
	// raced the withdrawal), so after the holder releases a fresh acquire
	// from behind it succeeds.
	if err := holder.Release(m); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.MustHandle(0).Acquire(m) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		_ = c.MustHandle(0).Release(m)
	case <-time.After(10 * time.Second):
		t.Fatal("lock wedged after cancelled acquisition")
	}
}

func TestAcquireCtxImmediateWhenFree(t *testing.T) {
	c, _, m, _ := newTestCluster(t, 2)
	ctx := context.Background()
	if err := c.MustHandle(1).AcquireContext(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := c.MustHandle(1).Release(m); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireCtxPreCancelled(t *testing.T) {
	c, _, m, _ := newTestCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.MustHandle(1).AcquireContext(ctx, m); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled AcquireContext = %v", err)
	}
}

func TestWaitGECtx(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 2)
	v := g.Int("wv")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.MustHandle(1).WaitGEContext(ctx, v, 100); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitGEContext on unsatisfied condition = %v, want deadline", err)
	}
	// Satisfied case.
	if err := c.MustHandle(0).Write(v, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.MustHandle(1).WaitGEContext(context.Background(), v, 100); err != nil {
		t.Fatal(err)
	}
}

func TestDoCtx(t *testing.T) {
	c, _, m, v := newTestCluster(t, 2)
	h := c.MustHandle(1)
	if err := h.DoContext(context.Background(), m, func() error {
		return h.Write(v, 3)
	}); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c.MustHandle(0), v, 3)

	// Cancellation during a blocked acquisition.
	holder := c.MustHandle(0)
	if err := holder.Acquire(m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ran := false
	err := h.DoContext(ctx, m, func() error { ran = true; return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("DoContext = %v, want deadline exceeded", err)
	}
	if ran {
		t.Error("body ran despite cancelled acquisition")
	}
	_ = holder.Release(m)
}

func TestWatchGuardedVarSkipsOwnEchoes(t *testing.T) {
	// Hardware blocking drops the origin's own guarded echoes, so a watch
	// on the WRITING node only fires for other nodes' committed writes; a
	// watch on any other node sees everything.
	c, _, m, v := newTestCluster(t, 3)
	ownValues, cancelOwn, err := c.MustHandle(1).Watch(v)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelOwn()
	otherValues, cancelOther, err := c.MustHandle(2).Watch(v)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelOther()

	h := c.MustHandle(1)
	if err := h.Do(m, func() error { return h.Write(v, 5) }); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-otherValues:
		if got != 5 {
			t.Errorf("observer watch saw %d, want 5", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("observer watch never fired")
	}
	select {
	case got := <-ownValues:
		t.Errorf("writer's own watch fired with %d; guarded echoes are hardware-blocked", got)
	case <-time.After(100 * time.Millisecond):
	}
}
