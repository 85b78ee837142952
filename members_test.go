package optsync

import (
	"sync"
	"testing"
	"time"
)

func TestMembersValidation(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.NewGroup("g1", 0, Members(0, 9)); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := c.NewGroup("g2", 0, Members(0, 1, 1)); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := c.NewGroup("g3", 0, Members(1, 2)); err == nil {
		t.Error("group whose root is not a member accepted")
	}
	g4, err := c.NewGroup("g4", 0, Members(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewGroup("g4", 0, Members(0, 2, 3)); err == nil {
		t.Error("existing group returned for a different member set")
	}
	if again, err := c.NewGroup("g4", 0, Members(1, 0)); err != nil || again != g4 {
		t.Errorf("same member set in another order: got %p, %v; want the existing group", again, err)
	}
	g, err := c.NewGroup("g5", 1, Members(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	ms := g.Members()
	if len(ms) != 2 || ms[0] != 1 || ms[1] != 3 {
		t.Errorf("Members() = %v, want [1 3]", ms)
	}
}

func TestSubsetGroupIsolation(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("pair", 1, Members(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	v := g.Int("x")
	if err := c.MustHandle(3).Write(v, 42); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c.MustHandle(1), v, 42)
	waitRead(t, c.MustHandle(3), v, 42)
	// Non-members never joined: their handles must error, not read zero
	// silently.
	if _, err := c.MustHandle(0).Read(v); err == nil {
		t.Error("non-member read succeeded")
	}
	if err := c.MustHandle(2).Write(v, 1); err == nil {
		t.Error("non-member write succeeded")
	}
	// And the non-member nodes saw no stray traffic errors... they might
	// have recorded "unknown group" protocol errors only if something was
	// missent; there must be none.
	for _, id := range []int{0, 2} {
		if errs := c.nodes[id].Errors(); len(errs) != 0 {
			t.Errorf("non-member node %d observed traffic: %v", id, errs)
		}
	}
}

func TestSubsetGroupMutex(t *testing.T) {
	c, err := NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("trio", 2, Members(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lk")
	v := g.Int("n", m)
	var wg sync.WaitGroup
	for _, id := range []int{1, 2, 4} {
		h := c.MustHandle(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
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
	for _, id := range []int{1, 2, 4} {
		waitRead(t, c.MustHandle(id), v, 15)
	}
}

func TestOverlappingGroupsIndependentOrdering(t *testing.T) {
	// The paper (Section 1.2): GWC does not order writes BETWEEN
	// overlapping groups — that is the price of avoiding a global root.
	// Node 2 belongs to both groups; each group's own variable still
	// converges group-wide, and cross-group work needs multi-group locks.
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ga, err := c.NewGroup("left", 0, Members(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := c.NewGroup("right", 3, Members(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	va := ga.Int("a")
	vb := gb.Int("b")
	h2 := c.MustHandle(2) // in both groups
	for i := 1; i <= 20; i++ {
		if err := h2.Write(va, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := h2.Write(vb, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, probe := range []struct {
		h *Handle
		v *Var
	}{{c.MustHandle(0), va}, {c.MustHandle(1), va}, {c.MustHandle(2), va}, {c.MustHandle(2), vb}, {c.MustHandle(3), vb}} {
		for {
			got, err := probe.h.Read(probe.v)
			if err != nil {
				t.Fatal(err)
			}
			if got == 20 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never converged on %s", probe.h.NodeID(), probe.v.Name())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
