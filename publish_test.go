package optsync

import (
	"sync"
	"testing"
	"time"

	"optsync/internal/transport"
)

func newPubCluster(t *testing.T, n int) (*Cluster, *Published, *Var, *Var) {
	t.Helper()
	c, err := NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	g, err := c.NewGroup("pub", 0)
	if err != nil {
		t.Fatal(err)
	}
	x := g.Int("x")
	y := g.Int("y")
	p, err := g.Published("block", x, y)
	if err != nil {
		t.Fatal(err)
	}
	return c, p, x, y
}

func TestPublishedRejectsForeignAndGuardedVars(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g1, _ := c.NewGroup("a", 0)
	g2, _ := c.NewGroup("b", 0)
	foreign := g2.Int("x")
	if _, err := g1.Published("p", foreign); err == nil {
		t.Error("Published accepted a foreign group's variable")
	}
	m := g1.Mutex("lk")
	guarded := g1.Int("guarded", m)
	if _, err := g1.Published("p", guarded); err == nil {
		t.Error("Published accepted a mutex-guarded variable")
	}
}

func TestPublishSnapshotRoundTrip(t *testing.T) {
	c, p, x, y := newPubCluster(t, 3)
	writer := c.MustHandle(1)
	if err := writer.Publish(p, func() error {
		if err := writer.Write(x, 10); err != nil {
			return err
		}
		return writer.Write(y, 20)
	}); err != nil {
		t.Fatal(err)
	}
	reader := c.MustHandle(2)
	vals, err := reader.SnapshotAfter(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 10 || vals[1] != 20 {
		t.Errorf("snapshot = %v, want [10 20]", vals)
	}
	if ver, _ := reader.Version(p); ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}
}

func TestPublishInFlightDetected(t *testing.T) {
	c, p, _, _ := newPubCluster(t, 2)
	h := c.MustHandle(0)
	err := h.Publish(p, func() error {
		// A second publish from inside the first must be refused: the
		// version is odd.
		if err := h.Publish(p, func() error { return nil }); err == nil {
			t.Error("nested publish succeeded, want in-flight error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotNeverTearsPairs is the paper's consistency claim: readers
// either see a whole publication or none of it. The writer maintains
// y = 2x; no snapshot may ever observe anything else.
func TestSnapshotNeverTearsPairs(t *testing.T) {
	c, p, x, y := newPubCluster(t, 3)
	writer := c.MustHandle(0) // the group root: its writes sequence locally first
	const pubs = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= pubs; i++ {
			i := int64(i)
			if err := writer.Publish(p, func() error {
				if err := writer.Write(x, i); err != nil {
					return err
				}
				time.Sleep(50 * time.Microsecond) // widen the torn window
				return writer.Write(y, 2*i)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	for r := 1; r <= 2; r++ {
		reader := c.MustHandle(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				vals, err := reader.Snapshot(p)
				if err != nil {
					t.Error(err)
					return
				}
				if vals[1] != 2*vals[0] {
					t.Errorf("torn snapshot: x=%d y=%d", vals[0], vals[1])
					return
				}
			}
		}()
	}
	// Wait for the writer, then stop the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wgWriterWait(&wg, stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publication test hung")
	}
	// Final state visible everywhere.
	final, err := c.MustHandle(2).SnapshotAfter(p, int64(2*pubs))
	if err != nil {
		t.Fatal(err)
	}
	if final[0] != pubs || final[1] != 2*pubs {
		t.Errorf("final snapshot = %v, want [%d %d]", final, pubs, 2*pubs)
	}
}

// wgWriterWait waits for the writer (first Add) by polling the final
// version, then closes stop and waits for everyone.
func wgWriterWait(wg *sync.WaitGroup, stop chan struct{}) {
	// The writer goroutine is done when wg can be released after stop:
	// close stop once a grace period covers the writer's work, then wait.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestSnapshotWaitsOutInFlightPublication(t *testing.T) {
	c, p, x, _ := newPubCluster(t, 2)
	writer, reader := c.MustHandle(0), c.MustHandle(1)
	started := make(chan struct{})
	finish := make(chan struct{})
	go func() {
		_ = writer.Publish(p, func() error {
			close(started)
			<-finish
			return writer.Write(x, 5)
		})
	}()
	<-started
	got := make(chan []int64, 1)
	go func() {
		vals, err := reader.Snapshot(p)
		if err != nil {
			t.Error(err)
		}
		got <- vals
	}()
	// The reader either raced ahead of the odd version (and then must
	// have seen the pristine value) or blocks until the publication
	// closes.
	received := false
	select {
	case v := <-got:
		received = true
		if v[0] != 0 {
			t.Errorf("snapshot during publication saw x=%d", v[0])
		}
	case <-time.After(50 * time.Millisecond):
	}
	close(finish)
	if !received {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("snapshot never completed after publication finished")
		}
	}
}

func TestPublishFromNonRootWriter(t *testing.T) {
	// The publication pattern works from any single writer, not just the
	// group root: GWC sequencing preserves the version-data-version order
	// regardless of where the writes originate.
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("pub2", 0)
	if err != nil {
		t.Fatal(err)
	}
	x := g.Int("x")
	y := g.Int("y")
	p, err := g.Published("blk", x, y)
	if err != nil {
		t.Fatal(err)
	}
	writer := c.MustHandle(3) // far from the root
	for i := int64(1); i <= 30; i++ {
		i := i
		if err := writer.Publish(p, func() error {
			if err := writer.Write(x, i); err != nil {
				return err
			}
			return writer.Write(y, -i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 4; id++ {
		vals, err := c.MustHandle(id).SnapshotAfter(p, 60)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] != 30 || vals[1] != -30 {
			t.Errorf("node %d snapshot = %v, want [30 -30]", id, vals)
		}
	}
}

// TestPublishVersionSurvivesOwnEchoes: an unguarded write is applied at
// its origin twice — eagerly, and again when the root's echo arrives — so
// a publisher that outruns its echoes finds its local version rewound.
// With the down plane 30 ms late, the third publication below starts
// after the first one's echoes have put the writer's copy back to 2 and
// before the second one's have arrived: counting from the copy it would
// publish versions 3 and 4 a second time, and every node would end at 4
// with two different publications behind the same even version.
func TestPublishVersionSurvivesOwnEchoes(t *testing.T) {
	delayedDown := optionFunc(func(o *options) {
		o.faults = &transport.FaultPlan{DelayRate: 1, Delay: 30 * time.Millisecond, DownOnly: true}
	})
	c, err := NewCluster(4, delayedDown)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("pub", 0)
	if err != nil {
		t.Fatal(err)
	}
	x := g.Int("x")
	p, err := g.Published("block", x)
	if err != nil {
		t.Fatal(err)
	}
	writer := c.MustHandle(1)
	for i, pause := range []time.Duration{0, 10 * time.Millisecond, 25 * time.Millisecond} {
		time.Sleep(pause)
		if err := writer.Publish(p, func() error { return writer.Write(x, int64(i+1)) }); err != nil {
			t.Fatalf("publication %d: %v", i+1, err)
		}
	}
	for id := 0; id < 4; id++ {
		h := c.MustHandle(id)
		var ver int64
		for deadline := time.Now().Add(2 * time.Second); ver < 6 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			ver, _ = h.Version(p)
		}
		if xv, _ := h.Read(x); ver != 6 || xv != 3 {
			t.Errorf("node %d: version %d, x = %d after three publications, want 6 and 3", id, ver, xv)
		}
	}
}
