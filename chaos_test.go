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

// TestChaosRootCrashMidWorkload kills the group root while workers on the
// surviving nodes increment a lock-guarded counter, and checks the
// fault-tolerance contract: a new root is elected, every increment that
// was confirmed committed survives the failover, the mutex is never held
// by two sections at once, and all survivors converge on one final value.
func TestChaosRootCrashMidWorkload(t *testing.T) {
	const nodes = 5
	c, err := NewCluster(nodes, WithChaos(),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 90 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	v := g.Int("counter", m)

	var (
		inSection int32 // 1 while any section holds the mutex
		overlaps  int32 // double-grant violations observed
		confirmed int64 // increments whose commit was locally observed
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	// Workers on every non-root node; the root (node 0) is the crash
	// victim, so nothing holds the lock when it dies mid-reign.
	for i := 1; i < nodes; i++ {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok, err := h.TryLockFor(m, 300*time.Millisecond)
				if err != nil || !ok {
					continue // outage window: retry until the new root answers
				}
				if !atomic.CompareAndSwapInt32(&inSection, 0, 1) {
					atomic.AddInt32(&overlaps, 1)
				}
				cur, rerr := h.Read(v)
				if rerr == nil {
					if werr := h.Write(v, cur+1); werr == nil {
						// Count the increment only once its sequenced echo
						// lands locally — that is the commit point that must
						// survive the crash.
						ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
						if h.WaitGEContext(ctx, v, cur+1) == nil {
							atomic.AddInt64(&confirmed, 1)
						}
						cancel()
					}
				}
				atomic.StoreInt32(&inSection, 0)
				_ = h.Release(m)
			}
		}(c.MustHandle(i))
	}

	// Let the workload establish itself, then kill the root.
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt64(&confirmed) < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if atomic.LoadInt64(&confirmed) < 5 {
		t.Fatal("workload never got going before the crash")
	}
	c.Chaos().Crash(0)

	// The lowest surviving ID must take over within the failure deadline.
	deadline = time.Now().Add(5 * time.Second)
	for c.MustHandle(1).Stats().GWC.Failovers == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.MustHandle(1).Stats().GWC.Failovers != 1 {
		t.Fatal("node 1 never promoted itself after the root crash")
	}

	// Keep the workload running under the new root, then wind down.
	post := atomic.LoadInt64(&confirmed)
	deadline = time.Now().Add(5 * time.Second)
	for atomic.LoadInt64(&confirmed) < post+5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n := atomic.LoadInt32(&overlaps); n != 0 {
		t.Errorf("mutual exclusion violated %d times", n)
	}
	// A single crash-failover cycle resolves well inside the default
	// stuck-operation budget (4x the failure deadline), so any watchdog
	// trip on a survivor means an operation genuinely wedged. The crashed
	// root is exempt: its fence staying up while isolated is exactly what
	// its own watchdog should report.
	for i := 1; i < nodes; i++ {
		if n := c.MustHandle(i).Stats().GWC.WatchdogStuck; n != 0 {
			t.Errorf("node %d: stuck-operation watchdog tripped %d times during a healthy failover", i, n)
		}
	}
	want := atomic.LoadInt64(&confirmed)
	if want <= post {
		t.Errorf("no increments committed under the new root (pre-crash %d, final %d)", post, want)
	}

	// Survivors converge on a single final value that lost none of the
	// confirmed increments.
	var final int64 = -1
	deadline = time.Now().Add(5 * time.Second)
	for {
		vals := make([]int64, 0, nodes-1)
		for i := 1; i < nodes; i++ {
			got, err := c.MustHandle(i).Read(v)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, got)
		}
		agreed := true
		for _, got := range vals[1:] {
			if got != vals[0] {
				agreed = false
			}
		}
		if agreed {
			final = vals[0]
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("survivors never converged: counters %v", vals)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final < want {
		t.Errorf("final counter %d lost committed writes (%d confirmed)", final, want)
	}

	// The deposed root, revived, must stand down and adopt the new
	// reign's state rather than split the group.
	c.Chaos().Revive(0)
	deadline = time.Now().Add(5 * time.Second)
	for c.MustHandle(0).Stats().GWC.Demotions == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if c.MustHandle(0).Stats().GWC.Demotions != 1 {
		t.Fatal("revived old root never stood down")
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got, err := c.MustHandle(0).Read(v); err == nil && got >= final {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	got, _ := c.MustHandle(0).Read(v)
	t.Fatalf("revived root stuck at counter %d, group reached %d", got, final)
}

// TestChaosCorruptionSoak runs a lock-guarded counter workload while the
// transport flips one random bit in ~1% of all frames, and checks the
// end-to-end integrity contract: the CRC32C frame trailer catches every
// single flip (a corrupted frame is discarded and recovered by the
// NACK/retry machinery, never delivered), so the workload suffers only
// retransmission latency — no lost increments, no divergence conviction,
// no stuck-operation watchdog trips — and the whole cluster converges on
// one final counter once corruption stops.
func TestChaosCorruptionSoak(t *testing.T) {
	const nodes = 5
	c, err := NewCluster(nodes, WithChaos(),
		WithIntegrity(60*time.Millisecond),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 300 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("soak", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	v := g.Int("counter", m)

	var (
		confirmed int64 // increments whose sequenced echo was observed locally
		expect    int64 // highest confirmed counter value (mutated only under m)
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	for i := 1; i < nodes; i++ {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok, err := h.TryLockFor(m, 300*time.Millisecond)
				if err != nil || !ok {
					continue // corrupted control frames: retry until one gets through
				}
				// A corrupted (discarded, not-yet-retransmitted) sequenced
				// frame can leave this copy behind the previous holder's
				// write even though the lock already moved on, so catch up
				// to the last confirmed value before the read-modify-write
				// — the acquire/sync/modify pattern corruption demands.
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				caughtUp := h.WaitGEContext(ctx, v, atomic.LoadInt64(&expect)) == nil
				cancel()
				if caughtUp {
					if cur, rerr := h.Read(v); rerr == nil {
						if werr := h.Write(v, cur+1); werr == nil {
							// Commit point: the write is visible at the
							// sequencer. The local copy applies eagerly, so
							// reading it back proves nothing; the root's copy
							// moves only when the write is sequenced. Waiting
							// while the lock is still held is what makes a
							// corrupted carrier frame recoverable — the
							// up-path re-send arrives with a still-current
							// grant tag.
							wait := time.Now().Add(2 * time.Second)
							for time.Now().Before(wait) {
								if got, gerr := c.MustHandle(0).Read(v); gerr == nil && got >= cur+1 {
									atomic.AddInt64(&confirmed, 1)
									atomic.StoreInt64(&expect, cur+1)
									break
								}
								time.Sleep(time.Millisecond)
							}
						}
					}
				}
				_ = h.Release(m)
			}
		}(c.MustHandle(i))
	}

	// Let the workload establish itself on a clean network, then turn on
	// the bit rot.
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt64(&confirmed) < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if atomic.LoadInt64(&confirmed) < 3 {
		t.Fatal("workload never got going before corruption")
	}
	c.Chaos().Corrupt(0.01)

	// Soak: enough new increments to span many sweep intervals, and
	// enough injected flips for the catch-rate claim to mean something.
	pre := atomic.LoadInt64(&confirmed)
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		injected, _, _ := c.Chaos().CorruptStats()
		if atomic.LoadInt64(&confirmed) >= pre+30 && injected >= 25 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Clean wind-down so convergence is not racing fresh corruption.
	c.Chaos().Corrupt(0)
	close(stop)
	wg.Wait()

	injected, caught, missed := c.Chaos().CorruptStats()
	if injected < 25 {
		t.Fatalf("soak injected only %d bit-flips; the workload stalled under corruption", injected)
	}
	if missed != 0 || caught != injected {
		t.Errorf("checksums caught %d of %d corrupted frames (%d delivered corrupt)", caught, injected, missed)
	}
	want := atomic.LoadInt64(&confirmed)
	if want < pre+30 {
		t.Errorf("only %d increments confirmed under corruption (want >= 30 past the %d pre-soak)", want-pre, pre)
	}

	// Every node converges on a single final value with no confirmed
	// increment lost to a discarded frame.
	var final int64 = -1
	deadline = time.Now().Add(5 * time.Second)
	for {
		vals := make([]int64, 0, nodes)
		for i := 0; i < nodes; i++ {
			got, err := c.MustHandle(i).Read(v)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, got)
		}
		agreed := true
		for _, got := range vals[1:] {
			if got != vals[0] {
				agreed = false
			}
		}
		if agreed {
			final = vals[0]
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("cluster never converged after the soak: counters %v", vals)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final < want {
		t.Errorf("final counter %d lost confirmed increments (%d confirmed)", final, want)
	}

	// Transport bit rot must be invisible above the codec: no node's copy
	// was ever convicted by a digest sweep (the corruption never reached
	// an apply), and no operation wedged past the watchdog budget — the
	// retry machinery absorbed every discarded frame.
	for i := 0; i < nodes; i++ {
		s := c.MustHandle(i).Stats().GWC
		if s.Divergences != 0 {
			t.Errorf("node %d: %d divergence convictions from transport-level corruption", i, s.Divergences)
		}
		if s.WatchdogStuck != 0 {
			t.Errorf("node %d: stuck-operation watchdog tripped %d times during the soak", i, s.WatchdogStuck)
		}
	}
	// The sweep itself must have been live the whole time, or the
	// no-divergence claim above is vacuous.
	if s := c.MustHandle(0).Stats().GWC; s.DigestSweeps == 0 {
		t.Error("integrity was enabled but the root never swept")
	}
}

// TestChaosLeasedSoak runs a lease-enabled lock workload under 1%
// transport bit rot plus a rolling partition schedule, and checks that
// the lease fast path and the chaos machinery compose: local re-entries
// and peer handoffs keep happening, the CRC trailer still catches every
// flip, no node is ever convicted of divergence, no operation wedges
// past the stuck-op watchdog, and the cluster converges with every
// confirmed increment intact. Partition windows are kept shorter than
// the failure deadline, so the soak also pins that lease churn plus
// frame loss alone never manufactures a reign change.
func TestChaosLeasedSoak(t *testing.T) {
	const nodes = 5
	c, err := NewCluster(nodes, WithChaos(),
		WithIntegrity(60*time.Millisecond),
		WithLeases(250*time.Millisecond),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 300 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("soak", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	v := g.Int("counter", m)

	var (
		confirmed int64 // increments whose sequenced echo reached the root
		expect    int64 // highest confirmed counter value (mutated only under m)
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	// One section: catch up past corruption-induced staleness, increment,
	// and hold the lock until the root's copy proves the write sequenced
	// (the same acquire/sync/modify shape as the corruption soak).
	section := func(h *Handle) {
		ok, err := h.TryLockFor(m, 300*time.Millisecond)
		if err != nil || !ok {
			return // outage or corrupted control frames: retry later
		}
		defer func() { _ = h.Release(m) }()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		caughtUp := h.WaitGEContext(ctx, v, atomic.LoadInt64(&expect)) == nil
		cancel()
		if !caughtUp {
			return
		}
		cur, rerr := h.Read(v)
		if rerr != nil {
			return
		}
		if werr := h.Write(v, cur+1); werr != nil {
			return
		}
		wait := time.Now().Add(2 * time.Second)
		for time.Now().Before(wait) {
			if got, gerr := c.MustHandle(0).Read(v); gerr == nil && got >= cur+1 {
				atomic.AddInt64(&confirmed, 1)
				atomic.StoreInt64(&expect, cur+1)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Node 1 bursts: back-to-back sections with no pause, so whenever the
	// queue drains it gets the lock leased and re-enters locally. Nodes
	// 2-4 poke with short sleeps: their requests force revokes and put
	// waiters in the queue, which is what arms the handoff hints.
	wg.Add(1)
	go func(h *Handle) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			section(h)
		}
	}(c.MustHandle(1))
	for i := 2; i < nodes; i++ {
		wg.Add(1)
		go func(h *Handle, pause time.Duration) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				section(h)
				time.Sleep(pause)
			}
		}(c.MustHandle(i), time.Duration(10+5*i)*time.Millisecond)
	}

	// Establish the workload and the lease fast path on a clean network.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if atomic.LoadInt64(&confirmed) >= 3 && c.MustHandle(1).Stats().GWC.LeaseLocal >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if atomic.LoadInt64(&confirmed) < 3 {
		t.Fatal("workload never got going before the chaos")
	}
	if c.MustHandle(1).Stats().GWC.LeaseLocal < 1 {
		t.Fatal("burst worker never re-entered locally; the soak would not exercise leasing")
	}

	// Chaos on: bit rot for the whole soak, partitions in rolling windows
	// shorter than the 300ms failure deadline, so isolated minorities
	// stall and recover without ever starting an election.
	c.Chaos().Corrupt(0.01)
	pre := atomic.LoadInt64(&confirmed)
	cuts := [][]int{{4}, {3, 4}}
	for cycle := 0; cycle < 8; cycle++ {
		minority := cuts[cycle%2]
		iso := map[int]bool{}
		for _, n := range minority {
			iso[n] = true
		}
		var majority []int
		for n := 0; n < nodes; n++ {
			if !iso[n] {
				majority = append(majority, n)
			}
		}
		c.Chaos().Partition(majority, minority)
		time.Sleep(200 * time.Millisecond)
		c.Chaos().Heal()
		time.Sleep(300 * time.Millisecond)
	}
	// Keep soaking on the healed-but-corrupt network until the claims
	// below are non-vacuous.
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		injected, _, _ := c.Chaos().CorruptStats()
		if atomic.LoadInt64(&confirmed) >= pre+20 && injected >= 25 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Chaos().Corrupt(0)
	close(stop)
	wg.Wait()

	injected, caught, missed := c.Chaos().CorruptStats()
	if injected < 25 {
		t.Fatalf("soak injected only %d bit-flips; the workload stalled under chaos", injected)
	}
	if missed != 0 || caught != injected {
		t.Errorf("checksums caught %d of %d corrupted frames (%d delivered corrupt)", caught, injected, missed)
	}
	want := atomic.LoadInt64(&confirmed)
	if want < pre+20 {
		t.Errorf("only %d increments confirmed under chaos (want >= 20 past the %d pre-soak)", want-pre, pre)
	}

	// Convergence with nothing lost.
	var final int64 = -1
	deadline = time.Now().Add(5 * time.Second)
	for {
		vals := make([]int64, 0, nodes)
		for i := 0; i < nodes; i++ {
			got, err := c.MustHandle(i).Read(v)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, got)
		}
		agreed := true
		for _, got := range vals[1:] {
			if got != vals[0] {
				agreed = false
			}
		}
		if agreed {
			final = vals[0]
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("cluster never converged after the soak: counters %v", vals)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final < want {
		t.Errorf("final counter %d lost confirmed increments (%d confirmed)", final, want)
	}

	// The core soak contract, now with leasing in the mix: corruption and
	// short partitions must stay invisible above the codec and below the
	// watchdog on every node, and must never have manufactured a reign
	// change.
	leaseLocal, leaseGrants := 0, 0
	for i := 0; i < nodes; i++ {
		s := c.MustHandle(i).Stats().GWC
		if s.Divergences != 0 {
			t.Errorf("node %d: %d divergence convictions during the leased soak", i, s.Divergences)
		}
		if s.WatchdogStuck != 0 {
			t.Errorf("node %d: stuck-operation watchdog tripped %d times during the leased soak", i, s.WatchdogStuck)
		}
		if s.Failovers != 0 || s.Elections != 0 {
			t.Errorf("node %d: %d failovers / %d elections from partitions shorter than the failure deadline", i, s.Failovers, s.Elections)
		}
		leaseLocal += s.LeaseLocal
		leaseGrants += s.LeaseGrants
	}
	if leaseGrants < 1 || leaseLocal < 1 {
		t.Errorf("lease machinery went vacuous mid-soak (grants=%d, local=%d)", leaseGrants, leaseLocal)
	}
	if s := c.MustHandle(0).Stats().GWC; s.DigestSweeps == 0 {
		t.Error("integrity was enabled but the root never swept")
	}
}

// TestChaosAcquireExpiredDeadline checks that a dead deadline fails fast
// even when the root is unreachable.
func TestChaosAcquireExpiredDeadline(t *testing.T) {
	c, err := NewCluster(3, WithChaos(),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 90 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	c.Chaos().Crash(0)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	if err := c.MustHandle(1).AcquireContext(ctx, m); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireContext = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("expired-deadline acquire took %v", d)
	}

	// A short live deadline also returns promptly while the root is down.
	ok, err := c.MustHandle(2).TryLockFor(m, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		_ = c.MustHandle(2).Release(m)
	}
}

// TestChaosDeposedRootSettlesHolderGauge pins the sess_holders leak of a
// deposed root: the holders on a reign's books when it is deposed release
// to its successor, so the dropped reign must take them out of the gauge
// itself — otherwise the ex-root reports a holder forever, Cluster.Metrics
// sums it cluster-wide, and a later re-promotion adds on top.
func TestChaosDeposedRootSettlesHolderGauge(t *testing.T) {
	c, err := NewCluster(3, WithChaos(),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 90 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("gauge", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Mutex("lock")
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	holders := func(node int) int64 {
		nm, err := c.NodeMetrics(node)
		if err != nil {
			t.Fatal(err)
		}
		return nm.Gauge(obs.GaugeSessHolders).Value()
	}

	h2 := c.MustHandle(2)
	if err := h2.Acquire(m); err != nil {
		t.Fatal(err)
	}
	if got := holders(0); got != 1 {
		t.Fatalf("root holder gauge = %d with node 2 inside, want 1", got)
	}
	c.Chaos().Crash(0)
	until("node 1's promotion", func() bool { return c.MustHandle(1).Stats().GWC.Failovers == 1 })
	until("node 2 to follow the new reign", func() bool { return holders(1) == 1 })
	if err := h2.Release(m); err != nil {
		t.Fatal(err)
	}
	until("the new root to see the release", func() bool { return holders(1) == 0 })
	c.Chaos().Revive(0)
	until("node 0's demotion", func() bool { return c.MustHandle(0).Stats().GWC.Demotions == 1 })
	if got := holders(0); got != 0 {
		t.Errorf("deposed root's holder gauge = %d, want 0: it still counts a holder that released to its successor", got)
	}
}
