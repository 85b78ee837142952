package optsync

// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus microbenchmarks and ablations on the live runtime. The figure
// benches report the paper's metric ("power", network speedup) via
// b.ReportMetric, so `go test -bench .` prints the reproduced series
// alongside wall-clock costs.

import (
	"fmt"
	"testing"
	"time"

	"optsync/internal/exp"
	"optsync/internal/model"
	"optsync/internal/sim"
	"optsync/internal/wire"
	"optsync/internal/workload"
)

// --- Figure 1: the three-CPU locking comparison -------------------------

func benchmarkMutex3(b *testing.B, kind workload.Kind) {
	var total sim.Time
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		p := workload.DefaultMutex3Params()
		cfg := model.DefaultConfig(3)
		p.Configure(&cfg)
		if kind == workload.KindEntry {
			cfg.Invalidate = true
		}
		m, err := workload.NewMachine(k, kind, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if e, ok := m.(*model.Entry); ok {
			e.SetReaders(0, []int{1, 2})
		}
		r, err := workload.RunMutex3(k, m, p)
		if err != nil {
			b.Fatal(err)
		}
		total = r.Total
	}
	b.ReportMetric(float64(total), "virtual-ns")
}

func BenchmarkFigure1GWC(b *testing.B)     { benchmarkMutex3(b, workload.KindGWC) }
func BenchmarkFigure1Entry(b *testing.B)   { benchmarkMutex3(b, workload.KindEntry) }
func BenchmarkFigure1Release(b *testing.B) { benchmarkMutex3(b, workload.KindRelease) }

// --- Figure 2: task-management speedup ----------------------------------

func benchmarkTaskMgmt(b *testing.B, kind workload.Kind, n int, zeroDelay bool) {
	var power float64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		p := workload.DefaultTaskMgmtParams(n, kind)
		p.Tasks = 256 // quick sweep; cmd/figure2 runs the full 1024
		cfg := model.DefaultConfig(n)
		if zeroDelay {
			cfg.Net.HopLatency = 0
			cfg.Net.BytesPerNS = 1e12
			cfg.RootProc = 0
		}
		p.Configure(&cfg)
		m, err := workload.NewMachine(k, kind, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := workload.RunTaskMgmt(k, m, p)
		if err != nil {
			b.Fatal(err)
		}
		power = r.Power
	}
	b.ReportMetric(power, "power")
}

func BenchmarkFigure2(b *testing.B) {
	for _, n := range []int{3, 9, 33, 129} {
		b.Run(fmt.Sprintf("max/n=%d", n), func(b *testing.B) {
			benchmarkTaskMgmt(b, workload.KindGWC, n, true)
		})
		b.Run(fmt.Sprintf("gwc/n=%d", n), func(b *testing.B) {
			benchmarkTaskMgmt(b, workload.KindGWC, n, false)
		})
		b.Run(fmt.Sprintf("entry/n=%d", n), func(b *testing.B) {
			benchmarkTaskMgmt(b, workload.KindEntry, n, false)
		})
	}
}

// --- Figure 8: pipeline network power ------------------------------------

func benchmarkPipeline(b *testing.B, kind workload.Kind, n int, zeroDelay bool) {
	var power float64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		p := workload.DefaultPipelineParams(n)
		p.DataSize = 256 // quick sweep; cmd/figure8 runs the full 1024
		cfg := model.DefaultConfig(n)
		if zeroDelay {
			cfg.Net.HopLatency = 0
			cfg.Net.BytesPerNS = 1e12
			cfg.RootProc = 0
		}
		if kind == workload.KindEntry {
			cfg.ViaManager = true
		}
		p.Configure(&cfg)
		m, err := workload.NewMachine(k, kind, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := workload.RunPipeline(k, m, p)
		if err != nil {
			b.Fatal(err)
		}
		power = r.Power
	}
	b.ReportMetric(power, "power")
}

func BenchmarkFigure8(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("max/n=%d", n), func(b *testing.B) {
			benchmarkPipeline(b, workload.KindGWC, n, true)
		})
		b.Run(fmt.Sprintf("optimistic/n=%d", n), func(b *testing.B) {
			benchmarkPipeline(b, workload.KindGWCOptimistic, n, false)
		})
		b.Run(fmt.Sprintf("gwc/n=%d", n), func(b *testing.B) {
			benchmarkPipeline(b, workload.KindGWC, n, false)
		})
		b.Run(fmt.Sprintf("entry/n=%d", n), func(b *testing.B) {
			benchmarkPipeline(b, workload.KindEntry, n, false)
		})
	}
}

// BenchmarkHeadlineRatios reproduces Section 4.1's summary numbers
// (optimistic 1.1x over non-optimistic GWC, 2.1x over entry consistency)
// as reported metrics.
func BenchmarkHeadlineRatios(b *testing.B) {
	var ratios map[string]float64
	for i := 0; i < b.N; i++ {
		fig, err := exp.Figure8(exp.Options{Quick: true, Sizes: []int{2}})
		if err != nil {
			b.Fatal(err)
		}
		ratios, err = exp.HeadlineRatios(fig)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ratios["optimistic/gwc"], "opt/gwc")
	b.ReportMetric(ratios["optimistic/entry"], "opt/entry")
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationMXRatio sweeps the critical-section size: the paper
// chose MX:local = 1:8 so the lock round trip can hide under the section.
// Larger ratios (smaller sections) leave less room to hide the latency,
// shrinking the optimistic advantage.
func BenchmarkAblationMXRatio(b *testing.B) {
	for _, ratio := range []int{2, 8, 32} {
		for _, kind := range []workload.Kind{workload.KindGWCOptimistic, workload.KindGWC} {
			b.Run(fmt.Sprintf("ratio=1:%d/%s", ratio, kind), func(b *testing.B) {
				var power float64
				for i := 0; i < b.N; i++ {
					k := sim.NewKernel()
					p := workload.DefaultPipelineParams(8)
					p.DataSize = 256
					p.MXRatio = ratio
					cfg := model.DefaultConfig(8)
					p.Configure(&cfg)
					m, err := workload.NewMachine(k, kind, cfg)
					if err != nil {
						b.Fatal(err)
					}
					r, err := workload.RunPipeline(k, m, p)
					if err != nil {
						b.Fatal(err)
					}
					power = r.Power
				}
				b.ReportMetric(power, "power")
			})
		}
	}
}

// BenchmarkAblationHistoryThreshold compares the optimistic filter's
// threshold settings under the contended task workload: 0 forces the
// regular path, the paper's 0.30 allows speculation when the lock looks
// quiet.
func BenchmarkAblationHistoryThreshold(b *testing.B) {
	for _, thr := range []float64{0.0001, 0.30, 0.99} {
		b.Run(fmt.Sprintf("threshold=%.4g", thr), func(b *testing.B) {
			var rollbacks, regular int
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				p := workload.DefaultTaskMgmtParams(5, workload.KindGWCOptimistic)
				p.Tasks = 128
				// Force the producer onto the lock so the lock is hot and
				// the filter has something to decide.
				p.LockFreeProducer = false
				cfg := model.DefaultConfig(5)
				cfg.HistoryThreshold = thr
				p.Configure(&cfg)
				m, err := workload.NewMachine(k, workload.KindGWCOptimistic, cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := workload.RunTaskMgmt(k, m, p)
				if err != nil {
					b.Fatal(err)
				}
				rollbacks, regular = r.Stats.Rollbacks, r.Stats.RegularPath
			}
			b.ReportMetric(float64(rollbacks), "rollbacks")
			b.ReportMetric(float64(regular), "regular-path")
		})
	}
}

// --- Live-runtime microbenchmarks -----------------------------------------

// liveGroup builds a live cluster and one group for microbenches. The
// anti-entropy sweep runs throughout, so the write path is measured with
// the digest fold in it — the alloc gate's zero-allocation claim covers
// integrity.
func liveGroup(b *testing.B, n int) (*Cluster, *Group) {
	b.Helper()
	c, err := NewCluster(n, WithIntegrity(50*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	g, err := c.NewGroup("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	return c, g
}

// liveRig is liveGroup with a mutex and a variable it guards: what a
// section benchmark locks and writes.
func liveRig(b *testing.B, n int) (*Cluster, *Mutex, *Var) {
	b.Helper()
	c, g := liveGroup(b, n)
	m := g.Mutex("lock")
	return c, m, g.Int("v", m)
}

// liveFree is liveGroup with one variable no mutex guards: what a
// benchmark writes from outside a section. A write to liveRig's v with m
// not held is a speculation nobody asked for, and the root throws every one
// away.
func liveFree(b *testing.B, n int) (*Cluster, *Var) {
	b.Helper()
	c, g := liveGroup(b, n)
	return c, g.Int("v")
}

// BenchmarkLiveWrite measures what a Write costs its caller, back to back
// from member 1: the eager store and the push at the root — which, the
// group being idle between two writes, runs the sequencer and the fan-out
// to all four nodes on the caller's goroutine (DESIGN.md "InProc: push").
// The alloc gate's 0 therefore covers sequencing, fan-out and apply.
func BenchmarkLiveWrite(b *testing.B) {
	c, v := liveFree(b, 4)
	h := c.MustHandle(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Write(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := c.MustHandle(0).Stats().GWC.Suppressed; s != 0 {
		b.Fatalf("the root threw %d of the benchmark's writes away", s)
	}
}

func BenchmarkLiveRead(b *testing.B) {
	c, _, v := liveRig(b, 4)
	h := c.MustHandle(1)
	if err := h.Write(v, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveLock measures the paper's three-message uncontended
// acquire/release round trip on the live runtime.
func BenchmarkLiveLock(b *testing.B) {
	c, m, _ := liveRig(b, 4)
	h := c.MustHandle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Acquire(m); err != nil {
			b.Fatal(err)
		}
		if err := h.Release(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveWaitGE measures a write until it is readable at the
// farthest member: Write at member 1, WaitGE at member 3. Its one
// allocation per op is WaitGE's wake channel (ci/alloc_baseline.txt says
// why that one stays).
func BenchmarkLiveWaitGE(b *testing.B) {
	c, v := liveFree(b, 4)
	writer, reader := c.MustHandle(1), c.MustHandle(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := writer.Write(v, int64(i)); err != nil {
			b.Fatal(err)
		}
		if err := reader.WaitGE(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeasedReacquire measures the leased fast path: once the root
// has leased the lock to this member, an uncontended Acquire/Release
// pair is a purely local decision — zero wire messages, zero
// allocations — versus BenchmarkLiveLock's three-message round trip.
func BenchmarkLeasedReacquire(b *testing.B) {
	c, err := NewCluster(4, WithIntegrity(50*time.Millisecond), WithLeases(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	g, err := c.NewGroup("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	m := g.Mutex("lock")
	h := c.MustHandle(1)
	// Warm until a re-acquire goes local: the first grant races the
	// unicast lease frame, and a Release that beats it drops the lease.
	warmed := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if err := h.Acquire(m); err != nil {
			b.Fatal(err)
		}
		warmed = h.Stats().GWC.LeaseLocal > 0
		if err := h.Release(m); err != nil {
			b.Fatal(err)
		}
		if warmed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !warmed {
		b.Fatalf("lease never warmed up: %+v", h.Stats().GWC)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Acquire(m); err != nil {
			b.Fatal(err)
		}
		if err := h.Release(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSection compares a full read-modify-write critical section
// on the regular versus the optimistic path with no contention — the
// live-runtime analogue of the Figure 8 headline.
func BenchmarkLiveSection(b *testing.B) {
	b.Run("regular", func(b *testing.B) {
		c, m, v := liveRig(b, 4)
		h := c.MustHandle(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := h.Do(m, func() error {
				cur, err := h.Read(v)
				if err != nil {
					return err
				}
				return h.Write(v, cur+1)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimistic", func(b *testing.B) {
		c, m, v := liveRig(b, 4)
		h := c.MustHandle(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := h.OptimisticDo(m, func(tx *Tx) error {
				cur, err := tx.Read(v)
				if err != nil {
					return err
				}
				return tx.Write(v, cur+1)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate microbenchmarks --------------------------------------------

func BenchmarkWireEncodeDecode(b *testing.B) {
	m := wire.Message{
		Type: wire.TSeqUpdate, Group: 1, Src: 0, Origin: 5,
		Seq: 123456, Var: 7, Val: -42, Guarded: true,
	}
	buf := make([]byte, 0, wire.EncodedSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.Encode(buf[:0], m)
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	ch := sim.NewChan[int](k)
	k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
			ch.Post(i)
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Recv(p)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkAblationTreeFanout compares direct root fanout against
// spanning-tree distribution on the live runtime: time for a burst of
// writes to become visible at the node farthest from the root.
func BenchmarkAblationTreeFanout(b *testing.B) {
	for _, mode := range []string{"direct", "tree"} {
		b.Run(mode, func(b *testing.B) {
			c, err := NewCluster(16)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			var gopts []GroupOption
			if mode == "tree" {
				gopts = append(gopts, TreeFanout())
			}
			g, err := c.NewGroup("bench", 0, gopts...)
			if err != nil {
				b.Fatal(err)
			}
			v := g.Int("v")
			writer, far := c.MustHandle(0), c.MustHandle(15)
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if err := writer.Write(v, int64(i)); err != nil {
					b.Fatal(err)
				}
				if err := far.WaitGE(v, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchedWrites compares the batched and unbatched update
// planes on bursts of writes: a writer stores a round number into a
// burst of variables and a far reader waits for the last one, so each
// iteration measures a full burst becoming visible across the group.
// With batching, the burst exactly fills one flush window: one frame to
// the root, one sequenced frame per member, versus one message each way
// per write on the unbatched plane.
func BenchmarkBatchedWrites(b *testing.B) {
	const nodes, burst = 8, 16
	run := func(b *testing.B, opts ...Option) {
		c, err := NewCluster(nodes, opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		g, err := c.NewGroup("bench", 0)
		if err != nil {
			b.Fatal(err)
		}
		vars := make([]*Var, burst)
		for i := range vars {
			vars[i] = g.Int(fmt.Sprintf("v%d", i))
		}
		writer, reader := c.MustHandle(1), c.MustHandle(nodes-1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			for _, v := range vars {
				if err := writer.Write(v, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			// The queue keeps slot order, so the last variable's arrival
			// implies the whole burst has been applied.
			if err := reader.WaitGE(vars[burst-1], int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "writes/s")
	}
	b.Run("unbatched", func(b *testing.B) { run(b) })
	b.Run("batched", func(b *testing.B) {
		run(b, WithBatching(2*time.Millisecond, burst))
	})
}

// BenchmarkTCPBatchedWrites runs the batched burst workload over a real
// loopback TCP mesh and reports the transport's frames-per-syscall ratio
// alongside throughput: the writev-vectored outbox should pack each
// flushed burst into far fewer syscalls than frames.
func BenchmarkTCPBatchedWrites(b *testing.B) {
	const nodes, burst = 4, 16
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	c, err := NewCluster(nodes, WithTCP(addrs), WithBatching(2*time.Millisecond, burst))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	vars := make([]*Var, burst)
	for i := range vars {
		vars[i] = g.Int(fmt.Sprintf("v%d", i))
	}
	writer, reader := c.MustHandle(1), c.MustHandle(nodes-1)
	b.ReportAllocs()
	b.ResetTimer()
	// Bursts are pipelined (synchronized every 32 rounds rather than
	// every round) so the outbox genuinely queues and the writev path
	// gets to vector multiple frames per syscall, as a loaded
	// deployment would.
	for i := 1; i <= b.N; i++ {
		for _, v := range vars {
			if err := writer.Write(v, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		if i%32 == 0 || i == b.N {
			if err := reader.WaitGE(vars[burst-1], int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "writes/s")
	if ts := c.Metrics().Transport; ts.Writevs > 0 {
		b.ReportMetric(float64(ts.FramesSent)/float64(ts.Writevs), "frames/syscall")
	}
}

// BenchmarkLiveLossRecovery measures write-to-visible latency with 10%
// loss on the sequenced multicast, exercising the NACK machinery on every
// iteration.
func BenchmarkLiveLossRecovery(b *testing.B) {
	c, err := NewCluster(4, WithLossyNetwork(0.10, 31337))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	g, err := c.NewGroup("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	v := g.Int("v")
	writer, reader := c.MustHandle(1), c.MustHandle(3)
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := writer.Write(v, int64(i)); err != nil {
			b.Fatal(err)
		}
		if err := reader.WaitGE(v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
