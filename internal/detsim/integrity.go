package detsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/model"
	"optsync/internal/obs"
	"optsync/internal/wire"
)

// divergenceSweep is the anti-entropy interval the scenario runs the
// cluster at: four maintenance ticks, so several sweeps fit inside one
// failure-detection window and a detection-latency bound is meaningful.
const divergenceSweep = 4 * simRetry

// DivergenceRepair: 4 nodes with the anti-entropy sweep enabled; two
// workers on the guarded counter plus unguarded background streams. A
// one-shot misapply fault corrupts the value of one sequenced stream
// frame as node 3 applies it — node 3's local copy now silently
// disagrees with the reign. The sweep must convict node 3, quarantine
// the copy (Health, ReadStale), and repair it through the snapshot path
// with the load still flowing. Then, on a drained cluster, a second
// corruption must be convicted within one sweep interval of the
// injection — the tight latency claim is made where delivery is not
// behind a scheduler-stretched queue, so it measures the protocol and
// not the backlog. Finally every node must report the same digest at
// the same watermark and the acknowledged history must linearize.
func DivergenceRepair() Scenario {
	return Scenario{
		Name:  "divergence-repair",
		Nodes: 4,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				quorumAcks: true,
				history:    256,
				guards:     guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			for i := 0; i < e.Nodes(); i++ {
				e.Node(i).SetIntegrity(divergenceSweep)
			}
			checker := model.NewCounterChecker()
			// Node 3 is the corruption victim, so observers avoid it.
			stable := map[int][]int{1: {0, 2}, 2: {0, 1}}
			var ws []*worker
			for _, id := range []int{1, 2} {
				ws = append(ws, &worker{env: e, node: id, obs: stable[id], minObs: 2, checker: checker})
			}
			streams := []int{0, 1, 2}
			next := make([]int64, len(streams))
			// Pump sparsely enough that the links drain faster than the
			// streams fill them (each pump fans out ~24 frames counting quorum acks; the
			// scheduler delivers under one per event), or the wind-down
			// phases spend their whole budget draining the backlog.
			e.pump = func(i int) {
				if i%97 != 0 {
					return
				}
				for si, id := range streams {
					next[si]++
					e.Node(id).Write(simGroup, simStreamBase+gwc.VarID(si), next[si])
				}
			}
			// The fault: a sequenced stream frame is mutated just before
			// node 3 applies and folds it, so the corruption lands in both
			// the local copy and the digest — exactly what bad RAM or an
			// apply-path bug would do. The counters cross the scenario /
			// node-goroutine boundary, hence the atomics; the schedule
			// itself stays deterministic because arming happens at
			// quiescence and the hook fires on the deterministic delivery
			// order.
			var wantInjections, injections atomic.Int32
			var injectedAt atomic.Int64 // virtual ns of the latest injection
			e.Node(3).SetMisapply(func(m *wire.Message) {
				if injections.Load() >= wantInjections.Load() {
					return
				}
				if m.Var < uint32(simStreamBase) {
					return // only corrupt background-stream frames
				}
				m.Val += 1 << 40
				injectedAt.Store(int64(e.Now()))
				injections.Add(1)
			})
			if err := drive(e, ws, 60000, "first acknowledged increments", func() bool {
				return totalAcked(ws) >= 1
			}); err != nil {
				return err
			}
			// Arm a seed-chosen distance into the workload so different
			// seeds corrupt different frames at different sweep phases.
			if err := drive(e, ws, e.Rand().Intn(600), "the injection point", nil); err != nil {
				return err
			}
			wantInjections.Store(1)
			if err := drive(e, ws, 60000, "corruption injected", func() bool {
				return injections.Load() >= 1
			}); err != nil {
				return err
			}
			// Detection under load: a sweep must convict node 3 — either
			// the root comparing node 3's digest report against its
			// checkpoint ring, or node 3's own self-check at the
			// watermark. Both end in markDiverged on node 3, which counts
			// Divergences there.
			if err := drive(e, ws, 120000, "divergence detected", func() bool {
				return e.Node(3).Stats().Divergences >= 1
			}); err != nil {
				return err
			}
			// While convicted, the copy must refuse to serve. This cut is
			// right after the convicting event: the repair needs at least
			// one more round trip, so the conviction is still standing.
			if h := e.Node(3).Health(); h.Diverged != 1 || h.Serving() {
				return fmt.Errorf("convicted node reports health %+v; want Diverged=1, not serving", h)
			}
			if _, _, err := e.Node(3).ReadStale(simGroup, simCounter, 0); err == nil {
				return fmt.Errorf("ReadStale served from a convicted copy")
			}
			// Repair under load: the corrective snapshot re-bases node 3
			// and clears the conviction while the streams keep flowing.
			if err := drive(e, ws, 120000, "divergence repaired", func() bool {
				_, _, diverged, err := e.Node(3).DigestState(simGroup)
				return err == nil && !diverged
			}); err != nil {
				return err
			}
			if err := drive(e, ws, 60000, "post-repair increments", func() bool {
				return totalAcked(ws) >= 2
			}); err != nil {
				return err
			}
			e.pump = nil
			final, err := windDown(e, ws, []int{0, 1, 2, 3})
			if err != nil {
				return err
			}
			// Drain the network completely so the second injection is
			// measured against an idle cluster.
			if err := drive(e, ws, 80000, "network drain", func() bool {
				return e.Inflight() == 0
			}); err != nil {
				return err
			}
			// Quiescent-phase injection: one stream write, corrupted at
			// node 3 on apply. With the links empty, probe delivery is
			// prompt, so conviction must land within one sweep interval
			// (plus the tick the sweep piggybacks on and a little
			// scheduler slack) of the corrupt apply — any more means a
			// digest comparison glided over corrupted state.
			wantInjections.Store(2)
			next[1]++
			e.Node(1).Write(simGroup, simStreamBase+1, next[1])
			if err := drive(e, ws, 40000, "second corruption injected", func() bool {
				return injections.Load() >= 2
			}); err != nil {
				return err
			}
			var detectedAt time.Duration
			if err := drive(e, ws, 120000, "second divergence detected", func() bool {
				if e.Node(3).Stats().Divergences >= 2 {
					detectedAt = e.Now()
					return true
				}
				return false
			}); err != nil {
				return err
			}
			latency := detectedAt - time.Duration(injectedAt.Load())
			if maxLat := divergenceSweep + 4*simRetry; latency > maxLat {
				return fmt.Errorf("quiescent divergence detected %v after injection; want within %v", latency, maxLat)
			}
			// Full convergence: conviction cleared, every node at the same
			// watermark with the same digest, node 3 caught up to every
			// stream's final value despite both corrupted frames, and the
			// counter untouched by the repairs.
			if err := drive(e, ws, 80000, "digest equality across the cluster", func() bool {
				sum0, applied0, diverged0, err := e.Node(0).DigestState(simGroup)
				if err != nil || diverged0 {
					return false
				}
				for i := 1; i < e.Nodes(); i++ {
					sum, applied, diverged, err := e.Node(i).DigestState(simGroup)
					if err != nil || diverged || applied != applied0 || sum != sum0 {
						return false
					}
				}
				for si := range streams {
					v, _ := e.Node(3).Read(simGroup, simStreamBase+gwc.VarID(si))
					if v != next[si] {
						return false
					}
				}
				return true
			}); err != nil {
				return err
			}
			for i := 0; i < e.Nodes(); i++ {
				if v, _ := e.Node(i).Read(simGroup, simCounter); v != final {
					return fmt.Errorf("node %d counter %d != converged %d after repairs", i, v, final)
				}
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after divergence repair (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			if s := e.Node(0).Stats(); s.DigestSweeps == 0 {
				return fmt.Errorf("integrity was enabled but the root never swept")
			}
			if c := e.Node(3).Metrics().Trace.Count(obs.EvDivergence); c < 2 {
				return fmt.Errorf("want >= 2 EvDivergence events on the convicted node, got %d", c)
			}
			return nil
		},
	}
}
