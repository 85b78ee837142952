package detsim

import (
	"fmt"
	"strings"
	"sync/atomic"

	"optsync/internal/gwc"
	"optsync/internal/model"
	"optsync/internal/obs"
)

// Speculative-execution scenario: the paper's optimistic path driven at
// the protocol level, with its abort accounting cross-checked against
// the root's suppression events.
//
// core.Engine itself cannot run under the deterministic scheduler — its
// blocking waits run on goroutines the quiescence detector cannot see —
// so specWorker mirrors the engine's optimistic path as a polled state
// machine using only the non-blocking gwc API: arm the lock-change
// interrupt, send the request, run the section speculatively (saving
// prior values), commit when the grant arrives untainted, and roll back
// (restore the save set, resume insharing, withdraw the request) when
// the lock goes to the rival first.

type specWorker struct {
	env     *Env
	node    int
	obs     []int // stable observer nodes, never this worker
	minObs  int
	checker *model.CounterChecker

	state   wState
	stopped bool
	from    int64 // counter value read at speculation entry
	saved   []gwc.Saved
	rolled  *atomic.Bool
	unreg   func()
	polls   int

	acked   int
	aborted int
}

func (w *specWorker) poll() error {
	n := w.env.Node(w.node)
	grant := gwc.GrantValue(w.node)
	switch w.state {
	case wIdle:
		if w.stopped {
			w.state = wDone
			return nil
		}
		v, err := n.LockValue(simGroup, simLock)
		if err != nil {
			return err
		}
		if v != gwc.Free {
			// The engine's filter would take the regular path here; the
			// scenario only exercises speculation, so just wait.
			return nil
		}
		// Arm the interrupt before the first speculative write, exactly
		// as core.speculate does: if the lock goes to another node, the
		// hook suspends insharing atomically with the observation.
		rolled := new(atomic.Bool)
		unreg, err := n.OnLockChange(simGroup, simLock, func(v int64) gwc.HookAction {
			if rolled.Load() {
				return gwc.HookNone
			}
			if v != gwc.Free && v != grant {
				rolled.Store(true)
				return gwc.HookSuspend
			}
			return gwc.HookNone
		})
		if err != nil {
			return err
		}
		w.rolled, w.unreg = rolled, unreg
		if err := n.SendLockRequest(simGroup, simLock); err != nil {
			return err
		}
		t, _ := n.Read(simGroup, simCounter)
		st, _ := n.Read(simGroup, stampVar(w.node))
		w.saved = []gwc.Saved{{Var: simCounter, Old: t}, {Var: stampVar(w.node), Old: st}}
		n.Write(simGroup, simCounter, t+1)
		n.Write(simGroup, stampVar(w.node), t+1)
		w.from = t
		w.state = wWaiting
		w.polls = 0
	case wWaiting:
		if w.rolled.Load() {
			// Rollback: both guarded writes of this section reached the
			// root while the rival held the lock, so the root suppressed
			// exactly two updates — the invariant the scenario checks.
			w.unreg()
			if err := n.RestoreLocal(simGroup, w.saved); err != nil {
				return err
			}
			if err := n.ResumeInsharing(simGroup); err != nil {
				return err
			}
			// An already-granted race is fine: cancelling a held lock
			// auto-releases it.
			n.CancelLockRequest(simGroup, simLock)
			w.aborted++
			w.state = wIdle
			if w.stopped {
				w.state = wDone
			}
			return nil
		}
		v, _ := n.LockValue(simGroup, simLock)
		if v != grant {
			return nil
		}
		// Commit: the grant reached this node with no other holder in
		// between, so FIFO ordering guarantees the root accepted both
		// speculative writes before processing this release.
		w.unreg()
		if err := n.Release(simGroup, simLock); err != nil {
			return err
		}
		w.state = wObserving
		w.polls = 0
	case wObserving:
		seen := 0
		for _, o := range w.obs {
			v, _ := w.env.Node(o).Read(simGroup, stampVar(w.node))
			if v >= w.from+1 {
				seen++
			}
		}
		if seen >= w.minObs {
			w.checker.Acked(w.from)
			w.acked++
			w.state = wIdle
			if w.stopped {
				w.state = wDone
			}
			return nil
		}
		w.polls++
		if w.polls >= observeFor {
			// Fault-free run: a committed section must become visible.
			var vals []string
			for _, o := range w.obs {
				v, _ := w.env.Node(o).Read(simGroup, stampVar(w.node))
				vals = append(vals, fmt.Sprintf("node%d=%d", o, v))
			}
			return fmt.Errorf("spec worker %d: committed section from=%d never observed (%s)",
				w.node, w.from, strings.Join(vals, " "))
		}
	}
	return nil
}

// SpeculationSuppression: 3 nodes, no faults; two workers speculate on
// the same guarded counter, so most rounds produce one commit and one
// rollback. Afterwards three independent accountings of the same aborts
// must agree: the root's EvSuppressed trace events (exactly two per
// rolled-back section, every one tagged with a valid reason), the
// root's mutex-guarded Suppressed counter, and the acknowledged history
// the CounterChecker linearizes against the converged counter.
func SpeculationSuppression() Scenario {
	return Scenario{
		Name:  "speculation-suppression",
		Nodes: 3,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				history: 64,
				guards:  guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			ws := []*specWorker{
				{env: e, node: 1, obs: []int{0, 2}, minObs: 2, checker: checker},
				{env: e, node: 2, obs: []int{0, 1}, minObs: 2, checker: checker},
			}
			aborts := func() int { return ws[0].aborted + ws[1].aborted }
			acks := func() int { return ws[0].acked + ws[1].acked }
			driveSpec := func(budget int, what string, pred func() bool) error {
				for i := 0; i < budget; i++ {
					e.w.waitQuiesce()
					for _, w := range ws {
						if err := w.poll(); err != nil {
							return err
						}
					}
					if pred() {
						return nil
					}
					if err := e.Step(); err != nil {
						return fmt.Errorf("waiting for %s: %w", what, err)
					}
				}
				return fmt.Errorf("%s not reached within %d events (acked=%d aborted=%d)",
					what, budget, acks(), aborts())
			}
			if err := driveSpec(120000, "commits and rollbacks", func() bool {
				return acks() >= 4 && aborts() >= 2
			}); err != nil {
				return err
			}
			for _, w := range ws {
				w.stopped = true
			}
			var final int64
			if err := driveSpec(80000, "cluster convergence", func() bool {
				for _, w := range ws {
					if w.state != wDone {
						return false
					}
				}
				// The last worker's cancel (and the root's answer to it)
				// may still be in flight when the counters already agree;
				// the suppression accounting below counts message side
				// effects, so drain the network before checking it.
				if e.Inflight() > 0 {
					return false
				}
				v0, _ := e.Node(0).Read(simGroup, simCounter)
				for _, i := range []int{1, 2} {
					v, _ := e.Node(i).Read(simGroup, simCounter)
					if v != v0 {
						return false
					}
				}
				final = v0
				return true
			}); err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("speculative history (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}

			// Abort accounting. Every rolled-back section wrote exactly two
			// guarded variables (counter + stamp) while another node held
			// the lock, and a committed section's writes are all accepted,
			// so the root's suppression events must number exactly 2*aborts.
			root := e.Node(0)
			suppressed := int(root.Metrics().Trace.Count(obs.EvSuppressed))
			if suppressed != 2*aborts() {
				return fmt.Errorf("root suppressed %d guarded writes, want exactly 2 per rollback (%d rollbacks)",
					suppressed, aborts())
			}
			if got := root.Stats().Suppressed; got != suppressed {
				return fmt.Errorf("trace counted %d suppressions but Stats says %d", suppressed, got)
			}
			for _, ev := range root.Metrics().Trace.Snapshot() {
				if ev.Type == obs.EvSuppressed && ev.B != obs.ReasonNotHolder && ev.B != obs.ReasonStaleGrant {
					return fmt.Errorf("suppressed write with invalid reason: %v", ev)
				}
			}
			return nil
		},
	}
}
