package detsim

import (
	"fmt"

	"optsync/internal/model"
	"optsync/internal/obs"
)

// Speculative-execution scenario: the paper's optimistic path driven
// through the calls core.Engine makes, with its abort accounting
// cross-checked against the root's suppression events.
//
// core.Engine itself cannot run under the deterministic scheduler — its
// blocking waits run on goroutines the quiescence detector cannot see —
// so a speculating worker (worker.spec, scenarios.go) takes the engine's
// steps as a polled state machine: Speculate arms its interrupt and
// sends the request in one hold, the section runs at once with its
// prior values saved, the grant commits it, and a rival's entry fires
// the interrupt — the one gwc has, sawEntry — after which the worker
// restores the save set, resumes insharing and re-executes under its
// still-queued grant.

// SpeculationSuppression: 3 nodes, no faults; two workers speculate on
// the same guarded counter, so most rounds produce one commit and one
// rollback. Afterwards two independent accountings of the same aborts
// must agree: the root's suppression count (exactly two per rolled-back
// section, every traced one tagged with a valid reason) and the
// acknowledged history the CounterChecker linearizes against the
// converged counter.
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
			ws := []*worker{
				{env: e, node: 1, spec: true, obs: []int{0, 2}, minObs: 2, checker: checker},
				{env: e, node: 2, spec: true, obs: []int{0, 1}, minObs: 2, checker: checker},
			}
			aborts := func() int { return ws[0].aborted + ws[1].aborted }
			if err := drive(e, ws, 120000, "commits and rollbacks", func() bool {
				return totalAcked(ws) >= 4 && aborts() >= 2
			}); err != nil {
				return err
			}
			final, err := windDown(e, ws, []int{0, 1, 2})
			if err != nil {
				return err
			}
			// The last release, or the cancel of a rolled-back section the
			// stop withdrew, may still be in flight when the counters agree;
			// the suppression accounting below counts message side effects,
			// so drain the network before checking it.
			if err := drive(e, ws, 80000, "network drain", func() bool {
				return e.Inflight() == 0
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
			for _, ev := range root.Metrics().Trace.Snapshot() {
				if ev.Type == obs.EvSuppressed && ev.B != obs.ReasonNotHolder && ev.B != obs.ReasonStaleGrant {
					return fmt.Errorf("suppressed write with invalid reason: %v", ev)
				}
			}
			return nil
		},
	}
}
