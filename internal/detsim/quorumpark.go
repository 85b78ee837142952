package detsim

import (
	"fmt"

	"optsync/internal/model"
	"optsync/internal/obs"
)

// QuorumParkRegression pins the quorum-parking fix in root.go: under
// SetQuorumAcks, a lock request that arrives while the previous
// holder's data is not yet quorum-held parks behind the commit
// watermark. Before the fix the lock sat holderless across the park, so
// a clean speculation issued in that window — request and guarded
// writes on the same FIFO link, with no rival grant ever intervening —
// had its writes suppressed `not-holder` while the speculator later
// received a clean grant and committed, believing the writes landed:
// silent data loss in exactly the configuration quorum acks exist to
// protect. The fix designates the parked winner immediately (holder,
// token, epoch) and defers only the grant multicast, so the clean
// speculation's writes are sequenced and the handoff still waits for
// the watermark.
//
// The schedule is forced, not found: nodes 2 and 3 go dark at the
// start, so with quorum 3 the commit watermark can never pass the first
// section's release until they return. The lone live worker on node 1
// commits one section (its first acquisition has needSeq 0 and grants
// immediately), then speculates again the moment its local lock copy
// shows Free — landing its request and writes squarely in the park
// window. Reviving 2 and 3 lets their catch-up acks advance the
// watermark and release the parked handoff; the worker then commits and
// must observe its stamp at the root. Before the fix the stamp write
// was suppressed and the observation times out ("committed section
// never observed"); the suppression cross-check (exactly 2 suppressed
// writes per rollback) independently catches the same loss.
func QuorumParkRegression() Scenario {
	return Scenario{
		Name:  "quorum-park-regression",
		Nodes: 4,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				quorumAcks: true,
				history:    256,
				guards:     guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			// Dark from the first event: with only node 1 acking, commit =
			// 2nd-highest member ack = 0 for as long as they stay down.
			e.Crash(2)
			e.Crash(3)
			checker := model.NewCounterChecker()
			w := &worker{env: e, node: 1, spec: true, obs: []int{0}, minObs: 1, checker: checker}
			ws := []*worker{w}
			root := e.Node(0)
			// Section 1 commits against needSeq 0 and is observed at the
			// root (the only live observer).
			if err := drive(e, ws, 60000, "first committed section", func() bool {
				return w.acked >= 1
			}); err != nil {
				return err
			}
			// Section 2's request must park behind the watermark, and its
			// speculative writes must have reached the root (drained links),
			// where they are sequenced (fixed) or suppressed (regression).
			if err := drive(e, ws, 60000, "second acquisition parked behind the watermark", func() bool {
				return root.Stats().QuorumAckWaits >= 1 && e.Inflight() == 0
			}); err != nil {
				return err
			}
			// The watermark can now advance: the revived members repair
			// their gap and their catch-up acks complete the quorum.
			e.Revive(2)
			e.Revive(3)
			if err := drive(e, ws, 120000, "parked handoff granted and section observed", func() bool {
				return w.acked >= 2
			}); err != nil {
				return err
			}
			final, err := windDown(e, ws, []int{0, 1, 2, 3})
			if err != nil {
				return err
			}
			if err := drive(e, ws, 80000, "network drain", func() bool {
				return e.Inflight() == 0
			}); err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("quorum-park history (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() < 2 {
				return fmt.Errorf("only %d increments acknowledged; the park window was never exercised", checker.Len())
			}
			if qw := root.Stats().QuorumAckWaits; qw < 1 {
				return fmt.Errorf("no handoff ever parked behind the watermark (QuorumAckWaits=%d); vacuous run", qw)
			}
			// The clean speculation never rolled back, so nothing may have
			// been suppressed: every suppression must pair with a rollback.
			suppressed := int(root.Metrics().Trace.Count(obs.EvSuppressed))
			if suppressed != 2*w.aborted {
				return fmt.Errorf("root suppressed %d guarded writes with %d rollbacks, want exactly 2 per rollback",
					suppressed, w.aborted)
			}
			return nil
		},
	}
}
