package detsim

import (
	"fmt"

	"optsync/internal/model"
	"optsync/internal/obs"
)

// Session-lock scenarios: group mutual exclusion under the
// deterministic scheduler. A reader is a worker with a session
// (scenarios.go): it enters through Request and polls SessionState, like
// every other driver.

// simReadSession is the shared session the scenario readers churn
// through; the writers use session 0 (exclusive).
const simReadSession uint32 = 1

// SessionFairnessChurn: 4 nodes; two readers churn overlapping entries
// in the shared session — a stream that would hold the session open
// forever if same-session joins were always admitted — while an
// exclusive writer increments the guarded counter through the stream.
// The writer must keep completing sections (fairness: once it queues,
// new reader joins queue behind it), at least two readers must be
// observed holding concurrently (the root's holder gauge), and the
// acknowledged history must linearize.
func SessionFairnessChurn() Scenario {
	return Scenario{
		Name:  "session-fairness-churn",
		Nodes: 4,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				history: 64,
				guards:  guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			w := &worker{env: e, node: 3, obs: []int{0, 1}, minObs: 2, checker: checker}
			rs := []*worker{
				{env: e, node: 1, session: simReadSession},
				{env: e, node: 2, session: simReadSession},
			}
			// Readers are polled before the writer at every event.
			all := []*worker{rs[0], rs[1], w}
			// Let the reader churn establish itself before the writer
			// contends, a seed-chosen head start.
			if err := drive(e, all, 400+e.Rand().Intn(400), "reader churn to start", func() bool {
				return rs[0].acked >= 1 && rs[1].acked >= 1
			}); err != nil {
				return err
			}
			// The writer must achieve acknowledged increments through the
			// churn: every section is proof it was not starved.
			if err := drive(e, all, 120000, "writer sections through reader churn", func() bool {
				return w.acked >= 3
			}); err != nil {
				return fmt.Errorf("writer starved by same-session reader churn: %w", err)
			}
			for _, r := range rs {
				r.stop()
			}
			if err := drive(e, all, 40000, "readers wound down", func() bool {
				return rs[0].done() && rs[1].done()
			}); err != nil {
				return err
			}
			final, err := windDown(e, []*worker{w}, []int{0, 1, 2, 3})
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after session churn (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			// The scenario is vacuous unless concurrent entering actually
			// happened: the root must have admitted a join into the open
			// session at least once.
			if max := e.Node(0).Metrics().Gauge(obs.GaugeSessHolders).Max(); max < 2 {
				return fmt.Errorf("holder gauge max = %d, want >= 2 (no concurrent entering)", max)
			}
			if j := e.Node(0).Stats().SessionJoins; j == 0 {
				return fmt.Errorf("no same-session join was admitted (readers never overlapped)")
			}
			return nil
		},
	}
}

// SessionFailoverMultiHolder: 4 nodes; two readers enter the shared
// session and hold their entries across a root crash. The elected
// successor must reconstruct the multi-holder state from member reports
// (both entries intact — no lost holder, no double grant), the holders
// must be able to finish their sections against the new root, and an
// exclusive writer queued behind them must then enter and its
// increments linearize.
func SessionFailoverMultiHolder() Scenario {
	return Scenario{
		Name:  "session-failover-multi-holder",
		Nodes: 4,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				history: 128,
				guards:  guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			w := &worker{env: e, node: 3, obs: []int{1, 2}, minObs: 2, checker: checker}
			ws := []*worker{w}
			// Both readers enter the shared session and hold.
			for _, id := range []int{1, 2} {
				if _, err := request(e.Node(id), simReadSession); err != nil {
					return err
				}
			}
			bothHold := func() bool {
				for _, id := range []int{1, 2} {
					si, _ := e.Node(id).SessionState(simGroup, simLock)
					if !si.Mine || si.Session != simReadSession {
						return false
					}
				}
				return true
			}
			if err := drive(e, nil, 60000, "both readers to hold entries", bothHold); err != nil {
				return err
			}
			// A seed-chosen pause with the session open, then the root dies.
			if err := drive(e, nil, e.Rand().Intn(300), "the crash point", nil); err != nil {
				return err
			}
			e.Crash(0)
			if err := drive(e, nil, 120000, "failover to a surviving member", func() bool {
				for _, id := range []int{1, 2, 3} {
					if e.Node(id).Stats().Failovers >= 1 {
						return true
					}
				}
				return false
			}); err != nil {
				return err
			}
			// The re-based members must still hold their entries: the new
			// root reconstructed the multi-holder session from reports.
			if err := drive(e, nil, 40000, "holders to survive the re-base", bothHold); err != nil {
				return err
			}
			// The writer queues behind the open session against the new
			// root; the holders then finish, and the writer must enter.
			if err := w.poll(); err != nil { // sends the exclusive request (wIdle -> wWaiting)
				return err
			}
			for _, id := range []int{1, 2} {
				if err := e.Node(id).Release(simGroup, simLock); err != nil {
					return fmt.Errorf("holder %d could not leave after failover: %w", id, err)
				}
			}
			if err := drive(e, ws, 120000, "writer sections after the handoff", func() bool {
				return w.acked >= 2
			}); err != nil {
				return err
			}
			final, err := windDown(e, ws, []int{1, 2, 3})
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after multi-holder failover (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			return nil
		},
	}
}
