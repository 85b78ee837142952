package detsim

import (
	"fmt"
	"strings"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/model"
)

// Scenario scripts for the exploration corpus. Each wires a fresh
// cluster, drives a counter workload through the live gwc stack, injects
// a fault at a seed-chosen moment, and checks the acknowledged history
// against internal/model's linearizability checker after the dust
// settles.
//
// The scripts only use the non-blocking half of the gwc API
// (SendLockRequest / LockValue / Read / Write / Release): a blocking call
// would park the scenario goroutine on protocol progress that only the
// scenario itself can schedule. Workers are therefore explicit state
// machines, polled once per scheduler event at quiescence.

const (
	simGroup   gwc.GroupID = 1
	simLock    gwc.LockID  = 1
	simCounter gwc.VarID   = 1
	// Per-worker stamp variables: stampVar(w) is written only by worker
	// w, inside the same critical section as the counter, which makes the
	// worker's increments attributable (see worker.poll).
	simStampBase gwc.VarID = 100
	// Unguarded per-node stream variables for background load.
	simStreamBase gwc.VarID = 200
)

func stampVar(node int) gwc.VarID { return simStampBase + gwc.VarID(node) }

// simTimers are the virtual-time protocol timers every scenario uses
// unless it overrides them: a 2ms maintenance tick, and a failure
// deadline comfortably past the 50ms the constructor arms the first
// tick at (otherwise every member would suspect the root before the
// first heartbeat could possibly have been sent).
const (
	simRetry     = 2 * time.Millisecond
	simFailAfter = 80 * time.Millisecond
	simElectWait = 20 * time.Millisecond
)

// clusterCfg is the shared scenario setup.
type clusterCfg struct {
	quorumAcks bool
	batch      bool
	history    int
	guards     map[gwc.VarID]gwc.LockID
	electWait  time.Duration
	leases     time.Duration // lock-lease TTL; zero leaves leasing off
}

func setup(e *Env, c clusterCfg) (gwc.GroupConfig, error) {
	members := make([]int, e.Nodes())
	for i := range members {
		members[i] = i
	}
	cfg := gwc.GroupConfig{
		ID:          simGroup,
		Root:        0,
		Members:     members,
		Guards:      c.guards,
		HistorySize: c.history,
	}
	ew := c.electWait
	if ew == 0 {
		ew = simElectWait
	}
	for i := 0; i < e.Nodes(); i++ {
		n := e.Node(i)
		n.SetTimers(simRetry, simFailAfter, ew)
		n.SetQuorumAcks(c.quorumAcks)
		if c.batch {
			n.SetBatching(3*time.Millisecond, 8)
		}
		if c.leases > 0 {
			n.SetLeases(c.leases)
		}
		// Event tracing is pure bookkeeping (atomics into a per-node
		// ring, stamped with virtual time), so it cannot perturb the
		// schedule; scenarios assert on the captured events.
		n.Metrics().Trace.Enable(0)
		if err := n.Join(cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// guardedCfg guards the counter and every worker's stamp variable with
// the one lock, so the root suppresses writes from stale sections.
func guardedCfg(nodes int) map[gwc.VarID]gwc.LockID {
	g := map[gwc.VarID]gwc.LockID{simCounter: simLock}
	for i := 0; i < nodes; i++ {
		g[stampVar(i)] = simLock
	}
	return g
}

// worker runs lock-guarded counter increments as a polled state
// machine. One completed operation: acquire the lock, read the counter
// t, write t+1 to the counter and to this worker's private stamp
// variable, release — then wait to OBSERVE the stamp at enough other
// nodes before acknowledging the increment to the checker.
//
// The observation rule is what makes acknowledgements sound. The stamp
// variable has a single writer, so stamp==t+1 applied at another node
// proves this worker's write was sequenced and reached that node; the
// counter alone could not tell this worker's t+1 from a double-granted
// rival's. Requiring it at minObs of the scenario's stable nodes —
// nodes the script never crashes or rejoins, minObs chosen so any
// election majority must include one — makes the write durable across
// every failover the scenario can cause. An increment that is never
// observed in time is abandoned, about which the checker claims
// nothing.
//
// Before shipping a lock request the worker probes TryLeaseEnter — the
// exact sequence AcquireContext runs — so a live lease turns the acquire
// into a local decision with zero frames (without a lease the probe is a
// no-op). Under leasing the probe is mandatory, not an optimisation: a
// leased idle holder's lock copy still reads as self-granted, so a
// worker that only polled LockValue would walk into the section without
// pinning the lease, and a concurrent revoke could pull the lock out
// from under it mid-section.
//
// A worker with a non-zero session is a reader instead: it churns
// through that shared session — request an entry, hold it
// readerHoldPolls, leave, repeat — writes nothing, and so has nothing to
// observe: its obligations are liveness (each cycle completes) and
// honesty (it never touches the guarded counter). acked counts its
// entries.
type worker struct {
	env     *Env
	node    int
	session uint32
	obs     []int // stable observer nodes (never this worker)
	minObs  int
	hold    int // how long the section stays open; see the hold values
	checker *model.CounterChecker

	state   wState
	stopped bool
	from    int64 // counter value read in the current section
	polls   int   // polls spent in the current state
	acked   int
	aborted int
}

// A worker's hold is how long its section stays open past the poll that
// found the lock. holdNone (the zero value): not at all — the eager
// writes and the release all hit the wire in one quiescent instant,
// before the scheduler runs another event. holdPoll: until the next
// poll. n > 0: a confirmed section — until the root has applied this
// worker's stamp, then n more polls so the sequenced echoes drain back,
// the precondition for a direct peer handoff; it reads the root's copy
// directly, so it is only valid in runs that never crash node 0.
const (
	holdNone = 0
	holdPoll = -1
)

type wState int

const (
	wIdle wState = iota
	wWaiting
	wObserving
	wDone
	wHolding // between grant and release
)

const (
	observeFor      = 6000 // observing polls before abandoning the op
	readerHoldPolls = 40   // polls a reader holds its entry before leaving
)

// stop makes the worker wind down: no new sections; a pending request
// is cancelled; a pending observation runs to ack or abandonment.
func (w *worker) stop() {
	w.stopped = true
	if w.state == wWaiting {
		w.env.Node(w.node).CancelLockRequest(simGroup, simLock)
		w.state = wDone
	}
	if w.state == wIdle {
		w.state = wDone
	}
}

func (w *worker) done() bool { return w.state == wDone }

// enter runs the critical-section writes; the caller already holds the
// lock (granted or leased).
func (w *worker) enter() {
	w.state = wHolding
	w.polls = 0
	if w.session != 0 {
		w.acked++
		return
	}
	n := w.env.Node(w.node)
	t, _ := n.Read(simGroup, simCounter)
	n.Write(simGroup, simCounter, t+1)
	n.Write(simGroup, stampVar(w.node), t+1)
	w.from = t
	if w.hold == holdNone {
		w.leave()
	}
}

// leave releases the lock and starts watching for the stamp.
func (w *worker) leave() {
	if err := w.env.Node(w.node).Release(simGroup, simLock); err != nil {
		w.aborted++
		w.state = wIdle
		return
	}
	if w.session != 0 { // a reader wrote nothing to observe
		w.state = wIdle
		if w.stopped {
			w.state = wDone
		}
		return
	}
	w.state = wObserving
	w.polls = 0
}

// inside reports whether the worker's node is in the lock, in the
// worker's session.
func (w *worker) inside() bool {
	n := w.env.Node(w.node)
	if w.session == 0 {
		v, _ := n.LockValue(simGroup, simLock)
		return v == gwc.GrantValue(w.node)
	}
	si, _ := n.SessionState(simGroup, simLock)
	return si.Mine && si.Session == w.session
}

// poll advances the state machine one notch. Called only at quiescence,
// so every read is a stable protocol state and every send lands in a
// deterministic order.
func (w *worker) poll() {
	n := w.env.Node(w.node)
	switch w.state {
	case wIdle:
		if w.stopped {
			w.state = wDone
			return
		}
		if n.TryLeaseEnter(simGroup, simLock) {
			w.enter() // leased: straight into the section, zero frames
			return
		}
		n.SendSessionRequest(simGroup, simLock, w.session)
		w.state = wWaiting
		w.polls = 0
	case wWaiting:
		if !w.inside() {
			// The request (or its grant) may be sitting in a dead root's
			// mailbox; the node's maintenance tick re-registers it with
			// whatever root the member currently follows.
			return
		}
		w.enter()
	case wHolding:
		if w.session != 0 {
			w.polls++
			if w.polls < readerHoldPolls && !w.stopped {
				return
			}
		} else if w.hold > 0 {
			if v, _ := w.env.Node(0).Read(simGroup, stampVar(w.node)); v < w.from+1 {
				return
			}
			w.polls++
			if w.polls < w.hold {
				return
			}
		}
		w.leave()
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
			return
		}
		w.polls++
		if w.polls >= observeFor {
			// Never confirmed; the op may or may not have committed, and
			// the checker hears nothing about it.
			w.aborted++
			w.state = wIdle
			if w.stopped {
				w.state = wDone
			}
		}
	}
}

// drive steps the world until pred holds, polling the workers once per
// event so the workload advances with the schedule, and checking the
// scenario's invariant (Env.inv), if it set one, at every quiescent
// point before the predicate.
func drive(e *Env, ws []*worker, budget int, what string, pred func() bool) error {
	for i := 0; ; i++ {
		e.w.waitQuiesce()
		for _, w := range ws {
			w.poll()
		}
		if e.inv != nil {
			if err := e.inv(); err != nil {
				return err
			}
		}
		if pred() {
			return nil
		}
		if i == budget {
			return fmt.Errorf("%s not reached within %d events", what, budget)
		}
		if err := e.Step(); err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
	}
}

// windDown stops the workers, lets pending observations resolve, and
// waits for every node to agree on the counter. Returns the converged
// final value.
func windDown(e *Env, ws []*worker, alive []int) (int64, error) {
	for _, w := range ws {
		w.stop()
	}
	var final int64
	err := drive(e, ws, 160000, "cluster convergence", func() bool {
		for _, w := range ws {
			if !w.done() {
				return false
			}
		}
		v0, _ := e.Node(alive[0]).Read(simGroup, simCounter)
		for _, i := range alive[1:] {
			v, _ := e.Node(i).Read(simGroup, simCounter)
			if v != v0 {
				return false
			}
		}
		final = v0
		return true
	})
	if err != nil {
		var state []string
		for _, i := range alive {
			v, _ := e.Node(i).Read(simGroup, simCounter)
			s := e.Node(i).Stats()
			state = append(state, fmt.Sprintf(
				"node %d: ctr=%d failovers=%d elections=%d rejoins=%d fenced=%d leases=%d/%d/%d local=%d handoffs=%d/%d",
				i, v, s.Failovers, s.Elections, s.Rejoins, s.Fenced,
				s.LeaseGrants, s.LeaseReturns, s.LeaseRevokes,
				s.LeaseLocal, s.Handoffs, s.HandoffCommits))
		}
		for _, w := range ws {
			state = append(state, fmt.Sprintf("worker %d: state=%d acked=%d aborted=%d", w.node, w.state, w.acked, w.aborted))
		}
		err = fmt.Errorf("%w\n  %s", err, strings.Join(state, "\n  "))
	}
	return final, err
}

// totalAcked sums acknowledged increments across workers.
func totalAcked(ws []*worker) int {
	n := 0
	for _, w := range ws {
		n += w.acked
	}
	return n
}

// RootCrashMidBatch: 4 nodes with write coalescing and quorum acks on,
// three workers incrementing a guarded counter; the root crashes at a
// seed-chosen moment mid-workload, the survivors fail over, the old
// root revives into the successor's reign, and the acknowledged history
// must still linearize against the converged counter.
func RootCrashMidBatch() Scenario {
	return Scenario{
		Name:  "root-crash-mid-batch",
		Nodes: 4,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				quorumAcks: true,
				batch:      true,
				history:    64,
				guards:     guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			stable := map[int][]int{1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
			var ws []*worker
			for _, id := range []int{1, 2, 3} {
				ws = append(ws, &worker{env: e, node: id, obs: stable[id], minObs: 2, checker: checker})
			}
			if err := drive(e, ws, 60000, "first acknowledged increments", func() bool {
				return totalAcked(ws) >= 2
			}); err != nil {
				return err
			}
			// Crash the root a seed-chosen distance into the workload so
			// different seeds catch it with different batches in flight.
			for i, k := 0, e.Rand().Intn(60); i < k; i++ {
				e.w.waitQuiesce()
				for _, w := range ws {
					w.poll()
				}
				if err := e.Step(); err != nil {
					return err
				}
			}
			e.Crash(0)
			if err := drive(e, ws, 80000, "failover to a surviving member", func() bool {
				for _, id := range []int{1, 2, 3} {
					if e.Node(id).Stats().Failovers >= 1 {
						return true
					}
				}
				return false
			}); err != nil {
				return err
			}
			e.Revive(0)
			if err := drive(e, ws, 60000, "post-failover increments", func() bool {
				return totalAcked(ws) >= 4
			}); err != nil {
				return err
			}
			final, err := windDown(e, ws, []int{0, 1, 2, 3})
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after root crash (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			batches := 0
			for i := 0; i < e.Nodes(); i++ {
				batches += e.Node(i).Stats().Batches
			}
			if batches == 0 {
				return fmt.Errorf("batching was configured but no batch frame was sent")
			}
			return nil
		},
	}
}

// PartitionDuringElection: 5 nodes; the root crashes, and while the
// survivors are mid-election the network splits 1|3 so that only the
// majority side can finish it. The minority member must never promote,
// and after heal the acknowledged history must linearize.
func PartitionDuringElection() Scenario {
	return Scenario{
		Name:  "partition-during-election",
		Nodes: 5,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				quorumAcks: true,
				history:    128,
				guards:     guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			stable := map[int][]int{1: {2, 3, 4}, 3: {1, 2, 4}}
			var ws []*worker
			for _, id := range []int{1, 3} {
				ws = append(ws, &worker{env: e, node: id, obs: stable[id], minObs: 3, checker: checker})
			}
			noMinorityPromotion := func() error {
				if f := e.Node(1).Stats().Failovers; f > 0 {
					return fmt.Errorf("minority node 1 promoted itself %d times without a quorum", f)
				}
				return nil
			}
			if err := drive(e, ws, 60000, "first acknowledged increments", func() bool {
				return totalAcked(ws) >= 1
			}); err != nil {
				return err
			}
			e.Crash(0)
			if err := drive(e, ws, 80000, "election to begin", func() bool {
				for _, id := range []int{1, 2, 3, 4} {
					if e.Node(id).Stats().Elections >= 1 {
						return true
					}
				}
				return false
			}); err != nil {
				return err
			}
			e.Partition([]int{1}, []int{2, 3, 4})
			if err := drive(e, ws, 120000, "majority-side failover", func() bool {
				for _, id := range []int{2, 3, 4} {
					if e.Node(id).Stats().Failovers >= 1 {
						return true
					}
				}
				return false
			}); err != nil {
				return err
			}
			if err := noMinorityPromotion(); err != nil {
				return err
			}
			e.Heal()
			e.Revive(0)
			if err := drive(e, ws, 80000, "post-heal increments", func() bool {
				return totalAcked(ws) >= 2
			}); err != nil {
				return err
			}
			if err := noMinorityPromotion(); err != nil {
				return err
			}
			final, err := windDown(e, ws, []int{0, 1, 2, 3, 4})
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after partitioned election (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			return nil
		},
	}
}

// RejoinUnderLoad: 4 nodes with batching; two workers on the guarded
// counter plus unguarded background streams from three nodes; node 3
// crashes at a seed-chosen point, revives with empty state, and rejoins
// while the load keeps flowing. It must catch back up to every stream
// and the history must linearize.
func RejoinUnderLoad() Scenario {
	return Scenario{
		Name:  "rejoin-under-load",
		Nodes: 4,
		Run: func(e *Env) error {
			if _, err := setup(e, clusterCfg{
				quorumAcks: true,
				batch:      true,
				history:    256,
				guards:     guardedCfg(e.Nodes()),
			}); err != nil {
				return err
			}
			checker := model.NewCounterChecker()
			// Node 3 is the crash/rejoin victim, so observers avoid it.
			stable := map[int][]int{1: {0, 2}, 2: {0, 1}}
			var ws []*worker
			for _, id := range []int{1, 2} {
				ws = append(ws, &worker{env: e, node: id, obs: stable[id], minObs: 2, checker: checker})
			}
			streams := []int{0, 1, 2}
			next := make([]int64, len(streams))
			pump := func() {
				for si, id := range streams {
					next[si]++
					e.Node(id).Write(simGroup, simStreamBase+gwc.VarID(si), next[si])
				}
			}
			run := func(budget int, what string, pred func() bool) error {
				for i := 0; i < budget; i++ {
					e.w.waitQuiesce()
					for _, w := range ws {
						w.poll()
					}
					if i%7 == 0 {
						pump()
					}
					if pred() {
						return nil
					}
					if err := e.Step(); err != nil {
						return fmt.Errorf("waiting for %s: %w", what, err)
					}
				}
				return fmt.Errorf("%s not reached within %d events", what, budget)
			}
			if err := run(60000, "first acknowledged increments", func() bool {
				return totalAcked(ws) >= 1
			}); err != nil {
				return err
			}
			e.Crash(3)
			// Keep the load flowing for a seed-chosen dark window.
			for i, k := 0, 2000+e.Rand().Intn(2000); i < k; i++ {
				e.w.waitQuiesce()
				for _, w := range ws {
					w.poll()
				}
				if i%7 == 0 {
					pump()
				}
				if err := e.Step(); err != nil {
					return err
				}
			}
			e.Revive(3)
			if err := e.Node(3).Rejoin(simGroup); err != nil {
				return err
			}
			if err := run(80000, "node 3 re-admission", func() bool {
				return e.Node(3).Stats().Rejoins >= 1
			}); err != nil {
				return err
			}
			if err := run(40000, "more increments after the rejoin", func() bool {
				return totalAcked(ws) >= 2
			}); err != nil {
				return err
			}
			// Stop the streams, then require the rejoined node to catch up
			// to every stream's final value.
			if err := drive(e, ws, 80000, "rejoined node stream catch-up", func() bool {
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
			final, err := windDown(e, ws, []int{0, 1, 2, 3})
			if err != nil {
				return err
			}
			if err := checker.Check(final); err != nil {
				return fmt.Errorf("after rejoin under load (final=%d, acked=%d): %w", final, checker.Len(), err)
			}
			if checker.Len() == 0 {
				return fmt.Errorf("no increment was ever acknowledged (vacuous run)")
			}
			batches := 0
			for i := 0; i < e.Nodes(); i++ {
				batches += e.Node(i).Stats().Batches
			}
			if batches == 0 {
				return fmt.Errorf("batching was configured but no batch frame was sent")
			}
			return nil
		},
	}
}
