package detsim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"optsync/internal/gwc"
	"optsync/internal/wire"
)

// Scenario is one fault script run against a fresh cluster per seed.
// Run drives the cluster through Env: it configures and joins the
// nodes, advances the world event by event, injects faults, and returns
// an error when an invariant breaks. Everything Run does must be a pure
// function of the Env it is given — no wall clock, no external
// randomness — or the seed stops being a replay key.
type Scenario struct {
	Name  string
	Nodes int
	Opts  Options
	Run   func(e *Env) error
}

// Result is one seeded run's outcome.
type Result struct {
	Name  string
	Seed  int64
	Err   error
	Steps int
	Trace []Event
	// Stats is every node's protocol counters once the run has ended and
	// its nodes have closed.
	Stats []gwc.Stats
}

// Failed reports whether the run broke an invariant.
func (r Result) Failed() bool { return r.Err != nil }

// DumpTail formats the last n trace events for a failure report.
func (r Result) DumpTail(n int) string {
	t := r.Trace
	if len(t) > n {
		t = t[len(t)-n:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed %d: %d events, tail:\n", r.Name, r.Seed, r.Steps)
	for _, e := range t {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Env is the scenario's handle on a running simulation: the nodes, the
// stepping controls, and the fault injectors. All methods must be
// called from the scenario goroutine. Step and Until run their events
// from a quiesced world, and the fault injectors wait for the world to
// come to rest before they touch it: an event's aftermath (a tick still
// sending, say) always completes before the fault lands, so where a
// fault falls in the schedule never depends on goroutine timing.
type Env struct {
	Seed  int64
	w     *World
	nodes []*gwc.Node
	// inv, when a scenario sets it, is checked at every quiescent point
	// drive visits. pump, when set, is the scenario's background load: drive
	// runs it at each of those points with the point's index in the call.
	inv  func() error
	pump func(i int)
}

// Node returns node i's live gwc handle.
func (e *Env) Node(i int) *gwc.Node { return e.nodes[i] }

// Nodes reports the cluster size.
func (e *Env) Nodes() int { return len(e.nodes) }

// Rand is the run's seeded random stream — the same one the scheduler
// draws from, so scenario-level choices replay with the schedule.
func (e *Env) Rand() *rand.Rand { return e.w.rng }

// Now reports elapsed virtual time.
func (e *Env) Now() time.Duration {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	return e.w.elapsedLocked()
}

// Steps reports scheduler events run so far.
func (e *Env) Steps() int { return e.w.Steps() }

// Inflight reports how many messages sit undelivered on the simulated
// links. Quiescence only means every goroutine is parked — traffic can
// still be queued — so scenarios whose final assertions count message
// side effects (e.g. the root's suppression trace) must keep stepping
// until the network is drained too, or they race the tail of the run.
func (e *Env) Inflight() int { return e.w.Inflight() }

// Step waits for the cluster to quiesce, then runs exactly one
// scheduler event. It fails on a dead world or once the run's event
// budget is spent (a livelock: the protocol is cycling without the
// scenario's predicates ever holding).
func (e *Env) Step() error {
	w := e.w
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.quiescedLocked() {
		w.cond.Wait()
	}
	if w.steps >= w.opts.MaxEvents {
		return fmt.Errorf("detsim: event budget %d exhausted (livelock?)", w.opts.MaxEvents)
	}
	return w.stepLocked()
}

// Until steps the world until pred holds (checked at quiescence) or max
// events pass, whichever first; `what` names the condition in the
// failure. Predicates read node state through the public gwc API —
// at quiescence nothing else is running, so reads are consistent.
func (e *Env) Until(max int, what string, pred func() bool) error {
	e.w.waitQuiesce()
	for i := 0; i < max; i++ {
		if pred() {
			return nil
		}
		if err := e.Step(); err != nil {
			return fmt.Errorf("detsim: waiting for %s: %w", what, err)
		}
	}
	e.w.waitQuiesce()
	if pred() {
		return nil
	}
	return fmt.Errorf("detsim: %s not reached within %d events", what, max)
}

// Crash isolates a node: every link to and from it is severed at send
// time, but messages already in flight still land and the node's
// goroutines keep running blind — the same semantics as the wall-clock
// chaos harness, and the model for a machine that lost its network.
func (e *Env) Crash(i int) {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	e.w.crashed[i] = true
	e.w.record(Event{Kind: EFault, From: i, To: -1, Note: fmt.Sprintf("crash node %d", i)})
}

// Revive reconnects a crashed node. Its protocol state is whatever it
// drifted to while isolated; scenarios model a true restart by calling
// Rejoin on it afterwards.
func (e *Env) Revive(i int) {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	e.w.crashed[i] = false
	e.w.record(Event{Kind: EFault, From: i, To: -1, Note: fmt.Sprintf("revive node %d", i)})
}

// Partition severs every link between side a and side b, both
// directions. Links within each side stay up.
func (e *Env) Partition(a, b []int) {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			e.w.cuts[[2]int{x, y}] = true
			e.w.cuts[[2]int{y, x}] = true
		}
	}
	e.w.record(Event{Kind: EFault, From: -1, To: -1, Note: fmt.Sprintf("partition %v | %v", a, b)})
}

// Heal removes every partition cut (crashed nodes stay crashed).
func (e *Env) Heal() {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	clear(e.w.cuts)
	e.w.record(Event{Kind: EFault, From: -1, To: -1, Note: "heal"})
}

// SetLoss changes the drop/duplicate probabilities mid-run (bounded by
// the run's MaxDrops/MaxDups regardless).
func (e *Env) SetLoss(drop, dup float64) {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	e.w.drop, e.w.dup = drop, dup
	e.w.record(Event{Kind: EFault, From: -1, To: -1, Note: fmt.Sprintf("loss drop=%.2f dup=%.2f", drop, dup)})
}

// Inject forges a message onto the from->to link, bypassing crash and
// partition cuts — the tool for Byzantine-flavored violation scenarios
// (a corrupted grant, a replayed frame) that prove the harness and the
// checkers actually catch protocol violations.
func (e *Env) Inject(from, to int, m wire.Message) {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	e.w.links[from*e.w.n+to] = append(e.w.links[from*e.w.n+to], m)
	e.w.record(Event{Kind: EInject, From: from, To: to, Type: m.Type, Seq: m.Seq,
		Note: fmt.Sprintf("inject %v %d->%d", m.Type, from, to)})
}

// ReplaceInFlight runs f over every message currently queued on the
// from->to link; f mutates in place and reports whether it changed the
// message. Returns how many it changed.
func (e *Env) ReplaceInFlight(from, to int, f func(m *wire.Message) bool) int {
	e.w.lockAtRest()
	defer e.w.mu.Unlock()
	q := e.w.links[from*e.w.n+to]
	changed := 0
	for i := range q {
		if f(&q[i]) {
			changed++
		}
	}
	if changed > 0 {
		e.w.record(Event{Kind: EInject, From: from, To: to,
			Note: fmt.Sprintf("rewrote %d in-flight %d->%d", changed, from, to)})
	}
	return changed
}

// RunSeed executes one scenario under one seed and returns its outcome
// with the full event trace. Node construction order is part of the
// deterministic state (it fixes timer creation order), so nodes are
// always built 0..N-1 before the scenario script runs.
func RunSeed(sc Scenario, seed int64) Result {
	w := NewWorld(sc.Nodes, seed, sc.Opts)
	env := &Env{Seed: seed, w: w, nodes: make([]*gwc.Node, sc.Nodes)}
	for i := range env.nodes {
		ep, err := w.Endpoint(i)
		if err != nil {
			return Result{Name: sc.Name, Seed: seed, Err: err}
		}
		env.nodes[i] = gwc.NewNodeClock(i, ep, w.Clock())
	}
	err := sc.Run(env)
	stats := make([]gwc.Stats, len(env.nodes))
	for i, n := range env.nodes {
		n.Close()
		stats[i] = n.Stats()
	}
	w.Close()
	return Result{Name: sc.Name, Seed: seed, Err: err, Steps: w.Steps(), Trace: w.Trace(), Stats: stats}
}

// Explore runs a scenario across seeds base..base+n-1 and returns the
// failing results. Any failure replays bit-identically with
// RunSeed(sc, failure.Seed).
func Explore(sc Scenario, base int64, n int) []Result {
	var failures []Result
	for s := int64(0); s < int64(n); s++ {
		r := RunSeed(sc, base+s)
		if r.Failed() {
			failures = append(failures, r)
		}
	}
	return failures
}
