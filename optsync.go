// Package optsync is a distributed-shared-memory library implementing
// optimistic lock synchronization under group write consistency, after
// Hermannsson & Wittie, "Optimistic Synchronization in Distributed Shared
// Memory" (ICDCS 1994).
//
// A Cluster hosts N nodes connected by an in-process or TCP transport.
// Variables live in sharing Groups: every write is applied locally at
// once (eagersharing) and sequenced by the group's root so all nodes
// observe the same total write order (group write consistency). The root
// doubles as the queue-based lock manager, and OptimisticDo runs critical
// sections speculatively while the lock request is still in flight,
// rolling back if another node wins the lock.
//
// Quickstart:
//
//	c, _ := optsync.NewCluster(4)
//	defer c.Close()
//	g, _ := c.NewGroup("accounts", 0)
//	m := g.Mutex("lock")
//	balance := g.Int("balance", m)
//
//	h := c.MustHandle(2) // code running "on" node 2
//	_ = h.OptimisticDo(m, func(tx *optsync.Tx) error {
//	    cur, _ := tx.Read(balance)
//	    return tx.Write(balance, cur+100)
//	})
//
// # Errors
//
// Failures are reported wrapped around the package's sentinel errors, so
// callers branch with errors.Is rather than string matching:
//
//	if errors.Is(err, optsync.ErrClosed) { ... }     // cluster or node shut down
//	if errors.Is(err, optsync.ErrNotMember) { ... }  // node outside the cluster or group
//	if errors.Is(err, optsync.ErrUnknownGroup) { ... } // group never joined on that node
//	if errors.Is(err, optsync.ErrUnknownVar) { ... } // variable from another group
package optsync

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"optsync/internal/core"
	"optsync/internal/gwc"
	"optsync/internal/transport"
)

// ErrNested is returned when a critical section re-enters its own lock
// (the paper's "Cannot safely nest mutex lock requests"), and when a
// second goroutine enters a lock its node is already inside or acquiring,
// on the regular path (Acquire, Do, SessionLock entries) as on the
// optimistic one: a lock has one holder per node, and sections of one
// node on one lock are the caller's to put in order.
var ErrNested = core.ErrNested

// Sentinel errors. Everything the package returns wraps one of these
// where applicable; match with errors.Is.
var (
	// ErrClosed marks operations that failed because the cluster or node
	// shut down.
	ErrClosed = gwc.ErrClosed
	// ErrNotMember marks operations addressing a node outside the cluster
	// or a group's member list.
	ErrNotMember = gwc.ErrNotMember
	// ErrUnknownGroup marks operations on a group the node never joined.
	ErrUnknownGroup = gwc.ErrUnknownGroup
	// ErrUnknownVar marks operations given a variable (or mutex) that
	// belongs to a different group than the operation targets.
	ErrUnknownVar = errors.New("unknown variable")
	// ErrTooStale marks degraded reads (Handle.ReadStale) whose local
	// copy's staleness bound exceeds what the caller tolerates.
	ErrTooStale = gwc.ErrTooStale
	// ErrDiverged marks degraded reads refused because an anti-entropy
	// digest comparison convicted the node's local copy (WithIntegrity):
	// a diverged copy may hold values that were never true at any time,
	// so no staleness bound makes it servable. It clears once the
	// corrective snapshot re-bases the copy.
	ErrDiverged = gwc.ErrDiverged
)

// options collects cluster construction settings.
type options struct {
	tcpAddrs   []string
	faults     *transport.FaultPlan
	history    core.Config
	histSize   int
	chaos      bool
	retryIn    time.Duration
	failAfter  time.Duration
	electWait  time.Duration
	batchDelay time.Duration
	batchMsgs  int
	quorumAcks bool
	maxStale   time.Duration
	boBase     time.Duration
	boCap      time.Duration
	wdBudget   time.Duration
	integrity  time.Duration
	leases     time.Duration

	traced      bool
	traceCap    int
	metricsAddr string
}

// Option configures NewCluster.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithTCP runs the cluster over a TCP mesh listening on the given
// addresses (one per node; ":0" picks free ports). The default is an
// in-process transport.
func WithTCP(addrs []string) Option {
	return optionFunc(func(o *options) { o.tcpAddrs = append([]string(nil), addrs...) })
}

// WithLossyNetwork injects reproducible message loss on the sequenced
// multicast path — useful for demos and tests of the NACK-based recovery
// machinery. dropRate is in [0,1).
func WithLossyNetwork(dropRate float64, seed int64) Option {
	return optionFunc(func(o *options) {
		o.faults = &transport.FaultPlan{DropRate: dropRate, Seed: seed, DownOnly: true}
	})
}

// WithHistory tunes the optimistic path's usage-frequency filter
// (defaults: decay 0.95, threshold 0.30).
func WithHistory(decay, threshold float64) Option {
	return optionFunc(func(o *options) {
		o.history = core.Config{HistoryDecay: decay, HistoryThreshold: threshold}
	})
}

// WithRetransmitBuffer sets the root's retransmission buffer size in
// sequenced messages (default 4096). This buffer serves NACK-driven loss
// recovery; it is unrelated to the optimistic usage-history filter that
// WithHistory tunes.
func WithRetransmitBuffer(n int) Option {
	return optionFunc(func(o *options) { o.histSize = n })
}

// WithBatching enables the batched update plane (default off): each node
// coalesces its shared writes into batch frames, flushed when maxMsgs
// writes are queued, when maxDelay has elapsed since the first queued
// write, or immediately before a lock release leaves the node — so the
// GWC guarantee that every node sees a critical section's data before
// the lock changes hands is preserved. Repeated writes to the same
// variable within a flush window are combined (Sesame's write
// combining), and the root sequences a whole batch under one lock
// acquisition and fans it out as one frame per member.
//
// Batching trades write latency (up to maxDelay) for throughput;
// maxMsgs < 2 disables it, maxDelay <= 0 defaults to 2ms. With batching
// on, Write reports transport failures asynchronously rather than from
// its return value.
func WithBatching(maxDelay time.Duration, maxMsgs int) Option {
	return optionFunc(func(o *options) {
		o.batchDelay = maxDelay
		o.batchMsgs = maxMsgs
	})
}

// WithQuorumAcks raises the cluster's durability level from fast to
// quorum-acked. By default a write is "committed" the moment the group
// root sequences it — cheap, but a write sequenced just before the root
// crashes can be lost if the elected successor merges state from members
// that had not applied it yet. With quorum acks, members continuously
// acknowledge the sequenced prefix they applied, and the root:
//
//   - hands a released lock to the next waiter only once a majority of
//     the membership holds everything sequenced up to the release, so a
//     critical section can never observe a predecessor's writes that a
//     failover could undo;
//   - answers Sync barriers only once everything sequenced before the
//     barrier is majority-held.
//
// Combined with the (always-on) quorum-gated elections, any successor
// root merges reports from a majority of members, and two majorities
// always intersect — so quorum-acked writes survive root failovers.
// The cost is roughly one extra message per member per sequenced burst
// and up to one ack round-trip of added lock-handoff latency.
func WithQuorumAcks() Option {
	return optionFunc(func(o *options) { o.quorumAcks = true })
}

// WithBackoff tunes every node's adaptive-retry schedule: control-plane
// retransmissions (lock requests, rejoin handshakes, snapshot requests,
// resync probes, sync barriers) start at base and back off exponentially
// with jitter up to max. Zero values keep the defaults, which derive
// from the maintenance interval (base = retry interval, max = 16x).
func WithBackoff(base, max time.Duration) Option {
	return optionFunc(func(o *options) {
		o.boBase = base
		o.boCap = max
	})
}

// WithWatchdog tunes every node's stuck-operation liveness budget: an
// in-flight acquisition, rejoin, sync barrier, parked grant, holderless
// lock, or fence that outlives the budget is counted, traced, and
// re-driven (see the WatchdogStuck / WatchdogReissues counters). Zero
// keeps the default of 4x the failure-detection deadline.
func WithWatchdog(budget time.Duration) Option {
	return optionFunc(func(o *options) { o.wdBudget = budget })
}

// WithIntegrity enables end-to-end state-integrity checking with the
// given anti-entropy sweep interval. Every sequenced data apply folds
// into an incremental per-group digest, and every interval each group
// root compares member digests at a sequence watermark (TDigestReq /
// TDigestAck frames piggybacked on the maintenance schedule). A member
// whose digest diverges — bit rot past the frame checksums, a
// misapplied frame — is counted (Stats().GWC.Divergences), traced
// (EvDivergence), quarantined (Health reports it, /healthz fails,
// ReadStale returns ErrDiverged) and self-healed by re-driving it
// through the snapshot catch-up path. Wire-frame CRC32C checksums are
// always on and need no option; the sweep costs two small frames per
// member per interval. Zero (the default) disables sweeping.
func WithIntegrity(interval time.Duration) Option {
	return optionFunc(func(o *options) { o.integrity = interval })
}

// WithLeases enables lock leasing and peer-to-peer handoff with the
// given lease TTL. When a lock is granted with nobody queued behind it,
// the group root leases it to the winner: re-acquiring it there is a
// purely local decision while the lease holds — zero wire messages,
// down from the three-message root round trip — with in-use leases
// renewed on the adaptive-retry schedule and idle ones returned at
// expiry. When a lock is granted with waiters queued, the grant carries
// the head waiter's identity and the releasing holder hands the lock to
// it directly (one frame on the critical path), notifying the root
// asynchronously; the root stays the arbiter and every conflict falls
// back to the classic queue. Leases never survive a reign change, a
// fenced root demands them back, and the root frees a leased lock only
// on an explicit return, release, or the holder's rejoin — never on
// expiry alone — so a slow clock cannot mint two exclusive holders.
// Ignored under WithQuorumAcks: direct transfers would bypass the
// durability watermark. Zero (the default) disables leasing.
func WithLeases(ttl time.Duration) Option {
	return optionFunc(func(o *options) { o.leases = ttl })
}

// WithMaxStaleness bounds the cluster's degraded reads: Handle.ReadStale
// serves a node's local copy even while the node cannot reach a live
// reign (fenced root, member mid-election or mid-rejoin), and this
// option caps how stale such a read may be — measured from the node's
// last proof of currency — before it fails with ErrTooStale instead.
// Without the option any staleness is accepted.
func WithMaxStaleness(d time.Duration) Option {
	return optionFunc(func(o *options) { o.maxStale = d })
}

// WithChaos enables the cluster's fault-injection controls (see
// Cluster.Chaos): crashing and reviving nodes and partitioning the
// network, to exercise the crash-failover machinery.
func WithChaos() Option {
	return optionFunc(func(o *options) { o.chaos = true })
}

// Timing collects the cluster's failure-handling clocks for WithTiming.
// Zero fields keep their defaults.
type Timing struct {
	// Retry is every node's maintenance interval: control-plane retries
	// and root heartbeats (default 50ms).
	Retry time.Duration
	// FailAfter is the root-failure detection deadline: how long a member
	// goes without hearing its root before starting an election (default
	// 2s).
	FailAfter time.Duration
	// ElectWait is the election grace period during which the failover
	// candidate collects peer state reports (default 200ms).
	ElectWait time.Duration
}

// WithTiming tunes the cluster's failure-handling clocks. Fields left
// zero keep their defaults, so callers name only what they change:
//
//	optsync.WithTiming(optsync.Timing{FailAfter: 500 * time.Millisecond})
func WithTiming(t Timing) Option {
	return optionFunc(func(o *options) {
		o.retryIn = t.Retry
		o.failAfter = t.FailAfter
		o.electWait = t.ElectWait
	})
}

// Cluster is a set of DSM nodes sharing groups of variables.
type Cluster struct {
	net      transport.Network
	flaky    *transport.Flaky // non-nil with WithChaos or WithLossyNetwork
	nodes    []*gwc.Node
	engines  []*core.Engine
	histSz   int
	maxStale time.Duration

	metricsLn  net.Listener // non-nil with WithMetricsAddr
	metricsSrv *http.Server

	mu        sync.Mutex
	groups    map[string]*Group
	nextGroup gwc.GroupID
	closed    bool
}

// NewCluster starts n nodes on the chosen transport.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("optsync: cluster needs at least 1 node, got %d", n)
	}
	var o options
	o.history = core.DefaultConfig()
	for _, opt := range opts {
		opt.apply(&o)
	}

	var (
		nw  transport.Network
		err error
	)
	if len(o.tcpAddrs) > 0 {
		if len(o.tcpAddrs) != n {
			return nil, fmt.Errorf("optsync: %d TCP addresses for %d nodes", len(o.tcpAddrs), n)
		}
		nw, err = transport.NewTCP(o.tcpAddrs)
	} else {
		nw, err = transport.NewInProc(n)
	}
	if err != nil {
		return nil, fmt.Errorf("optsync: %w", err)
	}
	var flaky *transport.Flaky
	if o.faults != nil || o.chaos {
		plan := transport.FaultPlan{}
		if o.faults != nil {
			plan = *o.faults
		}
		flaky = transport.NewFlaky(nw, plan)
		nw = flaky
	}

	c := &Cluster{
		net:       nw,
		flaky:     flaky,
		nodes:     make([]*gwc.Node, n),
		engines:   make([]*core.Engine, n),
		histSz:    o.histSize,
		maxStale:  o.maxStale,
		groups:    make(map[string]*Group),
		nextGroup: 1,
	}
	for i := 0; i < n; i++ {
		ep, err := nw.Endpoint(i)
		if err != nil {
			_ = nw.Close()
			return nil, fmt.Errorf("optsync: %w", err)
		}
		c.nodes[i] = gwc.NewNode(i, ep)
		c.nodes[i].SetTimers(o.retryIn, o.failAfter, o.electWait)
		c.nodes[i].SetBatching(o.batchDelay, o.batchMsgs)
		c.nodes[i].SetQuorumAcks(o.quorumAcks)
		c.nodes[i].SetBackoff(o.boBase, o.boCap)
		c.nodes[i].SetWatchdog(o.wdBudget)
		c.nodes[i].SetIntegrity(o.integrity)
		c.nodes[i].SetLeases(o.leases)
		c.engines[i] = core.NewEngine(c.nodes[i], o.history)
	}
	if o.traced || o.metricsAddr != "" {
		for _, nd := range c.nodes {
			nd.Metrics().Trace.Enable(o.traceCap)
		}
	}
	if o.metricsAddr != "" {
		if err := c.startMetricsServer(o.metricsAddr); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("optsync: metrics server: %w", err)
		}
	}
	return c, nil
}

// Chaos exposes the cluster's fault-injection controls, or nil unless
// the cluster was built with WithChaos (or WithLossyNetwork).
func (c *Cluster) Chaos() *Chaos {
	if c.flaky == nil {
		return nil
	}
	return &Chaos{f: c.flaky}
}

// Chaos injects deterministic faults into a running cluster. Crashes are
// simulated at the network level: a crashed node's goroutines keep
// running but none of its messages are delivered in either direction, so
// a revived node models a machine rejoining with stale state.
type Chaos struct {
	f *transport.Flaky
}

// Crash isolates a node until Revive.
func (ch *Chaos) Crash(node int) { ch.f.Crash(node) }

// Revive reconnects a crashed node. Only the links come back: the
// node's protocol state is whatever it held at crash time. A briefly
// crashed member catches up by itself (NACK repair, or a snapshot once
// it notices it fell past the root's retransmission window), and a
// deposed ex-root is demoted and resyncs on first contact with the new
// reign — but a node revived after a long outage converges fastest by
// explicitly rejoining its groups with Handle.Rejoin, which discards
// its stale state and re-admits it at the current epoch.
func (ch *Chaos) Revive(node int) { ch.f.Revive(node) }

// Partition cuts every link between the two sides until Heal.
func (ch *Chaos) Partition(a, b []int) { ch.f.Partition(a, b) }

// Heal removes all partitions (crashed nodes stay crashed).
func (ch *Chaos) Heal() { ch.f.Heal() }

// Isolated reports how many messages crashes and partitions have cut.
func (ch *Chaos) Isolated() int { return ch.f.Isolated() }

// Corrupt sets the probability (in [0,1]) that a delivered message has
// one random bit of its encoded payload flipped — transport-level bit
// rot. The wire codec's CRC32C trailer catches the flip at decode, the
// frame is discarded, and the usual NACK/retry machinery recovers it;
// CorruptStats reports the outcomes. Zero turns corruption off.
func (ch *Chaos) Corrupt(rate float64) { ch.f.Corrupt(rate) }

// CorruptStats reports corruption outcomes: bit-flips injected, frames
// the checksum caught (discarded and recovered by retransmission), and
// frames that decoded cleanly despite the flip (delivered corrupt —
// which the CRC trailer should make impossible).
func (ch *Chaos) CorruptStats() (injected, caught, missed int) { return ch.f.CorruptStats() }

// Size reports the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Close shuts every node and the transport down. Blocked operations are
// woken with errors.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	if c.metricsSrv != nil {
		if err := c.metricsSrv.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.net.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// GroupOption configures NewGroup.
type GroupOption interface {
	applyGroup(*groupOptions)
}

type groupOptions struct {
	treeFanout bool
	members    []int
}

type groupOptionFunc func(*groupOptions)

func (f groupOptionFunc) applyGroup(o *groupOptions) { f(o) }

// TreeFanout distributes the group's sequenced traffic along the BFS
// spanning tree of its torus embedding — Sesame's tree multicast — with
// members relaying to their subtrees instead of the root sending to every
// member directly. It requires the group to span all nodes.
func TreeFanout() GroupOption {
	return groupOptionFunc(func(o *groupOptions) { o.treeFanout = true })
}

// Members restricts the group to a subset of nodes. Small groups are the
// heart of the paper's scaling argument: "Processor groups overcome the
// total store ordering arbitration bottleneck", and "combining
// overlapping groups into one global group can prevent scaling in large
// networks by overloading the global root". Only member nodes hold
// copies, receive updates, or may use the group's locks; ordering between
// different groups is not defined (use multi-group locks where needed).
func Members(ids ...int) GroupOption {
	return groupOptionFunc(func(o *groupOptions) { o.members = append([]int(nil), ids...) })
}

// NewGroup creates (or returns, if the name exists with the same root) a
// sharing group spanning all nodes, rooted at the given node. The root
// sequences the group's writes and manages its locks, so related
// variables and locks should share a group ("Compiler tools can
// aggregate related variables and locks into the same sharing group").
func (c *Cluster) NewGroup(name string, root int, opts ...GroupOption) (*Group, error) {
	if root < 0 || root >= len(c.nodes) {
		return nil, fmt.Errorf("optsync: group root %d out of range [0,%d): %w", root, len(c.nodes), ErrNotMember)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("optsync: cluster is closed: %w", ErrClosed)
	}
	if g, ok := c.groups[name]; ok {
		if g.root != root {
			return nil, fmt.Errorf("optsync: group %q already exists with root %d", name, g.root)
		}
		return g, nil
	}
	var gopts groupOptions
	for _, opt := range opts {
		opt.applyGroup(&gopts)
	}
	members := gopts.members
	if len(members) == 0 {
		members = make([]int, len(c.nodes))
		for i := range members {
			members[i] = i
		}
	} else {
		seen := make(map[int]bool, len(members))
		rootIn := false
		for _, m := range members {
			if m < 0 || m >= len(c.nodes) {
				return nil, fmt.Errorf("optsync: group member %d out of range [0,%d): %w", m, len(c.nodes), ErrNotMember)
			}
			if seen[m] {
				return nil, fmt.Errorf("optsync: duplicate group member %d", m)
			}
			seen[m] = true
			if m == root {
				rootIn = true
			}
		}
		if !rootIn {
			return nil, fmt.Errorf("optsync: group root %d is not among the members %v", root, members)
		}
		if gopts.treeFanout {
			return nil, errors.New("optsync: TreeFanout requires the group to span all nodes")
		}
	}
	id := c.nextGroup
	c.nextGroup++
	for _, m := range members {
		if err := c.nodes[m].Join(gwc.GroupConfig{
			ID:          id,
			Root:        root,
			Members:     members,
			HistorySize: c.histSz,
			TreeFanout:  gopts.treeFanout,
		}); err != nil {
			return nil, fmt.Errorf("optsync: join group %q: %w", name, err)
		}
	}
	g := &Group{
		c:        c,
		id:       id,
		name:     name,
		root:     root,
		members:  members,
		vars:     make(map[string]*Var),
		mutexes:  make(map[string]*Mutex),
		sessions: make(map[string]*SessionLock),
		nextVar:  1,
		nextLock: 1,
	}
	c.groups[name] = g
	return g, nil
}

// Group is a sharing group: a set of eagerly shared variables and locks
// sequenced by one root node.
type Group struct {
	c       *Cluster
	id      gwc.GroupID
	name    string
	root    int
	members []int

	mu       sync.Mutex
	vars     map[string]*Var
	mutexes  map[string]*Mutex
	sessions map[string]*SessionLock
	nextVar  gwc.VarID
	nextLock gwc.LockID
}

// Name reports the group's name.
func (g *Group) Name() string { return g.name }

// Root reports the group's root node.
func (g *Group) Root() int { return g.root }

// Members lists the nodes in the group, in ID order as given.
func (g *Group) Members() []int { return append([]int(nil), g.members...) }

// Mutex declares (or returns) a named queue-based lock managed by the
// group's root. The namespace is shared with SessionLock.
func (g *Group) Mutex(name string) *Mutex {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.mutexes[name]; ok {
		return m
	}
	if _, ok := g.sessions[name]; ok {
		panic(fmt.Sprintf("optsync: lock %q already declared as a SessionLock", name))
	}
	m := &Mutex{g: g, id: g.nextLock, name: name}
	g.nextLock++
	g.mutexes[name] = m
	return m
}

// Int declares (or returns) a named shared integer variable. Passing a
// guard lock (a Mutex or a SessionLock) puts the variable in that lock's
// mutex data group: the root discards writes from non-holders and
// origins drop their echoes, which is what makes optimistic execution
// safe for it. Under a SessionLock guard, every current session holder
// counts as a holder.
func (g *Group) Int(name string, guard ...Lock) *Var {
	g.mu.Lock()
	if v, ok := g.vars[name]; ok {
		g.mu.Unlock()
		return v
	}
	v := &Var{g: g, id: g.nextVar, name: name}
	g.nextVar++
	g.vars[name] = v
	g.mu.Unlock()
	if len(guard) > 0 && guard[0] != nil {
		for _, m := range g.members {
			// Registration precedes first use, so the guard is in place
			// on every member before any write can race it.
			_ = g.c.nodes[m].SetGuard(g.id, v.id, guard[0].lockID())
		}
		v.guard = guard[0]
	}
	return v
}

// Var is a shared integer variable within a group.
type Var struct {
	g     *Group
	id    gwc.VarID
	name  string
	guard Lock
}

// Name reports the variable's name.
func (v *Var) Name() string { return v.name }

// Group reports the sharing group the variable belongs to.
func (v *Var) Group() *Group { return v.g }

// Guard reports the lock guarding the variable, or nil.
func (v *Var) Guard() Lock { return v.guard }

// Lock is a root-managed lock within a sharing group — a *Mutex or a
// *SessionLock. Either kind can guard variables (Group.Int) and
// participate in multi-group acquisition ordering.
type Lock interface {
	// Name reports the lock's name.
	Name() string
	// Group reports the sharing group the lock belongs to.
	Group() *Group
	lockID() gwc.LockID
}

// Mutex is a queue-based lock within a group, managed by the group root.
type Mutex struct {
	g    *Group
	id   gwc.LockID
	name string
}

// Name reports the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Group reports the sharing group the mutex belongs to.
func (m *Mutex) Group() *Group { return m.g }

func (m *Mutex) lockID() gwc.LockID { return m.id }

// NodeStats combines the per-node protocol and optimistic-engine
// counters.
type NodeStats struct {
	GWC        gwc.Stats
	Optimistic core.Stats
}

// Handle is the programming interface for code running "on" one node.
// Handles are cheap; methods are safe for concurrent use by multiple
// goroutines on the same node, with one rule: the node, not the
// goroutine, is what holds a lock, so while one goroutine is inside a
// mutex or session lock or acquiring it, another that tries to enter the
// same lock from the same node gets an error wrapping ErrNested — the
// node does not queue its own sections.
type Handle struct {
	c      *Cluster
	node   *gwc.Node
	engine *core.Engine
}

// Handle returns node i's programming interface, or an error wrapping
// ErrNotMember if i is outside [0, Size()). Use MustHandle where an
// out-of-range index is a programming error (tests, examples).
func (c *Cluster) Handle(i int) (*Handle, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("optsync: node %d out of range [0,%d): %w", i, len(c.nodes), ErrNotMember)
	}
	return &Handle{c: c, node: c.nodes[i], engine: c.engines[i]}, nil
}

// MustHandle returns node i's programming interface, panicking with a
// descriptive message if i is out of range.
func (c *Cluster) MustHandle(i int) *Handle {
	h, err := c.Handle(i)
	if err != nil {
		panic(fmt.Sprintf("optsync: MustHandle(%d): %v", i, err))
	}
	return h
}

// NodeID reports which node this handle operates on.
func (h *Handle) NodeID() int { return h.node.ID() }

// Stats snapshots this node's counters.
func (h *Handle) Stats() NodeStats {
	return NodeStats{GWC: h.node.Stats(), Optimistic: h.engine.Stats()}
}

// Read returns this node's local copy of v — always a local access under
// eagersharing.
func (h *Handle) Read(v *Var) (int64, error) {
	return h.node.Read(v.g.id, v.id)
}

// ReadStale is the degraded-read form of Read: it returns this node's
// local copy of v along with an upper bound on its staleness, and —
// unlike the rest of the API — keeps serving while the node cannot
// reach a live reign (fenced root, member mid-election, mid-rejoin, or
// resyncing). The bound is measured from the node's last proof of
// currency: sequenced traffic or a heartbeat from the reign it follows,
// or the start of the fence on a fenced root. On a healthy node it is
// typically well under the failure-detection deadline (zero on an
// unfenced root, which is the authority). If the cluster was built
// WithMaxStaleness and the bound exceeds it, the value is withheld and
// the error wraps ErrTooStale.
func (h *Handle) ReadStale(v *Var) (val int64, stale time.Duration, err error) {
	return h.node.ReadStale(v.g.id, v.id, h.c.maxStale)
}

// Health reports whether each node of the cluster can currently serve
// writes, in node order — the state /healthz keys off when the cluster
// runs WithMetricsAddr.
func (c *Cluster) Health() []gwc.Health {
	out := make([]gwc.Health, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Health()
	}
	return out
}

// Write stores val to v: the local copy changes immediately and the
// update is shipped to the group root for sequencing. Writing a guarded
// variable without holding its mutex is silently discarded by the root
// (that is the mechanism optimistic execution relies on), so regular code
// should hold the guard.
func (h *Handle) Write(v *Var, val int64) error {
	return h.node.Write(v.g.id, v.id, val)
}

// WaitGE blocks until this node's copy of v reaches at least min.
func (h *Handle) WaitGE(v *Var, min int64) error {
	return h.WaitGEContext(context.Background(), v, min)
}

// WaitGEContext is WaitGE with cancellation: it returns ctx's error if
// the context ends before the condition is met.
func (h *Handle) WaitGEContext(ctx context.Context, v *Var, min int64) error {
	ok, err := h.node.WaitGEContext(ctx, v.g.id, v.id, min)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("optsync: node closed while waiting: %w", ErrClosed)
	}
	return nil
}

// Acquire blocks until this node holds m.
func (h *Handle) Acquire(m *Mutex) error {
	return h.node.Acquire(m.g.id, m.id)
}

// AcquireContext blocks until this node holds m or ctx ends. On
// cancellation or deadline the queued request is withdrawn from the
// root — or, if the grant won the race, the lock is released — and
// ctx's error is returned.
func (h *Handle) AcquireContext(ctx context.Context, m *Mutex) error {
	return h.node.AcquireContext(ctx, m.g.id, m.id)
}

// TryLockFor attempts to acquire m, giving up after d. It reports
// whether the lock was obtained; an expired attempt leaves no trace in
// the root's queue. On success the caller owns the lock and must
// Release it.
func (h *Handle) TryLockFor(m *Mutex, d time.Duration) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := h.node.AcquireContext(ctx, m.g.id, m.id)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return false, nil
	}
	return false, err
}

// Release frees m. The release is sequenced after the section's writes,
// so every node sees the data before the lock changes hands.
func (h *Handle) Release(m *Mutex) error {
	return h.node.Release(m.g.id, m.id)
}

// Sync blocks until every Write this handle's node issued to g's group
// before the call is committed: sequenced by the group root, and — on a
// WithQuorumAcks cluster — applied by a majority of the membership,
// which makes the writes durable across root failovers. While the root
// is fenced off by a partition the barrier does not answer, so Sync
// doubles as a "did my writes actually commit?" probe.
func (h *Handle) Sync(g *Group) error {
	return h.SyncContext(context.Background(), g)
}

// SyncContext is Sync with cancellation. If a root failover lands while
// the barrier is pending it is re-issued to the new root and vouches
// only for what the new reign sequenced; eager writes that died with the
// old root are lost either way, exactly as without the barrier.
func (h *Handle) SyncContext(ctx context.Context, g *Group) error {
	return h.node.SyncContext(ctx, g.id)
}

// Rejoin re-enters g's group after this node was revived from a crash,
// discarding all of the node's stale local state for the group: the
// current root re-admits it at the current epoch and streams it a fresh
// snapshot. Locks the node held or waited for at crash time are freed by
// the root. Rejoin returns once the request is sent; convergence is
// asynchronous (the request is retried until a root answers, even across
// a concurrent failover).
func (h *Handle) Rejoin(g *Group) error {
	return h.node.Rejoin(g.id)
}

// Do runs body with m held (the regular, non-optimistic path).
func (h *Handle) Do(m *Mutex, body func() error) error {
	return h.DoContext(context.Background(), m, body)
}

// DoContext is Do with cancellation while waiting for the lock. Once
// the lock is held, body runs to completion and the lock is released
// regardless of ctx.
func (h *Handle) DoContext(ctx context.Context, m *Mutex, body func() error) error {
	if err := h.AcquireContext(ctx, m); err != nil {
		return err
	}
	bodyErr := body()
	if err := h.Release(m); err != nil {
		return err
	}
	return bodyErr
}

// Tx is the transactional view of an optimistic critical section. Writes
// are tracked so a rollback can restore this node's prior values. A Tx
// dies with the body run it was passed to: Read and Write return an error
// once that run has returned.
type Tx struct {
	inner *core.Tx
	g     *Group
}

// Read returns the node's local copy of v. During speculation the value
// may prove invalid; the section is then rolled back and re-executed
// with valid data.
func (tx *Tx) Read(v *Var) (int64, error) {
	if v.g != tx.g {
		return 0, fmt.Errorf("optsync: variable %q belongs to group %q, not %q: %w", v.name, v.g.name, tx.g.name, ErrUnknownVar)
	}
	return tx.inner.Read(v.id)
}

// Write stores a shared value, saving the prior value for rollback on
// first write during speculation.
func (tx *Tx) Write(v *Var, val int64) error {
	if v.g != tx.g {
		return fmt.Errorf("optsync: variable %q belongs to group %q, not %q: %w", v.name, v.g.name, tx.g.name, ErrUnknownVar)
	}
	return tx.inner.Write(v.id, val)
}

// OptimisticDo runs body under m using the paper's optimistic mutual
// exclusion: when the local lock copy and its usage history suggest the
// lock is free, body runs speculatively while the (non-blocking) lock
// request propagates; if another node wins, the section rolls back and
// re-executes once the queued request is granted.
//
// body may therefore run more than once and must confine its shared-state
// effects to the transaction. Variables written inside body should be
// guarded by m (declared with g.Int(name, m)); unguarded writes commit
// immediately and cannot be suppressed on conflict.
func (h *Handle) OptimisticDo(m *Mutex, body func(tx *Tx) error) error {
	return h.OptimisticDoContext(context.Background(), m, body)
}

// OptimisticDoContext is OptimisticDo with cancellation. ctx is honoured
// at entry, throughout the regular path, and while waiting to re-execute
// after a rollback; a section that is already speculating first waits
// (briefly — one round trip to the root, bounded by the failover
// deadline if the root crashed) to learn whether its writes committed,
// since aborting blind would leave the local copies unreconcilable with
// the group.
func (h *Handle) OptimisticDoContext(ctx context.Context, m *Mutex, body func(tx *Tx) error) error {
	return h.engine.DoContext(ctx, m.g.id, m.id, func(inner *core.Tx) error {
		return body(&Tx{inner: inner, g: m.g})
	})
}
