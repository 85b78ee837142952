package main

import (
	"fmt"

	"optsync"
	"optsync/internal/core"
	"optsync/internal/gwc"
	"optsync/internal/obs"
	"optsync/internal/transport"
)

// nodes is the cluster size of every workload: root 0, members 1..3.
const nodes = 4

// shape is what a workload declares about its one sharing group (rooted
// at node 0, spanning all nodes): how many variables and mutexes, and
// which mutex guards each variable (-1: unguarded).
type shape struct {
	tcp   bool
	vars  int
	locks int
	guard func(v int) int
}

// port is what a client goroutine uses of "its" node. Two clusters
// implement it: the public optsync API, which every end-to-end number is
// measured through, and the same stack assembled from the layers' own
// constructors around a tracing endpoint, which optsync.NewCluster has
// no way to accept. Variables and locks are named by index.
type port interface {
	Write(v int, val int64) error
	Read(v int) (int64, error)
	WaitGE(v int, min int64) error
	Acquire(l int) error
	Release(l int) error
	// Do is the regular path: acquire, run body, release.
	Do(l int, body func() error) error
	// Optimistic prepares body to run as an optimistic section; the
	// returned function runs it under lock l. Built once per client, so
	// the measured loop allocates only what the runtime itself does.
	Optimistic(body func(tx txn) error) func(l int) error
	Sync() error
}

// txn is the view a section body gets: the transaction of whichever
// cluster runs it, passed by value so wrapping it allocates nothing.
type txn struct {
	pc     *pubCluster
	pub    *optsync.Tx
	lay    *core.Tx
	direct port // a regular section's body reads and writes the node itself
}

func (t txn) Read(v int) (int64, error) {
	if t.direct != nil {
		return t.direct.Read(v)
	}
	if t.lay != nil {
		return t.lay.Read(gwc.VarID(v + 1))
	}
	return t.pub.Read(t.pc.vars[v])
}

func (t txn) Write(v int, val int64) error {
	if t.direct != nil {
		return t.direct.Write(v, val)
	}
	if t.lay != nil {
		return t.lay.Write(gwc.VarID(v+1), val)
	}
	return t.pub.Write(t.pc.vars[v], val)
}

// cluster is a running 4-node cluster of either kind.
type cluster interface {
	port(node int) port
	// counters sums the protocol and engine counters over all nodes.
	counters() (gwc.Stats, core.Stats)
	// metrics merges the nodes' obs histograms and, on TCP, carries the
	// transport's counters.
	metrics() obs.MetricsSnapshot
	Close() error
}

func loopback() []string {
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// --- the public API ------------------------------------------------------

type pubCluster struct {
	c     *optsync.Cluster
	g     *optsync.Group
	vars  []*optsync.Var
	locks []*optsync.Mutex
}

// newPublic builds the cluster users get: default options, nothing
// switched on, so a later change of a default shows in the numbers.
func newPublic(sh shape) (*pubCluster, error) {
	var opts []optsync.Option
	if sh.tcp {
		opts = append(opts, optsync.WithTCP(loopback()))
	}
	c, err := optsync.NewCluster(nodes, opts...)
	if err != nil {
		return nil, err
	}
	g, err := c.NewGroup("bench", 0)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	pc := &pubCluster{c: c, g: g}
	for l := 0; l < sh.locks; l++ {
		pc.locks = append(pc.locks, g.Mutex(fmt.Sprintf("m%d", l)))
	}
	for v := 0; v < sh.vars; v++ {
		if l := sh.guard(v); l >= 0 {
			pc.vars = append(pc.vars, g.Int(fmt.Sprintf("v%d", v), pc.locks[l]))
		} else {
			pc.vars = append(pc.vars, g.Int(fmt.Sprintf("v%d", v)))
		}
	}
	return pc, nil
}

func (pc *pubCluster) port(node int) port { return &pubPort{pc: pc, h: pc.c.MustHandle(node)} }

func (pc *pubCluster) counters() (gwc.Stats, core.Stats) {
	var g gwc.Stats
	var c core.Stats
	for i := 0; i < nodes; i++ {
		s := pc.c.MustHandle(i).Stats()
		addGWC(&g, s.GWC)
		addCore(&c, s.Optimistic)
	}
	return g, c
}

func (pc *pubCluster) metrics() obs.MetricsSnapshot { return pc.c.Metrics() }
func (pc *pubCluster) Close() error                 { return pc.c.Close() }

type pubPort struct {
	pc *pubCluster
	h  *optsync.Handle
}

func (p *pubPort) Write(v int, val int64) error  { return p.h.Write(p.pc.vars[v], val) }
func (p *pubPort) Read(v int) (int64, error)     { return p.h.Read(p.pc.vars[v]) }
func (p *pubPort) WaitGE(v int, min int64) error { return p.h.WaitGE(p.pc.vars[v], min) }
func (p *pubPort) Acquire(l int) error           { return p.h.Acquire(p.pc.locks[l]) }
func (p *pubPort) Release(l int) error           { return p.h.Release(p.pc.locks[l]) }
func (p *pubPort) Sync() error                   { return p.h.Sync(p.pc.g) }

func (p *pubPort) Do(l int, body func() error) error { return p.h.Do(p.pc.locks[l], body) }

func (p *pubPort) Optimistic(body func(tx txn) error) func(l int) error {
	inner := func(tx *optsync.Tx) error { return body(txn{pc: p.pc, pub: tx}) }
	return func(l int) error { return p.h.OptimisticDo(p.pc.locks[l], inner) }
}

// --- the layers, assembled by hand ---------------------------------------

// group is the one sharing group of a layered cluster; variable index v
// is gwc.VarID(v+1) and lock index l is gwc.LockID(l+1), the same IDs
// optsync hands out in declaration order.
const group gwc.GroupID = 1

type layCluster struct {
	nw      transport.Network
	nodes   []*gwc.Node
	engines []*core.Engine
}

// newLayered assembles what optsync.NewCluster assembles — transport,
// gwc.NewNode, Join, core.NewEngine, all at their defaults — with wrap
// applied to every endpoint on the way (nil: none).
func newLayered(sh shape, wrap func(node int, ep transport.Endpoint) transport.Endpoint) (*layCluster, error) {
	var (
		nw  transport.Network
		err error
	)
	if sh.tcp {
		nw, err = transport.NewTCP(loopback())
	} else {
		nw, err = transport.NewInProc(nodes)
	}
	if err != nil {
		return nil, err
	}
	lc := &layCluster{nw: nw}
	members := make([]int, nodes)
	guards := make(map[gwc.VarID]gwc.LockID)
	for i := range members {
		members[i] = i
	}
	for v := 0; v < sh.vars; v++ {
		if l := sh.guard(v); l >= 0 {
			guards[gwc.VarID(v+1)] = gwc.LockID(l + 1)
		}
	}
	for i := 0; i < nodes; i++ {
		ep, err := nw.Endpoint(i)
		if err != nil {
			_ = lc.Close()
			return nil, err
		}
		if wrap != nil {
			ep = wrap(i, ep)
		}
		n := gwc.NewNode(i, ep)
		lc.nodes = append(lc.nodes, n)
		lc.engines = append(lc.engines, core.NewEngine(n, core.DefaultConfig()))
	}
	for _, n := range lc.nodes {
		nodeGuards := make(map[gwc.VarID]gwc.LockID, len(guards))
		for v, l := range guards {
			nodeGuards[v] = l
		}
		if err := n.Join(gwc.GroupConfig{ID: group, Root: 0, Members: members, Guards: nodeGuards}); err != nil {
			_ = lc.Close()
			return nil, err
		}
	}
	return lc, nil
}

func (lc *layCluster) port(node int) port { return layPort{n: lc.nodes[node], e: lc.engines[node]} }

func (lc *layCluster) counters() (gwc.Stats, core.Stats) {
	var g gwc.Stats
	var c core.Stats
	for i, n := range lc.nodes {
		addGWC(&g, n.Stats())
		addCore(&c, lc.engines[i].Stats())
	}
	return g, c
}

func (lc *layCluster) metrics() obs.MetricsSnapshot {
	var s obs.MetricsSnapshot
	for _, n := range lc.nodes {
		s.Merge(n.Metrics().Snapshot())
	}
	if ts, ok := lc.nw.(interface{ TransportStats() obs.TransportStats }); ok {
		s.Transport = ts.TransportStats()
	}
	return s
}

func (lc *layCluster) Close() error {
	var first error
	for _, n := range lc.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := lc.nw.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

type layPort struct {
	n *gwc.Node
	e *core.Engine
}

func (p layPort) Write(v int, val int64) error { return p.n.Write(group, gwc.VarID(v+1), val) }
func (p layPort) Read(v int) (int64, error)    { return p.n.Read(group, gwc.VarID(v+1)) }
func (p layPort) Acquire(l int) error          { return p.n.Acquire(group, gwc.LockID(l+1)) }
func (p layPort) Release(l int) error          { return p.n.Release(group, gwc.LockID(l+1)) }
func (p layPort) Sync() error                  { return p.n.Sync(group) }

func (p layPort) WaitGE(v int, min int64) error {
	ok, err := p.n.WaitGE(group, gwc.VarID(v+1), min)
	if err == nil && !ok {
		err = gwc.ErrClosed
	}
	return err
}

func (p layPort) Do(l int, body func() error) error {
	if err := p.Acquire(l); err != nil {
		return err
	}
	bodyErr := body()
	if err := p.Release(l); err != nil {
		return err
	}
	return bodyErr
}

func (p layPort) Optimistic(body func(tx txn) error) func(l int) error {
	inner := func(tx *core.Tx) error { return body(txn{lay: tx}) }
	return func(l int) error { return p.e.Do(group, gwc.LockID(l+1), inner) }
}

// addGWC and addCore sum the counters the benchmark reports.
func addGWC(to *gwc.Stats, s gwc.Stats) {
	to.Suppressed += s.Suppressed
	to.Duplicates += s.Duplicates
	to.Gaps += s.Gaps
	to.Nacks += s.Nacks
	to.Retransmits += s.Retransmits
	to.LockRequests += s.LockRequests
	to.LockGrants += s.LockGrants
}

func addCore(to *core.Stats, s core.Stats) {
	to.Optimistic += s.Optimistic
	to.Commits += s.Commits
	to.Rollbacks += s.Rollbacks
	to.Regular += s.Regular
	to.Leased += s.Leased
}
