package obs

import (
	"fmt"
	"sync/atomic"
)

// GaugeID names one of the fixed gauges every node carries.
type GaugeID int

const (
	// GaugeSessHolders is the number of critical-section holders the
	// node's lock manager currently has across all locks it roots —
	// under session locks, several same-session holders count at once,
	// so the high-water mark proves concurrent entering actually
	// happened.
	GaugeSessHolders GaugeID = iota
	// GaugeRecvBacklog is how many messages the node's last receive
	// wake-up brought in: the batch its receive loop drained from the
	// inbox, or the run a TCP link reader decoded from one socket read
	// and dispatched itself. A level of 1 means the node keeps up with
	// its arrivals; the high-water mark is the largest single arrival,
	// and anything above 1 is one lock hold and one wake-up amortized
	// over a backlog.
	GaugeRecvBacklog

	NumGauges // sentinel; always last
)

var gaugeNames = [NumGauges]string{
	GaugeSessHolders: "sess_holders",
	GaugeRecvBacklog: "recv_backlog",
}

func (id GaugeID) String() string {
	if id >= 0 && id < NumGauges {
		return gaugeNames[id]
	}
	return fmt.Sprintf("gauge(%d)", int(id))
}

// Gauge is a lock-free instantaneous level with a high-water mark. Add
// is allocation-free and safe from any goroutine; the zero value is
// ready to use.
type Gauge struct {
	cur atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by d and updates the high-water mark.
func (g *Gauge) Add(d int64) { g.raise(g.cur.Add(d)) }

// Set puts the gauge at v and updates the high-water mark — for a level
// that several goroutines each measure whole (the last one to report
// wins) rather than move by deltas.
func (g *Gauge) Set(v int64) {
	g.cur.Store(v)
	g.raise(v)
}

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// Max returns the highest level ever observed.
func (g *Gauge) Max() int64 { return g.max.Load() }

// HistID names one of the fixed latency histograms every node carries.
type HistID int

const (
	// HistLockAcquire is the wall time from sending a lock request to
	// holding the grant, for blocking (non-speculative) acquires.
	HistLockAcquire HistID = iota
	// HistSpecSection is the duration of a speculative critical
	// section: from entering the body early to the commit-or-abort
	// decision, the window the paper's optimism overlaps with request
	// latency.
	HistSpecSection
	// HistRollback is the cost of undoing a failed speculation:
	// save-set restore plus insharing resume.
	HistRollback
	// HistBatchFlush is how long coalesced writes sat in the member
	// batch queue before flushing (first enqueue to flush).
	HistBatchFlush
	// HistQuorumWait is how long the root deferred a lock handoff or
	// sync barrier waiting for the quorum-ack commit watermark.
	HistQuorumWait
	// HistFailover is election start to promotion on the winning
	// candidate: how long the group ran headless.
	HistFailover

	NumHists // sentinel; always last
)

var histNames = [NumHists]string{
	HistLockAcquire: "lock_acquire",
	HistSpecSection: "spec_section",
	HistRollback:    "rollback",
	HistBatchFlush:  "batch_flush",
	HistQuorumWait:  "quorum_wait",
	HistFailover:    "failover",
}

func (id HistID) String() string {
	if id >= 0 && id < NumHists {
		return histNames[id]
	}
	return fmt.Sprintf("hist(%d)", int(id))
}

// Metrics bundles one node's histograms and tracer. The zero value is
// ready to use (histograms always-on, tracer disabled). Pointer
// receivers everywhere; a Metrics must not be copied once recorded to.
type Metrics struct {
	hists  [NumHists]Hist
	gauges [NumGauges]Gauge
	Trace  Tracer
	// own reports the transport counts the node keeps itself, not its
	// endpoint (SetTransport); nil for none.
	own func() TransportStats
}

// SetTransport makes every Snapshot carry f's reading as its Transport:
// the share of the transport counters the node keeps itself (an InProc
// node counts the pushed frames it ran). f may take the node's lock, so
// Snapshot must not be called under it. Set once, before the first
// Snapshot.
func (m *Metrics) SetTransport(f func() TransportStats) { m.own = f }

// Hist returns the histogram with the given id for direct recording.
func (m *Metrics) Hist(id HistID) *Hist { return &m.hists[id] }

// Gauge returns the gauge with the given id for direct recording.
func (m *Metrics) Gauge(id GaugeID) *Gauge { return &m.gauges[id] }

// Snapshot captures all histograms and the per-type event counts. The
// trace ring itself is snapshotted separately (Trace.Snapshot) since
// it is bulky and usually only wanted on failure.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	for i := range m.hists {
		s.Hists[i] = m.hists[i].Snapshot()
	}
	for i := range s.Events {
		s.Events[i] = m.Trace.Count(EventType(i))
	}
	for i := range s.Gauges {
		s.Gauges[i] = GaugeSnapshot{Value: m.gauges[i].Value(), Max: m.gauges[i].Max()}
	}
	if m.own != nil {
		s.Transport = m.own()
	}
	return s
}

// GaugeSnapshot is one gauge's level and high-water mark at snapshot
// time.
type GaugeSnapshot struct {
	Value int64
	Max   int64
}

// Merge folds another gauge snapshot in: levels add (each node's share
// of a cluster-wide level), high-water marks take the max.
func (g *GaugeSnapshot) Merge(o GaugeSnapshot) {
	g.Value += o.Value
	if o.Max > g.Max {
		g.Max = o.Max
	}
}

// TransportStats is a point-in-time copy of the transport layer's
// counters, filled in by the cluster when the underlying network exposes
// them (the TCP transport counts its links; in-process delivery counts
// only its pushes). Everything is cumulative since the network came up.
type TransportStats struct {
	// FramesSent and BytesSent count wire frames (a batch frame is one)
	// and encoded bytes shipped to remote peers.
	FramesSent uint64
	BytesSent  uint64
	// Writevs counts write syscalls issued on peer links, so
	// FramesSent/Writevs is the frames-per-syscall amortization of the
	// send path. A drained outbox is normally one of them (one write of
	// one pooled chunk; the name dates from when it was a writev of a
	// chunk list), a drain larger than a chunk one per chunk.
	Writevs uint64
	// SocketReads counts read syscalls issued on links, those that find
	// the socket empty included, so SocketReads/FramesRecv is what the
	// receive path pays per frame. A link's reader reads until a read
	// comes up short and then waits for the socket's next readiness edge,
	// so a burst that fits one read costs one.
	SocketReads uint64
	// FramesRecv counts wire frames decoded off inbound connections.
	FramesRecv uint64
	// DecodeErrors counts inbound frames the codec rejected (checksum,
	// type, or framing violations — transport-level corruption).
	DecodeErrors uint64
	// ConnResets counts connections the reader proactively reset because
	// a decode error left the stream framing untrustworthy; the remote
	// redials and retry/NACK recovery repairs the gap.
	ConnResets uint64
	// SendDrops counts frames shed from a full peer outbox (drop-oldest
	// bounding); the GWC layer recovers them like network loss.
	SendDrops uint64
	// Dials counts successful outbound connection establishments;
	// LinksAdopted counts inbound connections adopted as the shared
	// duplex link to a peer instead of dialing one back.
	Dials        uint64
	LinksAdopted uint64
	// PushedInPlace counts in-process pushes (transport.Push) the sender
	// applied at the destination itself. The destination counts them —
	// gwc's node, in a plain field under the node lock its consumer
	// already holds, so a push writes no counter every pusher shares —
	// and the cluster sums the nodes' counts in (Cluster.Metrics); the
	// InProc network's own TransportStats leaves it zero. PushedQueued
	// and PushedDeclined are the network's: those that fell
	// back to the destination's queue and a wake-up without the consumer
	// being asked — something was queued ahead, or the destination's
	// receive loop was mid-batch; PushedDeclined those the consumer was
	// offered and turned down, which then queued too: the destination's
	// node lock was busy — held by an API caller, a tick, or another
	// pusher running the node — or the frame was a lock frame its root
	// leaves for its receive loop (counted at that node as the
	// lock-deferred event). The three are disjoint and sum to the pushes
	// made; declined minus lock-deferred, over that sum, is how often a
	// pusher met a busy node lock.
	PushedInPlace  uint64
	PushedQueued   uint64
	PushedDeclined uint64
}

// Merge folds another transport snapshot in (all counters sum).
func (t *TransportStats) Merge(o TransportStats) {
	t.FramesSent += o.FramesSent
	t.BytesSent += o.BytesSent
	t.Writevs += o.Writevs
	t.SocketReads += o.SocketReads
	t.FramesRecv += o.FramesRecv
	t.DecodeErrors += o.DecodeErrors
	t.ConnResets += o.ConnResets
	t.SendDrops += o.SendDrops
	t.Dials += o.Dials
	t.LinksAdopted += o.LinksAdopted
	t.PushedInPlace += o.PushedInPlace
	t.PushedQueued += o.PushedQueued
	t.PushedDeclined += o.PushedDeclined
}

// MetricsSnapshot is a point-in-time copy of a node's Metrics,
// mergeable across nodes.
type MetricsSnapshot struct {
	Hists     [NumHists]HistSnapshot
	Events    [NumEventTypes]uint64
	Gauges    [NumGauges]GaugeSnapshot
	Transport TransportStats
}

// Merge folds another snapshot into this one.
func (s *MetricsSnapshot) Merge(o MetricsSnapshot) {
	for i := range s.Hists {
		s.Hists[i].Merge(o.Hists[i])
	}
	for i := range s.Events {
		s.Events[i] += o.Events[i]
	}
	for i := range s.Gauges {
		s.Gauges[i].Merge(o.Gauges[i])
	}
	s.Transport.Merge(o.Transport)
}
