package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventType identifies one protocol transition in the trace.
type EventType uint8

const (
	EvNone EventType = iota

	// Optimistic-engine transitions (internal/core).
	EvSpecStart  // speculative section entered before the grant; A=lock, B=session
	EvSpecCommit // speculation confirmed by grant; A=lock, B=session
	EvSpecAbort  // speculation rolled back; A=lock, B=abort reason
	EvRegular    // history filter chose the pessimistic path; A=lock, B=session
	EvLeased     // section entered through a held lock lease; A=lock

	// Member-side data plane (internal/gwc).
	EvEchoDropped  // hardware blocking suppressed a self-echo; A=var
	EvEchoRestored // failover snapshot restored a blocked echo; A=var
	EvStaleEpoch   // frame from a deposed reign rejected; A=frame type, B=epoch
	EvSnapApplied  // failover/rejoin snapshot re-based the member; A=seq, B=epoch
	EvRejoined     // rejoin handshake completed; A=rejoining node, B=epoch
	EvDuplicate    // re-delivered sequenced message dropped; A=seq
	EvGap          // sequence gap detected, message held back; A=seq, B=next expected
	EvNack         // retransmit request sent to the root; A=from seq, B=to seq
	EvEagerResend  // unconfirmed guarded write re-shipped to the root; A=var

	// Member-side write coalescing (batch.go): one type per flush trigger.
	EvCoalesced    // write combined into an already-queued write; A=var
	EvFlushSize    // queue flushed at the maxMsgs bound; A=writes in flush
	EvFlushDelay   // queue flushed when maxDelay elapsed; A=writes in flush
	EvFlushRelease // queue flushed ahead of a lock release; A=writes in flush
	EvFlushSync    // queue flushed ahead of a Sync barrier; A=writes in flush
	EvFlushClose   // queue drained by node shutdown; A=writes in flush
	EvBatchSent    // batch frame sent (member flush, root fan-out, stream); A=messages, B=destination (-1: fan-out)

	// Root-side lock and update plane.
	EvSuppressed   // guarded write dropped at the root; A=var, B=suppress reason
	EvLockRequest  // member: lock request (or its retry) built; A=lock, B=token
	EvLockQueued   // lock request queued behind a holder; A=lock, B=requester
	EvLockGrant    // lock granted; A=lock, B=new holder
	EvLockFree     // lock released with empty queue; A=lock
	EvLockCancel   // queued request withdrawn; A=lock, B=requester
	EvLockDeferred // pushed lock frame left for the root's receive loop (it would queue or hand over); A=frame type, B=sender
	EvDeadlineDrop // lock request dropped, its caller's deadline passed; A=lock, B=requester
	EvRetransmit   // sequenced message re-sent on a NACK; A=seq, B=requester
	EvLostHistory  // NACKed message already overwritten in the history; A=seq, B=requester

	// Reign transitions.
	EvFence       // root lost contact with a quorum and fenced itself; A=reachable, B=epoch
	EvUnfence     // fenced root regained a quorum and replayed; A=parked frames, B=epoch
	EvFencedDrop  // fenced root's parked-frame queue past its bound; A=frame type, B=sender
	EvElection    // member began failure detection / candidacy; A=candidate, B=election epoch
	EvPromoted    // this node promoted itself to group root; A=node, B=new epoch
	EvReignChange // member adopted another node's reign; A=new root, B=new epoch
	EvDemoted     // root learned of a higher reign and stepped down; A=new root, B=new epoch

	// Resilience layer (retry/watchdog/degraded mode).
	EvLockParked      // grant designated but its multicast deferred on the quorum watermark; A=lock, B=winner
	EvSyncParked      // Sync barrier answer deferred on the quorum watermark; A=sender, B=token
	EvWatchdogStuck   // an operation exceeded its liveness budget; A=operation kind, B=operand
	EvWatchdogReissue // the watchdog re-drove a stuck operation; A=operation kind, B=operand
	EvDegradedRead    // bounded-staleness read served while the node cannot reach a reign; A=var, B=staleness ns

	// Session locks (group mutual exclusion).
	EvSessOpen  // a session opened (first entry granted); A=lock, B=session
	EvSessJoin  // an entry joined an already-open session; A=lock, B=session
	EvSessClose // the open session's last holder left; A=lock, B=session

	// State integrity (anti-entropy sweep).
	EvDigestSweep // root began an anti-entropy digest sweep; A=watermark seq
	EvDivergence  // a member's state digest diverged from the root's; A=diverged node, B=watermark seq

	// Lock leasing.
	EvLeaseGrant  // root issued or extended a lock lease; A=lock, B=holder
	EvLeaseReturn // a lease came back to the root; A=lock, B=holder
	EvLeaseRevoke // root demanded a lease back; A=lock, B=holder
	EvLeaseRenew  // member asked the root to extend its lease; A=lock
	EvLeaseLocal  // a leased re-acquire was decided locally, no wire traffic; A=lock

	// Received traffic the node discards as malformed.
	EvIDRangeDrop // frame naming a lock or variable past the table bound; A=frame type, B=sender
	EvProtoErr    // protocol error recorded (Node.Errors keeps the first 100)

	NumEventTypes // sentinel; always last
)

// Watchdog operation kinds carried in EvWatchdogStuck's A operand.
const (
	WatchAcquire    int64 = iota + 1 // member: lock acquisition outstanding past budget
	WatchSync                        // member: sync barrier outstanding past budget
	WatchRejoin                      // member: rejoin handshake unanswered past budget
	WatchFence                       // root: reign fenced past budget
	WatchParked                      // root: grant parked on the quorum watermark past budget
	WatchHolderless                  // root: holderless lock with waiters past budget
	WatchLease                       // root: leased lock with waiters past budget, revoke unanswered
)

// Abort / suppression reason codes carried in Event.B.
const (
	ReasonLockHeld   int64 = iota + 1 // speculation aborted: lock was taken
	ReasonNotHolder                   // guarded write from a non-holder
	ReasonStaleGrant                  // guarded write tagged with an old grant epoch
	ReasonClosed                      // node shut down mid-operation
)

var evNames = [NumEventTypes]string{
	EvNone: "none", EvSpecStart: "spec-start", EvSpecCommit: "spec-commit",
	EvSpecAbort: "spec-abort", EvRegular: "regular-acquire", EvLeased: "leased",
	EvEchoDropped: "echo-dropped", EvEchoRestored: "echo-restored",
	EvStaleEpoch: "stale-epoch", EvSnapApplied: "snap-applied", EvRejoined: "rejoined",
	EvDuplicate: "duplicate", EvGap: "gap", EvNack: "nack",
	EvEagerResend: "eager-resend",
	EvCoalesced:   "coalesced", EvFlushSize: "flush-size", EvFlushDelay: "flush-delay",
	EvFlushRelease: "flush-release", EvFlushSync: "flush-sync", EvFlushClose: "flush-close",
	EvBatchSent:  "batch-sent",
	EvSuppressed: "suppressed", EvLockRequest: "lock-request", EvLockQueued: "lock-queued",
	EvLockGrant: "lock-grant", EvLockFree: "lock-free", EvLockCancel: "lock-cancel",
	EvLockDeferred: "lock-deferred", EvDeadlineDrop: "deadline-drop", EvRetransmit: "retransmit", EvLostHistory: "lost-history",
	EvFence: "fence", EvUnfence: "unfence", EvFencedDrop: "fenced-drop", EvElection: "election",
	EvPromoted: "promoted", EvReignChange: "reign-change", EvDemoted: "demoted",
	EvLockParked: "lock-parked", EvSyncParked: "sync-parked",
	EvWatchdogStuck: "watchdog-stuck", EvWatchdogReissue: "watchdog-reissue",
	EvDegradedRead: "degraded-read",
	EvSessOpen:     "sess-open", EvSessJoin: "sess-join", EvSessClose: "sess-close",
	EvDigestSweep: "digest-sweep", EvDivergence: "divergence",
	EvLeaseGrant: "lease-grant", EvLeaseReturn: "lease-return", EvLeaseRevoke: "lease-revoke",
	EvLeaseRenew: "lease-renew", EvLeaseLocal: "lease-local",
	EvIDRangeDrop: "id-range-drop", EvProtoErr: "proto-err",
}

func (t EventType) String() string {
	if int(t) < len(evNames) && evNames[t] != "" {
		return evNames[t]
	}
	return fmt.Sprintf("ev(%d)", uint8(t))
}

// Event is one structured trace record. A and B are event-specific
// operands documented on the EventType constants.
type Event struct {
	At    int64 // clock nanoseconds (virtual under detsim)
	Type  EventType
	Node  int32
	Group int32
	A, B  int64
}

func (e Event) String() string {
	return fmt.Sprintf("%10dns n%d g%d %-14s a=%d b=%d", e.At, e.Node, e.Group, e.Type, e.A, e.B)
}

// slot is one ring entry. All fields are atomics so concurrent
// emit/snapshot is race-free; seq implements a per-slot seqlock: a
// writer zeroes it, stores the fields, then stores the claim index, so
// a reader that sees the same claim index before and after reading the
// fields read a consistent record, and discards the slot otherwise.
type slot struct {
	seq                atomic.Uint64
	at, a, b           atomic.Int64
	typ, nodeID, group atomic.Int32
}

type ring struct {
	mask   uint64
	cursor atomic.Uint64 // number of events ever claimed; slot = (cursor-1)&mask
	slots  []slot
}

func (r *ring) emit(e Event) {
	idx := r.cursor.Add(1)
	s := &r.slots[(idx-1)&r.mask]
	s.seq.Store(0)
	s.at.Store(e.At)
	s.typ.Store(int32(e.Type))
	s.nodeID.Store(e.Node)
	s.group.Store(e.Group)
	s.a.Store(e.A)
	s.b.Store(e.B)
	s.seq.Store(idx)
}

// Tracer is a node's one set of protocol counters — an exact count per
// event type, kept whether or not the tracer is on — plus an opt-in
// drop-oldest ring of the Events themselves. Emit is lock-free and
// allocation-free; while the tracer is disabled (the default) it is one
// atomic add and one atomic load. The zero value is a valid, disabled
// tracer.
type Tracer struct {
	on     atomic.Bool
	r      atomic.Pointer[ring]
	counts [NumEventTypes]atomic.Uint64

	mu   sync.Mutex                      // guards subscriber registration only
	subs atomic.Pointer[[]chan struct{}] // copy-on-write list read by Emit
}

// DefaultTraceCap is the ring capacity Enable uses when given zero.
const DefaultTraceCap = 1 << 12

// Enable turns the tracer on with at least the given ring capacity
// (rounded up to a power of two; 0 means DefaultTraceCap). Enabling an
// already-enabled tracer with a new capacity discards buffered events;
// per-type counts persist. Safe to call concurrently with Emit.
func (t *Tracer) Enable(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	n := 1 << bits.Len(uint(capacity-1))
	t.mu.Lock()
	if old := t.r.Load(); old == nil || len(old.slots) != n {
		t.r.Store(&ring{mask: uint64(n - 1), slots: make([]slot, n)})
	}
	t.mu.Unlock()
	t.on.Store(true)
}

// Disable stops event capture. Buffered events remain readable.
func (t *Tracer) Disable() { t.on.Store(false) }

// On reports whether the tracer is capturing. Callers building an
// Event they would pass to Emit should check this first to skip the
// construction entirely.
func (t *Tracer) On() bool { return t.on.Load() }

// Tally counts one event of typ without recording it: what Emit does
// while the tracer is off, for a caller that skips building an Event it
// would not keep.
func (t *Tracer) Tally(typ EventType) {
	if int(typ) < len(t.counts) {
		t.counts[typ].Add(1)
	}
}

// Emit counts one event and, while the tracer is on, writes it to the
// ring and nudges subscribers.
func (t *Tracer) Emit(e Event) {
	t.Tally(e.Type)
	if !t.on.Load() {
		return
	}
	if r := t.r.Load(); r != nil {
		r.emit(e)
	}
	if subs := t.subs.Load(); subs != nil {
		for _, ch := range *subs {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
}

// Count returns the exact number of events of the given type emitted
// since the tracer was created, on or off — immune to ring wraparound.
func (t *Tracer) Count(typ EventType) uint64 {
	if int(typ) >= len(t.counts) {
		return 0
	}
	return t.counts[typ].Load()
}

// Subscribe registers a wake-up channel: every Emit performs a
// non-blocking send on it. The channel is a level trigger for
// condition-based waits — a receiver rechecks its predicate on every
// tick and must tolerate missed ticks coalescing (capacity 1).
// The returned cancel func unregisters the channel.
func (t *Tracer) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	return ch, t.SubscribeChan(ch)
}

// SubscribeChan registers a caller-supplied wake-up channel, so one
// channel can watch several tracers at once (a cluster-wide condition
// wait). The channel should be buffered; sends are non-blocking and
// coalesce. The returned cancel func unregisters it. The channel is
// never closed by the tracer — an Emit racing the cancel may still be
// holding a reference to it.
func (t *Tracer) SubscribeChan(ch chan struct{}) func() {
	t.mu.Lock()
	var cur []chan struct{}
	if p := t.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]chan struct{}, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ch
	t.subs.Store(&next)
	t.mu.Unlock()
	cancel := func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		p := t.subs.Load()
		if p == nil {
			return
		}
		out := make([]chan struct{}, 0, len(*p))
		for _, c := range *p {
			if c != ch {
				out = append(out, c)
			}
		}
		t.subs.Store(&out)
	}
	return cancel
}

// Snapshot returns the buffered events, oldest first. Slots being
// overwritten mid-read are detected by their seqlock and skipped, so
// the result may be shorter than the ring under concurrent emission
// but never contains a torn record.
func (t *Tracer) Snapshot() []Event {
	r := t.r.Load()
	if r == nil {
		return nil
	}
	cur := r.cursor.Load()
	size := uint64(len(r.slots))
	start := uint64(1)
	if cur > size {
		start = cur - size + 1
	}
	out := make([]Event, 0, cur-start+1)
	for idx := start; idx <= cur; idx++ {
		s := &r.slots[(idx-1)&r.mask]
		if s.seq.Load() != idx {
			continue
		}
		e := Event{
			At:    s.at.Load(),
			Type:  EventType(s.typ.Load()),
			Node:  s.nodeID.Load(),
			Group: s.group.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
		}
		if s.seq.Load() != idx {
			continue // overwritten while reading: torn, drop it
		}
		out = append(out, e)
	}
	return out
}

// Format renders a slice of events one per line, for failure dumps.
func Format(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Since filters events at or after the given instant — handy for
// scoping a dump to the failing phase of a test.
func Since(events []Event, at time.Time) []Event {
	ns := at.UnixNano()
	out := events[:0:0]
	for _, e := range events {
		if e.At >= ns {
			out = append(out, e)
		}
	}
	return out
}
