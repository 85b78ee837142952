package gwc

import (
	"time"

	"optsync/internal/integrity"
	"optsync/internal/obs"
	"optsync/internal/wire"
)

// rootGroup is the authoritative state the group root keeps: the write
// sequencer, the retransmission history, and the lock book.
type rootGroup struct {
	cfg GroupConfig

	// epoch identifies this root's reign; every down-message carries it
	// and up-messages from other reigns are rejected. The founding root
	// reigns in epoch 0, each failover promotion starts a higher one.
	epoch uint32

	// member is this node's member-side state for the group: the root
	// applies its own multicasts there, and reads variable guards from
	// its records (a root is always a member).
	member *memberGroup

	// vars holds the reign's one record per variable, indexed by ID
	// (table.go); book is the reign's lock manager (book.go), which keeps
	// the one record per lock.
	vars table[VarID, rootVar]
	book lockBook

	// ring is the reign's sequencer and retransmission window: the last
	// HistorySize sequenced messages, with digest checkpoints (see
	// seqring.go). r.ring.seq() is the sequence watermark.
	ring *seqRing

	// Batch collection window (batch.go): while an incoming batch frame is
	// being sequenced — one node-lock hold for the whole frame — multicast
	// parks its output here and rootEndBatch fans the contiguous sequence
	// range out as one frame per destination.
	collecting bool
	outBatch   []wire.Message

	// Fencing lease (fence.go): a root that heard from fewer than quorum
	// members (itself included) within failAfter stops sequencing —
	// up-traffic parks in fencedQ until contact returns, so a minority
	// partition cannot commit writes a healed group would discard.
	quorum     int
	fenced     bool
	fencedAt   time.Time // when the current fence began (degraded.go staleness origin)
	fenceWatch time.Time // watchdog budget clock for the fence; re-stamped per trip
	fencedQ    []wire.Message
	lastHeard  map[int]time.Time

	// joinSeen is the last rejoin token served per member (rejoin.go): a
	// duplicate TJoinReq gets its ack and snapshot re-sent but skips the
	// destructive lock-freeing a first admission performs.
	joinSeen map[int]uint64

	// Quorum-ack watermark (fence.go): acks[m] is the highest sequence
	// number member m cumulatively acknowledged, commit the quorum-th
	// highest of those (counting the root at r.ring.seq()). Sync barriers and,
	// under SetQuorumAcks, lock handoffs wait for commit to reach the
	// prefix they depend on.
	acks      map[int]uint64
	commit    uint64
	waitSyncs []syncBarrier

	// Anti-entropy digest state (integrity.go): digest accumulates every
	// sequenced data message this reign multicast, and the ring
	// checkpoints the cumulative digest as of each sequence number
	// (alongside the retained message), so a member's TDigestAck at any
	// buffered watermark can be compared without replay. lastSweep paces
	// the sweep.
	digest    integrity.Digest
	lastSweep time.Time
}

// rootVar is the reign's record of one shared variable.
type rootVar struct {
	// auth is the authoritative value; written is false until something
	// was sequenced (or merged at promotion) into it, and snapshots carry
	// only written variables.
	auth    int64
	written bool
	// seen is the highest guarded-store nonce dispositioned per origin,
	// indexed by the origin's position in cfg.Members (allocated on the
	// variable's first guarded store). Members stamp every guarded update
	// with a monotonically increasing per-group nonce so the up-path
	// loss-recovery re-sends (the eager re-ship in tick) are idempotent
	// here: a nonce at or below the recorded one is a duplicate — or a
	// superseded older store that a delay fault reordered — of a frame
	// this reign already sequenced or suppressed, and is dropped without
	// sequencing the same value twice or double-counting a suppression.
	seen []uint64
}

// syncBarrier is a deferred TSyncReq: answered once the commit watermark
// reaches needSeq.
type syncBarrier struct {
	src     int
	token   uint64
	needSeq uint64
}

// newRootGroup starts this node's reign over the group in epoch.
func (n *Node) newRootGroup(cfg GroupConfig, member *memberGroup, epoch uint32, now time.Time) *rootGroup {
	r := &rootGroup{
		cfg:       cfg,
		epoch:     epoch,
		member:    member,
		ring:      newSeqRing(cfg.HistorySize),
		quorum:    len(cfg.Members)/2 + 1,
		lastHeard: make(map[int]time.Time),
		acks:      make(map[int]uint64),
		joinSeen:  make(map[int]uint64),
		lastSweep: now,
	}
	r.cfg.Guards = nil
	// Every member starts "recently heard": the lease must observe a full
	// failAfter of silence before fencing a fresh reign. (The acting root
	// is skipped by checkFence, so its own entry is inert.)
	for _, m := range cfg.Members {
		r.lastHeard[m] = now
	}
	r.book = lockBook{sink: &bookShell{n, r}, hdr: n.rootHdr(r), members: r.cfg.Members}
	return r
}

// bookShell is the reign's side of its lock book: it carries out on the
// node what the book decides, and answers what the book asks of the
// reign. Caller holds n.mu, as for every input to the book.
type bookShell struct {
	n *Node
	r *rootGroup
}

func (s *bookShell) multicast(m wire.Message)            { s.n.multicast(s.r, m) }
func (s *bookShell) send(to int, m wire.Message)         { s.n.send(to, m) }
func (s *bookShell) park(m wire.Message)                 { s.n.fenceQueue(s.r, m) }
func (s *bookShell) emit(typ obs.EventType, a, b int64)  { s.n.emit(typ, s.r.cfg.ID, a, b) }
func (s *bookShell) holders(delta int)                   { s.n.metrics.Gauge(obs.GaugeSessHolders).Add(int64(delta)) }
func (s *bookShell) arm(b *backoff, now time.Time)       { s.n.arm(b, now, s.n.boBase(), s.n.boCap()) }
func (s *bookShell) protoErr(format string, args ...any) { s.n.protoErr(format, args...) }
func (s *bookShell) now() time.Time                      { return s.n.clock.Now() }
func (s *bookShell) seq() uint64                         { return s.r.ring.seq() }
func (s *bookShell) commit() uint64                      { return s.r.commit }
func (s *bookShell) fenced() bool                        { return s.r.fenced }
func (s *bookShell) quorumAcks() bool                    { return s.n.quorumAcks }
func (s *bookShell) leaseTTL() time.Duration             { return s.n.leaseTTL }
func (s *bookShell) quorumWaited(since time.Time) {
	s.n.metrics.Hist(obs.HistQuorumWait).Record(s.n.clock.Now().Sub(since))
}

// rootHandle processes an up-message at the group root. Caller holds
// n.mu.
func (n *Node) rootHandle(r *rootGroup, m *wire.Message) {
	if src := int(m.Src); src != n.id && r.cfg.memberOf(src) {
		// Any up-traffic from a configured member proves connectivity for
		// the fencing lease, whatever epoch the sender believes in. The
		// dispatch timestamp stands in for a per-message clock read: every
		// inner message of a batch frame arrived in the same dispatch.
		r.lastHeard[src] = n.msgNow
	}
	if m.Epoch != r.epoch {
		if m.Epoch < r.epoch {
			// The sender is following a deposed root. Tell it about this
			// reign so it resyncs; its retry then arrives with the right
			// epoch.
			n.emit(obs.EvStaleEpoch, r.cfg.ID, int64(m.Type), int64(m.Epoch))
			n.send(int(m.Src), n.rootHdr(r).Heartbeat(r.ring.seq(), n.id))
		}
		// A higher epoch means this node has itself been deposed; the new
		// root's heartbeat will demote it through the member path.
		return
	}
	if r.fenced {
		switch m.Type {
		case wire.TUpdate, wire.TLockReq, wire.TLockRel, wire.TLockCancel, wire.TSyncReq,
			wire.TLeaseRet, wire.THandoff:
			// A fenced root must not sequence, grant, or promise anything
			// new; park the traffic until quorum contact returns (or the
			// reign is deposed, which drops the queue — nothing in it was
			// ever acknowledged). Retransmits, snapshots, and acks below
			// still flow: they only serve already-sequenced state.
			n.fenceQueue(r, *m)
			return
		}
	}
	switch m.Type {
	case wire.TUpdate:
		n.rootUpdate(r, m)
	case wire.TLockReq, wire.TLockRel, wire.TLockCancel, wire.TLeaseRet, wire.THandoff:
		r.book.step(m)
	case wire.TNack:
		// A resync probe doubles as a cumulative ack: everything below the
		// sender's next expected sequence number has been applied there.
		if m.Seq > 0 {
			n.rootAck(r, int(m.Src), m.Seq-1)
		}
		n.rootNack(r, m)
	case wire.TAck:
		n.rootAck(r, int(m.Src), m.Seq)
	case wire.TSyncReq:
		n.rootSyncReq(r, m)
	case wire.TSnapReq:
		n.rootSnapSend(r, int(m.Src))
	case wire.TDigestAck:
		// Digest comparisons only read already-sequenced state, so they
		// flow while fenced — a member that rotted during the fence is
		// found, and its repair snapshot serves committed state only.
		n.rootDigestAck(r, m)
	}
}

// rootUpdate sequences a shared write, discarding speculative writes to
// guarded variables from nodes that do not hold the lock — the root "is
// both the lock owner and the sequencing arbiter for all data changes
// within the group", so improper changes never enter the group.
func (n *Node) rootUpdate(r *rootGroup, m *wire.Message) {
	rv := r.vars.at(VarID(m.Var))
	if m.Guarded {
		// Idempotence against the origin's loss-recovery re-sends: a
		// nonce at or below the highest dispositioned one for this
		// (origin, var) is a duplicate — or a delay-reordered older
		// store the origin has since superseded — of a frame this reign
		// already sequenced or suppressed. Re-sequencing it would let an
		// old value overtake a newer one, and re-suppressing it would
		// double-count one rollback.
		if i, nonce := r.cfg.indexOf(int(m.Origin)), m.Nonce(); nonce != 0 && i >= 0 {
			if rv.seen == nil {
				rv.seen = make([]uint64, len(r.cfg.Members))
			}
			if nonce <= rv.seen[i] {
				return
			}
			rv.seen[i] = nonce
		}
		mv := r.member.vars.peek(VarID(m.Var))
		if mv == nil || !mv.guarded {
			n.emit(obs.EvSuppressed, r.cfg.ID, int64(m.Var), obs.ReasonNotHolder)
			return
		}
		if reason, ok := r.book.judgeWrite(mv.guard, int(m.Origin), m.Tag()); !ok {
			n.emit(obs.EvSuppressed, r.cfg.ID, int64(m.Var), reason)
			return
		}
	}
	rv.auth, rv.written = m.Val, true
	n.multicast(r, n.rootHdr(r).SeqUpdate(m.Origin, m.Var, m.Val, m.Guarded))
}

// rootNack retransmits the sequenced range [m.Seq, m.Val] to the
// requester, as far back as the ring's retained window still reaches.
func (n *Node) rootNack(r *rootGroup, m *wire.Message) {
	from, to := m.Range()
	if to > r.ring.seq() {
		to = r.ring.seq()
	}
	var out []wire.Message
	for s := from; s <= to; s++ {
		h := r.ring.slot(s)
		if h == nil {
			// Overwritten — older than the retained window.
			n.emit(obs.EvLostHistory, r.cfg.ID, int64(s), int64(m.Src))
			continue
		}
		n.emit(obs.EvRetransmit, r.cfg.ID, int64(s), int64(m.Src))
		out = append(out, h.msg)
	}
	// Packed into batch frames when batching is on, so the repair of a
	// dropped batch costs as few frames as the original.
	n.sendStream(int(m.Src), out)
}

// multicast stamps the next sequence number on a down-message, records it
// for retransmission, and fans it out — to every member directly, or to
// the root's tree children when the group uses tree fanout (members relay
// onward in ingest). The root applies locally through the same path, so
// its own member state stays in order.
func (n *Node) multicast(r *rootGroup, m wire.Message) {
	m.Seq = r.ring.tick()
	m.Epoch = r.epoch
	// Fold data messages into the reign digest and checkpoint the
	// cumulative sum at every sequence number (lock traffic folds
	// nothing but still claims a checkpoint slot), so any watermark a
	// member acks within the retained window is comparable directly.
	if m.Type == wire.TSeqUpdate {
		r.digest.Fold(m.Var, m.Seq, m.Val)
	}
	r.ring.publish(&m, r.digest.Sum())
	if r.collecting {
		// Batch collection window: park the stamped message for the single
		// fan-out frame and advance the root's own member state now (tree
		// relay suppressed — rootEndBatch forwards the whole frame).
		r.outBatch = append(r.outBatch, m)
		n.ingestFwd(r.member, &m, false)
		if len(r.outBatch) >= wire.MaxBatch {
			// Keep frames within the codec bound; reopen the window for the
			// rest of the incoming batch.
			n.rootEndBatch(r)
			r.collecting = true
		}
		return
	}
	if !r.cfg.TreeFanout {
		for _, member := range r.cfg.Members {
			if member == n.id {
				continue
			}
			n.push(member, m)
		}
	}
	// Tree mode: ingest forwards to the root's children.
	n.ingest(r.member, &m)
}
