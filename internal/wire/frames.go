package wire

import (
	"math"
	"time"
)

// Frames by kind. A Message has one fixed layout for every kind, so most
// of its fields carry an operand their name does not say on some kind.
// This file is the one place that knows which: the runtime builds every
// frame it sends through a constructor here and reads every second
// meaning through a view here, never through the raw field.
//
// Every frame carries Type, Group, Src (the sending node) and Epoch (the
// reign the sender follows); a Hdr fills them. The operands, per kind and
// variant (— for a field left zero):
//
//	kind         variant       Origin  Seq        Var          Lock  Val           Deadline  Session
//	TUpdate      plain         writer  —          variable     —     value         —         —
//	TUpdate      guarded       writer  tag        variable     —     value         nonce     —        (Guarded)
//	TSeqUpdate                 writer  seq        variable     —     value         —         —        (Guarded copied)
//	TLockReq     request       node    token      —            lock  —             deadline  session
//	TLockReq     renewal       node    token      entry epoch  lock  —             —         —
//	TLockRel                   node    —          entry epoch  lock  —             —         session
//	TLockCancel                node    —          —            lock  —             —         —
//	TSeqLock     entry         token   seq        entry epoch  lock  GrantValue    —         session
//	TSeqLock     leave         —       seq        entry epoch  lock  RequestValue  —         session
//	TSeqLock     close         —       seq        lock epoch   lock  Free          —         session
//	TNack                      —       from       —            —     to            —         —
//	TAck                       —       applied    —            —     —             —         —
//	THeartbeat                 —       seq        —            —     root          —         —
//	TSnapReq                   —       —          —            —     —             —         —
//	TSnapVar                   —       seq        variable     —     value         —         —
//	TSnapLock                  token   seq        entry epoch  lock  lock word     —         session
//	TSnapDone                  —       seq        —            —     digest        —         —
//	TJoinReq                   —       ticket     —            —     —             —         —
//	TJoinAck                   —       seq        —            —     root          —         —
//	TSyncReq                   —       ticket     —            —     —             —         —
//	TSyncAck                   —       ticket     —            —     —             —         —
//	TDigestReq   probe         —       seq        —            —     digest        —         —
//	TDigestReq   repair        —       seq        1            —     digest        —         —
//	TDigestAck                 —       applied    —            —     digest        —         —
//	TLeaseGrant  grant         token   —          entry epoch  lock  —             TTL       —
//	TLeaseGrant  revoke        token   —          entry epoch  lock  —             —         —
//	TLeaseRet                  node    —          entry epoch  lock  —             —         —
//	TBatch                     —       —          —            —     count         —         —        (Batch: the frames)
//
// A token numbers one acquisition of a lock at its requester; a ticket
// numbers one rejoin or sync attempt; an entry epoch is the grant epoch a
// section's entry was announced with; a tag is the newest grant epoch the
// writer had seen; a nonce numbers the writer's guarded stores.

// Free is the lock word of a free lock (the paper's -99..99: a unique
// negative number matching no processor ID).
const Free int64 = math.MinInt64 / 2

// GrantValue is the lock word of a lock node holds: the paper's positive
// processor ID, offset by one so node 0 is nonzero.
func GrantValue(node int) int64 { return int64(node + 1) }

// RequestValue is the lock word of node's request: the negated form.
func RequestValue(node int) int64 { return -int64(node + 1) }

// holderOf decodes a lock word into the holding node, or -1.
func holderOf(word int64) int {
	if word <= 0 {
		return -1
	}
	return int(word - 1)
}

// Hdr is the header every frame carries: its group, its sender, and the
// reign it belongs to.
type Hdr struct {
	Group uint32
	Src   int32
	Epoch uint32
}

// frame stamps h on m: the one place a builder's header is filled.
func (h Hdr) frame(m Message) Message {
	m.Group, m.Src, m.Epoch = h.Group, h.Src, h.Epoch
	return m
}

// own is frame for what the sender asks on its own behalf: Origin names it.
func (h Hdr) own(m Message) Message {
	m.Origin = h.Src
	return h.frame(m)
}

// Update is a plain write of val to variable v on its way to the root.
func (h Hdr) Update(v uint32, val int64) Message {
	return h.own(Message{Type: TUpdate, Var: v, Val: val})
}

// GuardedUpdate is a write to a variable of a mutex data group, tagged
// with the newest grant epoch the writer has seen and its store nonce.
func (h Hdr) GuardedUpdate(v uint32, val int64, tag uint32, nonce uint64) Message {
	return h.own(Message{Type: TUpdate, Var: v, Val: val, Guarded: true, Seq: uint64(tag), Deadline: int64(nonce)})
}

// SeqUpdate is the sequenced copy of origin's write; multicast stamps Seq.
func (h Hdr) SeqUpdate(origin int32, v uint32, val int64, guarded bool) Message {
	return h.frame(Message{Type: TSeqUpdate, Origin: origin, Var: v, Val: val, Guarded: guarded})
}

// LockReq asks for lock in session, as acquisition token; deadline is the
// caller's give-up time (Unix nanoseconds, 0 = none).
func (h Hdr) LockReq(lock, token, session uint32, deadline int64) Message {
	return h.own(Message{Type: TLockReq, Lock: lock, Seq: uint64(token), Session: session, Deadline: deadline})
}

// LeaseRenew asks the root to extend the lease on the entry at epoch.
func (h Hdr) LeaseRenew(lock, token, epoch uint32) Message {
	return h.own(Message{Type: TLockReq, Lock: lock, Seq: uint64(token), Var: epoch})
}

// LockRel leaves the section of session the sender entered at epoch.
func (h Hdr) LockRel(lock, epoch, session uint32) Message {
	return h.own(Message{Type: TLockRel, Lock: lock, Var: epoch, Session: session})
}

// LockCancel withdraws the sender's request for lock.
func (h Hdr) LockCancel(lock uint32) Message { return h.own(Message{Type: TLockCancel, Lock: lock}) }

// LeaseRet returns the lease on the sender's entry at epoch.
func (h Hdr) LeaseRet(lock, epoch uint32) Message {
	return h.own(Message{Type: TLeaseRet, Lock: lock, Var: epoch})
}

// Entry announces node's entry into session at epoch, answering its
// request token.
func (h Hdr) Entry(lock, session uint32, node int, epoch, token uint32) Message {
	return h.frame(Message{Type: TSeqLock, Lock: lock, Session: session, Val: GrantValue(node), Var: epoch, Origin: int32(token)})
}

// Leave announces that node, in at epoch, left a section that stays open.
func (h Hdr) Leave(lock, session uint32, node int, epoch uint32) Message {
	return h.frame(Message{Type: TSeqLock, Lock: lock, Session: session, Val: RequestValue(node), Var: epoch})
}

// Close announces the lock free; epoch is its newest.
func (h Hdr) Close(lock, session, epoch uint32) Message {
	return h.frame(Message{Type: TSeqLock, Lock: lock, Session: session, Val: Free, Var: epoch})
}

// LeaseGrant leases the entry at epoch, answering token, for ttl.
func (h Hdr) LeaseGrant(lock, epoch, token uint32, ttl time.Duration) Message {
	return h.frame(Message{Type: TLeaseGrant, Lock: lock, Var: epoch, Origin: int32(token), Deadline: int64(ttl)})
}

// LeaseRevoke demands the lease on the entry at epoch back.
func (h Hdr) LeaseRevoke(lock, epoch, token uint32) Message {
	return h.frame(Message{Type: TLeaseGrant, Lock: lock, Var: epoch, Origin: int32(token)})
}

// Nack asks for the sequenced range [from, to].
func (h Hdr) Nack(from, to uint64) Message {
	return h.frame(Message{Type: TNack, Seq: from, Val: int64(to)})
}

// Ack acknowledges the sequenced prefix through applied.
func (h Hdr) Ack(applied uint64) Message { return h.frame(Message{Type: TAck, Seq: applied}) }

// Heartbeat announces root's reign, at sequence number seq.
func (h Hdr) Heartbeat(seq uint64, root int) Message {
	return h.frame(Message{Type: THeartbeat, Seq: seq, Val: int64(root)})
}

// SnapReq asks the root for a state snapshot.
func (h Hdr) SnapReq() Message { return h.frame(Message{Type: TSnapReq}) }

// SnapVar is variable v's piece of a state stream taken at seq.
func (h Hdr) SnapVar(seq uint64, v uint32, val int64) Message {
	return h.frame(Message{Type: TSnapVar, Seq: seq, Var: v, Val: val})
}

// SnapLock is one lock word of lock's piece of a state stream taken at seq;
// a holder's word carries the token its entry answered.
func (h Hdr) SnapLock(seq uint64, lock, session, epoch uint32, word int64, token uint32) Message {
	return h.frame(Message{Type: TSnapLock, Seq: seq, Lock: lock, Session: session, Var: epoch, Val: word, Origin: int32(token)})
}

// SnapDone ends a state stream taken at seq, where the sender's digest was digest.
func (h Hdr) SnapDone(seq, digest uint64) Message {
	return h.frame(Message{Type: TSnapDone, Seq: seq, Val: int64(digest)})
}

// JoinReq asks for re-admission, attempt ticket.
func (h Hdr) JoinReq(ticket uint64) Message { return h.frame(Message{Type: TJoinReq, Seq: ticket}) }

// JoinAck re-admits a member into root's reign, at sequence number seq.
func (h Hdr) JoinAck(seq uint64, root int) Message {
	return h.frame(Message{Type: TJoinAck, Seq: seq, Val: int64(root)})
}

// SyncReq asks for durability barrier ticket.
func (h Hdr) SyncReq(ticket uint64) Message { return h.frame(Message{Type: TSyncReq, Seq: ticket}) }

// SyncAck answers durability barrier ticket.
func (h Hdr) SyncAck(ticket uint64) Message { return h.frame(Message{Type: TSyncAck, Seq: ticket}) }

// DigestReq is the root's anti-entropy probe: its digest at seq.
func (h Hdr) DigestReq(seq, digest uint64) Message {
	return h.frame(Message{Type: TDigestReq, Seq: seq, Val: int64(digest)})
}

// Repair tells a member its digest at seq diverged from the root's; a
// corrective snapshot follows.
func (h Hdr) Repair(seq, digest uint64) Message {
	return h.frame(Message{Type: TDigestReq, Seq: seq, Val: int64(digest), Var: 1})
}

// DigestAck reports the member's digest at its applied prefix.
func (h Hdr) DigestAck(applied, digest uint64) Message {
	return h.frame(Message{Type: TDigestAck, Seq: applied, Val: int64(digest)})
}

// Batch packs ms, which share h, into one frame.
func (h Hdr) Batch(ms []Message) Message { return h.frame(Message{Type: TBatch, Batch: ms}) }

// Hdr is m's header.
func (m *Message) Hdr() Hdr { return Hdr{Group: m.Group, Src: m.Src, Epoch: m.Epoch} }

// Token is the acquisition token of a lock request, entry, snapshot entry
// or lease frame.
func (m *Message) Token() uint32 {
	if m.Type == TLockReq {
		return uint32(m.Seq)
	}
	return uint32(m.Origin)
}

// Ticket is the attempt number of a rejoin or sync frame.
func (m *Message) Ticket() uint64 { return m.Seq }

// EntryEpoch is the entry epoch a lock frame quotes (a close: the lock's
// newest; a renewal request: the leased entry's, else 0).
func (m *Message) EntryEpoch() uint32 { return m.Var }

// Tag is a guarded update's grant-epoch tag.
func (m *Message) Tag() uint32 { return uint32(m.Seq) }

// Nonce is a guarded update's store nonce (0 from senders that mint none).
func (m *Message) Nonce() uint64 { return uint64(m.Deadline) }

// CallerDeadline is a lock request's give-up time (Unix nanoseconds, 0 = none).
func (m *Message) CallerDeadline() int64 { return m.Deadline }

// TTL is a lease grant's duration; zero marks a revoke demand.
func (m *Message) TTL() time.Duration { return time.Duration(m.Deadline) }

// Repair reports whether a digest probe is a repair directive.
func (m *Message) Repair() bool { return m.Var == 1 }

// Digest is the state digest a digest frame or a stream's end carries.
func (m *Message) Digest() uint64 { return uint64(m.Val) }

// Root is the root a heartbeat or join answer names.
func (m *Message) Root() int { return int(m.Val) }

// Range is a NACK's requested sequence range.
func (m *Message) Range() (from, to uint64) { return m.Seq, uint64(m.Val) }

// Holder is the node a lock word grants the lock to, or -1.
func (m *Message) Holder() int { return holderOf(m.Val) }

// Requester is the node whose request a lock word is (a leave), or -1.
func (m *Message) Requester() int { return holderOf(-m.Val) }

// ID is the variable or lock a frame names, 0 for kinds that name none.
func (m *Message) ID() uint32 {
	switch m.Type {
	case TUpdate, TSeqUpdate, TSnapVar:
		return m.Var
	case TLockReq, TLockRel, TLockCancel, TSeqLock, TSnapLock, TLeaseGrant, TLeaseRet:
		return m.Lock
	}
	return 0
}

// ToRoot reports whether the group root handles frames of kind t (TJoinReq
// goes to whoever it reaches).
func (t Type) ToRoot() bool {
	switch t {
	case TUpdate, TLockReq, TLockRel, TNack, TLockCancel, TSnapReq, TAck, TSyncReq, TDigestAck, TLeaseRet:
		return true
	}
	return false
}

// Repairable reports whether a retry repairs the loss of m: a sequenced
// frame (the receiver's resync probe refetches it), a rejoin or sync
// answer (its request re-sends every maintenance tick), or a batch of
// them. Everything else is sent once, and a fault injector must not drop
// it.
func (m *Message) Repairable() bool {
	t := m.Type
	if t == TBatch && len(m.Batch) > 0 {
		t = m.Batch[0].Type
	}
	return t == TSeqUpdate || t == TSeqLock || t == TJoinAck || t == TSyncAck
}
