// Package wire defines the messages exchanged by the live GWC runtime and
// a fixed-size binary codec for sending them over byte-stream transports.
//
// Every message travels either "up" (member to group root: updates, lock
// requests, releases, retransmit requests) or "down" (root to members:
// sequenced updates and lock grants). Down messages carry the group
// sequence number that establishes group write consistency.
//
// A TBatch frame packs several messages of one group into a single
// length-prefixed payload, so a burst of coalesced writes (or a root's
// sequenced fan-out of one) costs one frame instead of N. Encode appends
// to the caller's buffer and a stream reader delimits frames with
// FrameLen, so neither direction allocates per scalar frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorruptFrame marks decode failures confined to one fully-delimited
// frame: the reader consumed the frame's exact wire length, so a
// byte-stream transport may drop the frame and keep reading the same
// connection — framing is still synchronized. It wraps corruption inside
// a batch whose header checksum validated (a bad inner checksum, type,
// group, or a nested batch) and scalar frames whose checksum validated
// but whose type byte is out of range. Decode errors that do NOT match
// this sentinel — a failed header or scalar checksum, an out-of-range
// batch count — mean the frame boundary itself cannot be trusted: the
// corrupted byte could have hidden a batch header, so the stream may be
// desynchronized and the connection must be reset.
var ErrCorruptFrame = errors.New("corrupt frame")

// Type discriminates message kinds.
type Type uint8

// Message kinds. Up messages flow member -> root; down messages are the
// root's sequenced multicast.
const (
	// TUpdate is an eagerly shared write on its way to the root.
	TUpdate Type = iota + 1
	// TLockReq asks the root (lock manager) for a lock.
	TLockReq
	// TLockRel releases a lock at the root.
	TLockRel
	// TSeqUpdate is a sequenced shared write, multicast by the root.
	TSeqUpdate
	// TSeqLock is a sequenced lock-variable change (grant or free).
	TSeqLock
	// TNack asks the root to retransmit sequenced messages from Seq up to
	// (and excluding) Val, after a receiver detected a gap.
	TNack
	// THeartbeat is the root's periodic liveness beacon: Epoch names the
	// root's reign, Val the root's node ID, and Seq its current sequence
	// number (so members can notice they are behind). Members also send it
	// back to stale-epoch senders as a "you are stale" notice carrying the
	// current epoch and root.
	THeartbeat
	// TSnapReq asks the current root for a state snapshot (sent by a
	// member that just adopted a new epoch and needs a full resync).
	TSnapReq
	// TSnapVar carries one shared variable of a state snapshot or of an
	// election state report. Seq is the snapshot's sequence position.
	TSnapVar
	// TSnapLock carries one lock of a snapshot/report: Val is the lock
	// value, Var the lock's grant epoch.
	TSnapLock
	// TSnapDone terminates a snapshot/report stream; Seq is the sequence
	// position the whole snapshot corresponds to.
	TSnapDone
	// TLockCancel withdraws a lock request: the root dequeues the origin,
	// or releases the lock if the grant already raced the cancellation.
	TLockCancel
	// TBatch packs several messages of one group into a single frame: Val
	// holds the inner count and Batch the messages. Batches may not nest.
	TBatch
	// TAck is a member's cumulative acknowledgement: Seq is the highest
	// sequence number the member has contiguously applied. The root feeds
	// it into the quorum-durability watermark (resync probes carry the
	// same information implicitly).
	TAck
	// TJoinReq asks the group root to re-admit a restarted member at the
	// current epoch (a crashed-and-recovered node rejoining mid-reign).
	TJoinReq
	// TJoinAck re-admits a rejoining member: Epoch is the current reign,
	// Seq the root's sequence number, Val the root's node ID. A state
	// snapshot stream follows on the same link.
	TJoinAck
	// TSyncReq asks the root for a durability barrier: Seq carries an
	// opaque token the matching TSyncAck echoes. The root answers once
	// every message it sequenced before receiving the request is
	// committed (immediately, or after a quorum of members acked it).
	TSyncReq
	// TSyncAck answers a TSyncReq; Seq echoes the request's token.
	TSyncAck
	// TDigestReq is the root's anti-entropy probe: Seq is the watermark
	// sequence number and Val the root's state digest at that watermark.
	// Var == 1 marks a repair directive — the root found the receiver's
	// digest diverged and a corrective snapshot follows on the same link.
	TDigestReq
	// TDigestAck answers a TDigestReq: Seq is the member's highest
	// contiguously applied sequence number and Val its state digest
	// there. The root compares it against its digest checkpoint ring.
	TDigestAck
	// TLeaseGrant is the root's lock-lease message to the current holder:
	// a lease TTL (a fresh grant or an extension), or none — a revoke
	// demand asking the holder to return the lease as soon as it is out of
	// its section. It quotes the holder's entry epoch and request token,
	// so a stale lease from a previous acquisition cannot be mistaken for
	// the current one.
	TLeaseGrant
	// TLeaseRet returns a lease to the root: the member has released the
	// lock locally (or answered a revoke demand) and the root should run
	// its normal release path. Var quotes the grant epoch the lease was
	// issued under, like TLockRel.
	TLeaseRet
)

// typeMax is the highest valid message type, used by decode validation.
const typeMax = TLeaseRet

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TUpdate:
		return "update"
	case TLockReq:
		return "lock-req"
	case TLockRel:
		return "lock-rel"
	case TSeqUpdate:
		return "seq-update"
	case TSeqLock:
		return "seq-lock"
	case TNack:
		return "nack"
	case THeartbeat:
		return "heartbeat"
	case TSnapReq:
		return "snap-req"
	case TSnapVar:
		return "snap-var"
	case TSnapLock:
		return "snap-lock"
	case TSnapDone:
		return "snap-done"
	case TLockCancel:
		return "lock-cancel"
	case TBatch:
		return "batch"
	case TAck:
		return "ack"
	case TJoinReq:
		return "join-req"
	case TJoinAck:
		return "join-ack"
	case TSyncReq:
		return "sync-req"
	case TSyncAck:
		return "sync-ack"
	case TDigestReq:
		return "digest-req"
	case TDigestAck:
		return "digest-ack"
	case TLeaseGrant:
		return "lease-grant"
	case TLeaseRet:
		return "lease-ret"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Message is one protocol message. Unused fields are zero; the codec
// always transmits the full fixed layout (one branch-free encode/decode,
// at the cost of a few bytes — the paper's updates are small anyway).
//
// Each field's comment gives its first meaning. Most fields carry other
// operands on some kinds — a token, an entry epoch, a nonce, a TTL, a
// digest — and the table at the top of frames.go says which, kind by
// kind. Build frames with the Hdr constructors there and read second
// meanings through the views there, not through the raw fields.
//
// The field order is the in-memory layout, not the wire's (the codec
// writes explicit offsets): the two one-byte fields sit together and the
// 32-bit ones in pairs, so the struct has no padding to carry on the
// copies every hop makes (TestMessageLayout).
type Message struct {
	Type Type
	// Guarded marks writes to variables inside a mutex data group: the
	// root discards them from non-holders and origins drop their echoes.
	Guarded bool
	Group   uint32 // sharing group
	Src     int32  // sending node
	Origin  int32  // original writer (survives root re-multicast); on lock frames a node or a token
	// Seq is the group sequence number on down messages (and the NACK
	// start); on other kinds a token, a tag or an epoch (frames.go).
	Seq  uint64
	Var  uint32 // shared variable; on lock frames an entry epoch (frames.go)
	Lock uint32 // lock ID (lock messages)
	Val  int64  // variable value or lock word; a root, a digest, a NACK end or a batch length (frames.go)
	// Epoch is the root epoch the message belongs to. Members stamp their
	// current epoch on up messages and the root stamps its reign on down
	// messages; either side rejects traffic from a stale epoch, so a
	// revived old root cannot split the group after a failover.
	Epoch uint32
	// Session is the group-mutual-exclusion session a lock message
	// belongs to: TLockReq carries the requested session, TSeqLock the
	// open session of an entry/leave/close, TLockRel the session being
	// left, and TSnapLock the session of a reported holder. Session 0 is
	// plain mutual exclusion (the pre-session protocol, and the zero
	// value on every non-lock message).
	Session uint32
	// Deadline is a lock request's caller deadline (Unix nanoseconds; 0
	// means none), so the root can drop a request whose originator has
	// already given up instead of granting into the void; comparisons
	// assume roughly synchronized clocks, so it is an optimization, never a
	// correctness lever. On other kinds it carries a store nonce or a lease
	// TTL (frames.go).
	Deadline int64
	// Batch holds the inner messages of a TBatch frame (nil otherwise).
	// Inner messages must share the frame's group and may not themselves
	// be batches.
	Batch []Message
}

// payloadSize is the fixed layout of one message's fields, before the
// trailing checksum.
const payloadSize = 1 + 1 + 4 + 4 + 4 + 8 + 4 + 4 + 8 + 4 + 8 + 4

// EncodedSize is the fixed wire size of one non-batch message (and of a
// batch frame's header; each inner message adds EncodedSize more): the
// field layout plus a CRC32C trailer. Each encoded unit — a scalar
// message, a batch header, or one inner message of a batch — carries
// its own checksum, so a bit flip anywhere in a frame is localized and
// rejected at decode; the sender's retransmit path (NACK or retry)
// then recovers the frame as if it had been dropped.
const EncodedSize = payloadSize + 4

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64 by the standard library.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MaxBatch bounds the inner messages of one batch frame, so a corrupt or
// hostile length prefix cannot force an oversized allocation.
const MaxBatch = 4096

// putOne writes one fixed-layout message (batch header included) into
// b[0:EncodedSize], checksum trailer computed in place. The caller has
// already reserved the space, so a frame assembles directly inside the
// destination buffer — no staging array, no copy. Every payload byte is
// written, so a recycled dirty buffer never leaks stale bytes.
func putOne(b []byte, m Message) {
	_ = b[EncodedSize-1] // one bounds check for the whole layout
	b[0] = byte(m.Type)
	if m.Guarded {
		b[1] = 1
	} else {
		b[1] = 0
	}
	binary.BigEndian.PutUint32(b[2:], m.Group)
	binary.BigEndian.PutUint32(b[6:], uint32(m.Src))
	binary.BigEndian.PutUint32(b[10:], uint32(m.Origin))
	binary.BigEndian.PutUint64(b[14:], m.Seq)
	binary.BigEndian.PutUint32(b[22:], m.Var)
	binary.BigEndian.PutUint32(b[26:], m.Lock)
	binary.BigEndian.PutUint64(b[30:], uint64(m.Val))
	binary.BigEndian.PutUint32(b[38:], m.Epoch)
	binary.BigEndian.PutUint64(b[42:], uint64(m.Deadline))
	binary.BigEndian.PutUint32(b[50:], m.Session)
	binary.BigEndian.PutUint32(b[payloadSize:], crc32.Checksum(b[:payloadSize], crcTable))
}

// grow extends buf by n bytes in one reallocation at most and returns
// the extended slice; the new bytes are writable scratch.
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf[: len(buf)+n : cap(buf)]
	}
	nb := make([]byte, len(buf)+n)
	copy(nb, buf)
	return nb
}

// Encode appends the message's wire form to buf and returns the result.
// A TBatch frame encodes as its header (Val = inner count) followed by
// the inner messages back to back; the whole frame is laid out flat into
// buf with one grow and per-unit checksums computed in place. Batches
// that are empty, oversized, or nested are programming errors and panic;
// Decode, by contrast, returns errors for any malformed input.
func Encode(buf []byte, m Message) []byte {
	n := len(buf)
	if m.Type != TBatch {
		buf = grow(buf, EncodedSize)
		putOne(buf[n:], m)
		return buf
	}
	if len(m.Batch) == 0 || len(m.Batch) > MaxBatch {
		panic(fmt.Sprintf("wire: batch of %d messages outside [1,%d]", len(m.Batch), MaxBatch))
	}
	buf = grow(buf, (1+len(m.Batch))*EncodedSize)
	hdr := m
	hdr.Val = int64(len(m.Batch))
	putOne(buf[n:], hdr)
	off := n + EncodedSize
	for i := range m.Batch {
		if m.Batch[i].Type == TBatch {
			panic("wire: nested batch frame")
		}
		putOne(buf[off:], m.Batch[i])
		off += EncodedSize
	}
	return buf
}

// decodeInto parses one fixed-layout message from b straight into *m —
// batch elements decode directly into their slot of the frame's message
// array, with no intermediate Message copies.
func decodeInto(b []byte, m *Message) error {
	if len(b) < EncodedSize {
		return fmt.Errorf("wire: short message: %d bytes, want %d", len(b), EncodedSize)
	}
	if got, want := binary.BigEndian.Uint32(b[payloadSize:]), crc32.Checksum(b[:payloadSize], crcTable); got != want {
		return fmt.Errorf("wire: checksum mismatch: frame carries %08x, payload sums to %08x", got, want)
	}
	*m = Message{
		Type:     Type(b[0]),
		Guarded:  b[1] != 0,
		Group:    binary.BigEndian.Uint32(b[2:]),
		Src:      int32(binary.BigEndian.Uint32(b[6:])),
		Origin:   int32(binary.BigEndian.Uint32(b[10:])),
		Seq:      binary.BigEndian.Uint64(b[14:]),
		Var:      binary.BigEndian.Uint32(b[22:]),
		Lock:     binary.BigEndian.Uint32(b[26:]),
		Val:      int64(binary.BigEndian.Uint64(b[30:])),
		Epoch:    binary.BigEndian.Uint32(b[38:]),
		Deadline: int64(binary.BigEndian.Uint64(b[42:])),
		Session:  binary.BigEndian.Uint32(b[50:]),
	}
	if m.Type < TUpdate || m.Type > typeMax {
		// The checksum validated, so the frame really was delimited at
		// EncodedSize — the garbage type is confined to this frame.
		return fmt.Errorf("wire: unknown message type %d: %w", b[0], ErrCorruptFrame)
	}
	return nil
}

// Decode parses one message from b. A TBatch header must be followed in
// b by its full payload; truncated, oversized, or nested batch frames
// return an error (never panic). Errors matching ErrCorruptFrame are
// confined to a fully-delimited frame; see the sentinel's contract.
func Decode(b []byte) (Message, error) {
	var m Message
	if err := decodeInto(b, &m); err != nil || m.Type != TBatch {
		return m, err
	}
	count := m.Val
	if count < 1 || count > MaxBatch {
		return Message{}, fmt.Errorf("wire: batch of %d messages outside [1,%d]", count, MaxBatch)
	}
	need := int(count+1) * EncodedSize
	if len(b) < need {
		return Message{}, fmt.Errorf("wire: short batch: %d bytes, want %d", len(b), need)
	}
	// The header checksum validated, so the frame's extent on the wire is
	// trustworthy: any inner-element failure from here on is confined to
	// this frame and wraps ErrCorruptFrame.
	m.Batch = make([]Message, count)
	for i := range m.Batch {
		if err := decodeInto(b[(i+1)*EncodedSize:], &m.Batch[i]); err != nil {
			return Message{}, fmt.Errorf("wire: batch index %d: %w", i, corrupt(err))
		}
		if m.Batch[i].Type == TBatch {
			return Message{}, fmt.Errorf("wire: nested batch frame at index %d: %w", i, ErrCorruptFrame)
		}
		if m.Batch[i].Group != m.Group {
			return Message{}, fmt.Errorf("wire: batch for group %d holds message for group %d: %w", m.Group, m.Batch[i].Group, ErrCorruptFrame)
		}
	}
	return m, nil
}

// corrupt stamps err with ErrCorruptFrame unless it already matches.
func corrupt(err error) error {
	if errors.Is(err, ErrCorruptFrame) {
		return err
	}
	return fmt.Errorf("%v: %w", err, ErrCorruptFrame)
}

// EncodedLen reports the wire size of m: EncodedSize for one message,
// plus EncodedSize per inner message of a batch frame.
func EncodedLen(m Message) int {
	return EncodedSize * (1 + len(m.Batch))
}

// Equal reports whether two messages (batch payloads included) are
// identical. Message holds a slice, so == does not compile on it.
func Equal(a, b Message) bool {
	if a.Type != b.Type || a.Group != b.Group || a.Src != b.Src ||
		a.Origin != b.Origin || a.Seq != b.Seq || a.Var != b.Var ||
		a.Lock != b.Lock || a.Val != b.Val || a.Guarded != b.Guarded ||
		a.Epoch != b.Epoch || a.Deadline != b.Deadline ||
		a.Session != b.Session || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !Equal(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return true
}

// FrameLen reports the full wire length of the frame that starts with
// hdr, its first EncodedSize bytes: EncodedSize for a scalar frame, or a
// batch header's extent once its checksum and count have been verified.
// It is how a byte-stream reader delimits a frame before the rest of it
// has arrived. An error is desync-class: a corrupted length prefix
// means the frame boundary cannot be trusted. A scalar header's own
// checksum is left to Decode.
func FrameLen(hdr []byte) (int, error) {
	if len(hdr) < EncodedSize {
		return 0, fmt.Errorf("wire: short message: %d bytes, want %d", len(hdr), EncodedSize)
	}
	if Type(hdr[0]) != TBatch {
		// A checksum failure in Decode is desync-class here too: the
		// corrupted type byte could have hidden a batch header, in which
		// case only the header of a longer frame gets consumed.
		return EncodedSize, nil
	}
	// Verify the header checksum before trusting the count: a corrupted
	// length prefix would otherwise desynchronize the stream framing.
	if got, want := binary.BigEndian.Uint32(hdr[payloadSize:]), crc32.Checksum(hdr[:payloadSize], crcTable); got != want {
		return 0, fmt.Errorf("wire: checksum mismatch: batch header carries %08x, payload sums to %08x", got, want)
	}
	count := int64(binary.BigEndian.Uint64(hdr[30:]))
	if count < 1 || count > MaxBatch {
		return 0, fmt.Errorf("wire: batch of %d messages outside [1,%d]", count, MaxBatch)
	}
	return int(count+1) * EncodedSize, nil
}
