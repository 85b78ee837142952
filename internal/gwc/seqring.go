package gwc

import "optsync/internal/wire"

// seqRing is the root's sequencer and retransmission window in one
// structure: the reign's sequence counter plus a power-of-two ring of
// the most recently sequenced messages, each slot recording the
// sequence number it holds and the reign's cumulative digest checkpoint
// at that sequence.
//
// Everything here runs under the node lock: the root's dispatch stamps,
// and the readers (the fan-out, NACK retransmission, digest comparison,
// heartbeat watermarks) are handlers on the same node. So the slots are
// plain memory and a lookup validates only that the slot still holds the
// sequence number asked for. A batch frame's messages are stamped
// consecutively inside one collection window, so each frame occupies one
// contiguous sequence range.
type seqRing struct {
	last  uint64 // the last sequence number handed out
	mask  uint64
	slots []seqSlot
}

// seqSlot holds one sequenced message and the reign digest checkpoint
// as of that message; seq is the sequence number it holds, zero before
// the slot's first use.
type seqSlot struct {
	seq    uint64
	msg    wire.Message
	digest uint64
}

// newSeqRing builds a ring retaining at least `size` sequenced messages
// (rounded up to a power of two so slot indexing is a mask, not a
// division).
func newSeqRing(size int) *seqRing {
	n := 1
	for n < size {
		n <<= 1
	}
	return &seqRing{mask: uint64(n - 1), slots: make([]seqSlot, n)}
}

// seq is the current sequence watermark (the last stamped number).
func (r *seqRing) seq() uint64 { return r.last }

// stamp hands out the next sequence number and copies m into the slot
// that retains it, overwriting the one that held the number len(slots)
// lower, then stamps the copy with that number and epoch there — m itself
// is not written. This is the one copy the root makes of a frame it
// sequences: the fan-out, the root's own apply and every retransmission
// read the slot in place. The caller records the reign's digest
// checkpoint as of the new number in the slot it gets back.
func (r *seqRing) stamp(m *wire.Message, epoch uint32) *seqSlot {
	r.last++
	s := &r.slots[(r.last-1)&r.mask]
	s.seq, s.msg, s.digest = r.last, *m, 0
	s.msg.Seq, s.msg.Epoch = r.last, epoch
	return s
}

// slot returns the slot retaining sequence number q — its message and
// the digest checkpoint as of q — or nil when q was never stamped or has
// been overwritten (fell out of the window).
func (r *seqRing) slot(q uint64) *seqSlot {
	if q == 0 || q > r.last {
		return nil
	}
	if s := &r.slots[(q-1)&r.mask]; s.seq == q {
		return s
	}
	return nil
}
