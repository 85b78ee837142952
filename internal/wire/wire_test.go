package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestMessageLayout pins the frame's in-memory size. A frame passes by
// value, and every hop copies it several times on its way from the sender
// through the transport to the destination's handler, so a new field must
// not add padding: place it so the struct grows by the field's own size,
// and raise the figure here by that much.
func TestMessageLayout(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(Message{}) = %d bytes, want 80", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []Message{
		{Type: TUpdate, Group: 1, Src: 2, Origin: 2, Var: 7, Val: 42, Guarded: true},
		{Type: TLockReq, Group: 3, Src: 9, Origin: 9, Lock: 1, Seq: 4, Deadline: 1 << 50},
		{Type: TLockReq, Group: 3, Src: 9, Origin: 9, Lock: 1, Seq: 4, Session: 2},
		{Type: TLockRel, Group: 3, Src: 9, Origin: 9, Lock: 1},
		{Type: TLockRel, Group: 3, Src: 9, Origin: 9, Lock: 1, Var: 6, Session: 1},
		{Type: TSeqUpdate, Group: 1, Src: 0, Origin: 5, Seq: 1 << 40, Var: 3, Val: -1},
		{Type: TSeqLock, Group: 2, Src: 0, Seq: 77, Lock: 4, Val: -1 << 60},
		{Type: TSeqLock, Group: 2, Src: 0, Seq: 78, Lock: 4, Val: 3, Var: 9, Session: 7},
		{Type: TNack, Group: 1, Src: 6, Seq: 100, Val: 110},
		{Type: THeartbeat, Group: 2, Src: 0, Seq: 55, Val: 0, Epoch: 3},
		{Type: TSnapReq, Group: 2, Src: 4, Epoch: 3},
		{Type: TSnapVar, Group: 2, Src: 0, Seq: 55, Var: 9, Val: 17, Epoch: 3},
		{Type: TSnapLock, Group: 2, Src: 0, Seq: 55, Lock: 1, Var: 6, Val: 5, Epoch: 3},
		{Type: TSnapLock, Group: 2, Src: 0, Seq: 55, Lock: 1, Var: 6, Val: 5, Epoch: 3, Session: 4},
		{Type: TSnapDone, Group: 2, Src: 0, Seq: 55, Epoch: 3},
		{Type: TLockCancel, Group: 2, Src: 4, Origin: 4, Lock: 1, Epoch: 3},
		{Type: TAck, Group: 2, Src: 4, Seq: 120, Epoch: 3},
		{Type: TJoinReq, Group: 2, Src: 4},
		{Type: TJoinAck, Group: 2, Src: 0, Seq: 120, Val: 1, Epoch: 3},
		{Type: TSyncReq, Group: 2, Src: 4, Seq: 9, Epoch: 3},
		{Type: TSyncAck, Group: 2, Src: 0, Seq: 9, Epoch: 3},
		{Type: TDigestReq, Group: 2, Src: 0, Seq: 130, Val: -1 << 55, Epoch: 3},
		{Type: TDigestReq, Group: 2, Src: 0, Seq: 130, Val: 7, Var: 1, Epoch: 3},
		{Type: TDigestAck, Group: 2, Src: 4, Seq: 129, Val: 1 << 62, Epoch: 3},
		{Type: TLeaseGrant, Group: 2, Src: 0, Origin: 7, Lock: 1, Var: 6, Deadline: int64(5e9), Epoch: 3},
		{Type: TLeaseGrant, Group: 2, Src: 0, Origin: 7, Lock: 1, Var: 6, Epoch: 3}, // revoke demand: zero deadline
		{Type: TLeaseRet, Group: 2, Src: 4, Origin: 4, Lock: 1, Var: 6, Epoch: 3},
	}
	for _, m := range tests {
		buf := Encode(nil, m)
		if len(buf) != EncodedSize {
			t.Errorf("%v: encoded %d bytes, want %d", m.Type, len(buf), EncodedSize)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Type, err)
		}
		if !Equal(got, m) {
			t.Errorf("round trip changed message:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Every scalar-encoded type (all but TBatch, which has its own tests).
	kinds := []Type{
		TUpdate, TLockReq, TLockRel, TSeqUpdate, TSeqLock, TNack,
		THeartbeat, TSnapReq, TSnapVar, TSnapLock, TSnapDone, TLockCancel,
		TAck, TJoinReq, TJoinAck, TSyncReq, TSyncAck, TDigestReq, TDigestAck,
		TLeaseGrant, TLeaseRet,
	}
	prop := func(g uint32, src, origin int32, seq uint64, v, l uint32, val int64, guarded bool, kind uint8, epoch uint32, deadline int64, session uint32) bool {
		m := Message{
			Type:     kinds[int(kind)%len(kinds)],
			Group:    g,
			Src:      src,
			Origin:   origin,
			Seq:      seq,
			Var:      v,
			Lock:     l,
			Val:      val,
			Guarded:  guarded,
			Epoch:    epoch,
			Deadline: deadline,
			Session:  session,
		}
		got, err := Decode(Encode(nil, m))
		return err == nil && Equal(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, EncodedSize-1)); err == nil {
		t.Error("Decode of short buffer succeeded, want error")
	}
	bad := Encode(nil, Message{Type: TUpdate})
	bad[0] = 0
	if _, err := Decode(bad); err == nil {
		t.Error("Decode of zero type succeeded, want error")
	}
	bad[0] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("Decode of unknown type succeeded, want error")
	}
}

// testBatch builds a representative batch frame for the codec tests.
func testBatch() Message {
	return Message{
		Type:  TBatch,
		Group: 7,
		Src:   3,
		Epoch: 2,
		Val:   3,
		Batch: []Message{
			{Type: TUpdate, Group: 7, Src: 3, Origin: 3, Var: 1, Val: 10, Epoch: 2},
			{Type: TUpdate, Group: 7, Src: 3, Origin: 3, Var: 2, Val: -20, Guarded: true, Seq: 5, Epoch: 2},
			{Type: TSeqLock, Group: 7, Src: 0, Seq: 99, Lock: 4, Val: 6, Epoch: 2},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	m := testBatch()
	buf := Encode(nil, m)
	if want := EncodedLen(m); len(buf) != want {
		t.Fatalf("encoded %d bytes, want %d", len(buf), want)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, m) {
		t.Errorf("round trip changed batch:\n got %+v\nwant %+v", got, m)
	}

	// And cut off a stream, frame by frame.
	tail := Message{Type: THeartbeat, Group: 7, Src: 0, Epoch: 2}
	stream := Encode(Encode(nil, m), tail)
	got, stream, err = nextFrame(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, m) {
		t.Errorf("stream round trip changed batch:\n got %+v\nwant %+v", got, m)
	}
	got, _, err = nextFrame(stream)
	if err != nil || !Equal(got, tail) {
		t.Errorf("message after batch: got %+v, err %v", got, err)
	}
}

func TestBatchDecodeErrors(t *testing.T) {
	full := Encode(nil, testBatch())

	// Truncated payload: any prefix that cuts into the batch body.
	for _, cut := range []int{EncodedSize, EncodedSize + 1, len(full) - 1} {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("Decode of batch truncated to %d bytes succeeded, want error", cut)
		}
	}

	// Oversized and non-positive length prefixes.
	for _, count := range []int64{0, -1, MaxBatch + 1, 1 << 40} {
		bad := append([]byte(nil), full...)
		binary.BigEndian.PutUint64(bad[30:], uint64(count))
		if _, err := Decode(bad); err == nil {
			t.Errorf("Decode of batch with count %d succeeded, want error", count)
		}
	}

	// Nested batch frame.
	nested := append([]byte(nil), full...)
	nested[EncodedSize] = byte(TBatch)
	if _, err := Decode(nested); err == nil {
		t.Error("Decode of nested batch succeeded, want error")
	}

	// Inner message for a different group.
	alien := append([]byte(nil), full...)
	binary.BigEndian.PutUint32(alien[EncodedSize+2:], 999)
	if _, err := Decode(alien); err == nil {
		t.Error("Decode of cross-group batch succeeded, want error")
	}

	// A stream cut inside a batch must error, not hang or panic.
	if _, _, err := nextFrame(full[:len(full)-5]); err == nil {
		t.Error("stream read of truncated batch succeeded, want error")
	}
	// An oversized length prefix must be rejected before any allocation.
	huge := append([]byte(nil), full[:EncodedSize]...)
	binary.BigEndian.PutUint64(huge[30:], 1<<50)
	if _, err := FrameLen(huge); err == nil {
		t.Error("FrameLen of oversized batch header succeeded, want error")
	}
}

// FuzzDecode feeds arbitrary bytes to the codec: it must return errors
// for malformed input — including truncated and oversized batch frames —
// and never panic; valid decodes must re-encode to an equal message.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(nil, Message{Type: TUpdate, Group: 1, Var: 2, Val: 3}))
	f.Add(Encode(nil, testBatch()))
	f.Add(Encode(nil, testBatch())[:EncodedSize+7])
	f.Add(make([]byte, EncodedSize*3))
	// Reign-control frames: the quorum-ack watermark and the rejoin and
	// sync handshakes ride on these, so corpus coverage starts there too.
	f.Add(Encode(nil, Message{Type: TAck, Group: 2, Src: 4, Seq: 120, Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TJoinReq, Group: 2, Src: 4}))
	f.Add(Encode(nil, Message{Type: TJoinAck, Group: 2, Src: 0, Seq: 120, Val: 1, Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TSyncReq, Group: 2, Src: 4, Seq: 9, Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TSyncAck, Group: 2, Src: 0, Seq: 9, Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TDigestReq, Group: 2, Src: 0, Seq: 130, Val: -1, Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TDigestAck, Group: 2, Src: 4, Seq: 129, Val: 55, Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TLeaseGrant, Group: 2, Src: 0, Origin: 7, Lock: 1, Var: 6, Deadline: int64(5e9), Epoch: 3}))
	f.Add(Encode(nil, Message{Type: TLeaseRet, Group: 2, Src: 4, Origin: 4, Lock: 1, Var: 6, Epoch: 3}))
	// The first type byte past the last kind: a frame that decodes as corrupt.
	f.Add(Encode(nil, Message{Type: typeMax + 1, Group: 2, Src: 4, Origin: 9, Seq: 55, Lock: 1, Var: 7, Val: 3, Epoch: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		got, err := Decode(Encode(nil, m))
		if err != nil {
			t.Fatalf("re-decode of valid message failed: %v", err)
		}
		if !Equal(got, m) {
			t.Fatalf("re-encode changed message:\n got %+v\nwant %+v", got, m)
		}
		// A stream reader must agree with the flat decoder.
		sm, _, err := nextFrame(data)
		if err != nil || !Equal(sm, m) {
			t.Fatalf("stream read disagrees with Decode: %+v (err %v) vs %+v", sm, err, m)
		}
	})
}

// checkFrame runs the checks every builder's frame must pass: it carries
// h, has the fixed size, survives the flat and the stream codec unchanged,
// and never decodes with a flipped CRC bit or from a truncated buffer. It
// returns the decoded frame, for the caller to read its views.
func checkFrame(t *testing.T, h Hdr, m Message) *Message {
	t.Helper()
	if m.Hdr() != h {
		t.Fatalf("%v: header %+v, built with %+v", m.Type, m.Hdr(), h)
	}
	buf := Encode(nil, m)
	if len(buf) != EncodedSize {
		t.Fatalf("%v: encoded %d bytes, want %d", m.Type, len(buf), EncodedSize)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("%v: decode: %v", m.Type, err)
	}
	if !Equal(got, m) {
		t.Fatalf("round trip changed frame:\n got %+v\nwant %+v", got, m)
	}
	if sm, _, err := nextFrame(buf); err != nil || !Equal(sm, m) {
		t.Fatalf("stream round trip: %+v (err %v), want %+v", sm, err, m)
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x01 // flip one CRC bit
	if _, err := Decode(bad); err == nil {
		t.Fatalf("%v: decode of flipped-CRC frame succeeded", m.Type)
	}
	for _, cut := range []int{len(buf) - 1, len(buf) / 2, 1} {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("%v: decode of frame truncated to %d bytes succeeded", m.Type, cut)
		}
	}
	return &got
}

// FuzzReignFrames drives the reign-control builders — the quorum ack, the
// NACK, the heartbeat, the rejoin handshake, the durable-write sync
// barrier and the anti-entropy sweep — with fuzzed operands. These frames
// carry sequence watermarks, epoch fences and state digests, so a single
// misplaced operand silently un-fences a reign or fakes a divergence
// verdict: every view must return what the frame was built with.
func FuzzReignFrames(f *testing.F) {
	f.Add(uint8(0), uint32(2), int32(4), uint32(3), uint64(120), int64(0))
	f.Add(uint8(5), uint32(1), int32(0), uint32(7), uint64(1)<<40, int64(1))
	f.Add(uint8(8), uint32(9), int32(-1), uint32(0), uint64(9), int64(-5))
	f.Fuzz(func(t *testing.T, kind uint8, group uint32, src int32, epoch uint32, seq uint64, x int64) {
		h := Hdr{Group: group, Src: src, Epoch: epoch}
		digest, root := uint64(x), int(x)
		switch kind % 10 {
		case 0:
			if m := checkFrame(t, h, h.Ack(seq)); m.Type != TAck || m.Seq != seq {
				t.Fatalf("ack: %+v", m)
			}
		case 1:
			if m := checkFrame(t, h, h.JoinReq(seq)); m.Type != TJoinReq || m.Ticket() != seq {
				t.Fatalf("join request: %+v", m)
			}
		case 2:
			if m := checkFrame(t, h, h.JoinAck(seq, root)); m.Type != TJoinAck || m.Seq != seq || m.Root() != root {
				t.Fatalf("join answer: %+v", m)
			}
		case 3:
			if m := checkFrame(t, h, h.SyncReq(seq)); m.Type != TSyncReq || m.Ticket() != seq {
				t.Fatalf("sync request: %+v", m)
			}
		case 4:
			if m := checkFrame(t, h, h.SyncAck(seq)); m.Type != TSyncAck || m.Ticket() != seq {
				t.Fatalf("sync answer: %+v", m)
			}
		case 5:
			if m := checkFrame(t, h, h.DigestReq(seq, digest)); m.Type != TDigestReq || m.Seq != seq || m.Digest() != digest || m.Repair() {
				t.Fatalf("digest probe: %+v", m)
			}
		case 6:
			if m := checkFrame(t, h, h.Repair(seq, digest)); m.Type != TDigestReq || m.Seq != seq || m.Digest() != digest || !m.Repair() {
				t.Fatalf("repair directive: %+v", m)
			}
		case 7:
			if m := checkFrame(t, h, h.DigestAck(seq, digest)); m.Type != TDigestAck || m.Seq != seq || m.Digest() != digest {
				t.Fatalf("digest answer: %+v", m)
			}
		case 8:
			if m := checkFrame(t, h, h.Heartbeat(seq, root)); m.Type != THeartbeat || m.Seq != seq || m.Root() != root {
				t.Fatalf("heartbeat: %+v", m)
			}
		case 9:
			if from, to := checkFrame(t, h, h.Nack(seq, digest)).Range(); from != seq || to != digest {
				t.Fatalf("nack range [%d, %d], built [%d, %d]", from, to, seq, digest)
			}
		}
	})
}

// FuzzLeaseFrames drives the lease builders — a lease grant and its
// revoke demand, a lease return and a renewal — with fuzzed operands.
// Beyond the frame checks and every view returning its operand, the
// layout must be byte-identical to the established lock frames (same
// offsets, only the type byte and the CRC trailer differ), so these kinds
// cannot have grown a divergent encoding.
func FuzzLeaseFrames(f *testing.F) {
	f.Add(uint8(0), uint32(2), int32(0), uint32(3), uint32(1), uint32(6), uint32(7), int64(5e9))
	f.Add(uint8(2), uint32(1), int32(4), uint32(7), uint32(0), uint32(8), uint32(4), int64(0))
	f.Add(uint8(3), uint32(9), int32(4), uint32(0), uint32(2), uint32(1<<31), uint32(9), int64(-3))
	f.Fuzz(func(t *testing.T, kind uint8, group uint32, src int32, epoch, lock, entry, token uint32, ttl int64) {
		h := Hdr{Group: group, Src: src, Epoch: epoch}
		var m *Message
		switch kind % 4 {
		case 0:
			m = checkFrame(t, h, h.LeaseGrant(lock, entry, token, time.Duration(ttl)))
			if m.Type != TLeaseGrant || m.TTL() != time.Duration(ttl) || m.Token() != token {
				t.Fatalf("lease grant: %+v", m)
			}
		case 1:
			m = checkFrame(t, h, h.LeaseRevoke(lock, entry, token))
			if m.Type != TLeaseGrant || m.TTL() != 0 || m.Token() != token {
				t.Fatalf("revoke demand: %+v", m)
			}
		case 2:
			m = checkFrame(t, h, h.LeaseRet(lock, entry))
			if m.Type != TLeaseRet || m.Origin != src {
				t.Fatalf("lease return: %+v", m)
			}
		case 3:
			m = checkFrame(t, h, h.LeaseRenew(lock, token, entry))
			if m.Type != TLockReq || m.Token() != token || m.Origin != src || m.CallerDeadline() != 0 {
				t.Fatalf("renewal: %+v", m)
			}
		}
		if m.Lock != lock || m.EntryEpoch() != entry || m.Session != 0 {
			t.Fatalf("%v: lock %d entry epoch %d session %d, built with %d, %d, 0", m.Type, m.Lock, m.EntryEpoch(), m.Session, lock, entry)
		}
		buf := Encode(nil, *m)
		ref := *m
		ref.Type = TSeqLock
		refBuf := Encode(nil, ref)
		if !bytes.Equal(buf[1:len(buf)-4], refBuf[1:len(refBuf)-4]) {
			t.Fatalf("%v payload layout diverged from TSeqLock:\n got  %x\n want %x",
				m.Type, buf[1:len(buf)-4], refBuf[1:len(refBuf)-4])
		}
	})
}

// TestChecksumCatchesEveryBitFlip flips every single bit of an encoded
// scalar frame and of a batch frame — payload and CRC trailer alike —
// and requires the decoder to reject each corruption. This is the
// wire-level half of the end-to-end integrity story: any one-bit
// transport fault surfaces as a decode error and is recovered by the
// NACK/retransmit path instead of being applied.
func TestChecksumCatchesEveryBitFlip(t *testing.T) {
	frames := [][]byte{
		Encode(nil, Message{Type: TSeqUpdate, Group: 1, Src: 0, Origin: 5, Seq: 9, Var: 3, Val: -77, Epoch: 2}),
		Encode(nil, testBatch()),
	}
	for fi, frame := range frames {
		for bit := 0; bit < len(frame)*8; bit++ {
			bad := append([]byte(nil), frame...)
			bad[bit/8] ^= 1 << (bit % 8)
			if _, err := Decode(bad); err == nil {
				t.Fatalf("frame %d: decode succeeded with bit %d flipped", fi, bit)
			}
		}
		// Unflipped control: the frame itself must decode.
		if _, err := Decode(frame); err != nil {
			t.Fatalf("frame %d: control decode failed: %v", fi, err)
		}
	}
}

// TestDigestFrameRoundTrip pins the anti-entropy frames through both
// codecs, including the repair-directive Var bit and full-width
// digest values (the digest is a uint64 carried in the int64 Val).
func TestDigestFrameRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: TDigestReq, Group: 3, Src: 0, Seq: 1 << 40, Val: int64(^uint64(0) >> 1), Epoch: 9},
		{Type: TDigestReq, Group: 3, Src: 0, Seq: 12, Val: -1, Var: 1, Epoch: 9},
		{Type: TDigestAck, Group: 3, Src: 2, Seq: 11, Val: int64(-2401053092342382579), Epoch: 9}, // 0xdeadbeefcafef00d reinterpreted
	}
	var stream []byte
	for _, m := range msgs {
		got, err := Decode(Encode(nil, m))
		if err != nil || !Equal(got, m) {
			t.Fatalf("flat round trip: got %+v (err %v), want %+v", got, err, m)
		}
		stream = Encode(stream, m)
	}
	for _, want := range msgs {
		var got Message
		var err error
		got, stream, err = nextFrame(stream)
		if err != nil || !Equal(got, want) {
			t.Fatalf("stream round trip: got %+v (err %v), want %+v", got, err, want)
		}
	}
}

// FuzzSessionFrames drives the lock-protocol builders that carry a
// session — a request, a release, an entry, a leave, a close and a state
// stream's lock word — and the cancel, with fuzzed operands. The session
// rides at the end of the fixed layout; every view, the session above
// all, must return what the frame was built with, and no operand may
// perturb its neighbours.
func FuzzSessionFrames(f *testing.F) {
	f.Add(uint8(0), uint32(2), int32(4), uint32(3), uint32(1), uint32(5), uint32(12), uint32(1), uint16(2), int64(0))
	f.Add(uint8(2), uint32(1), int32(0), uint32(7), uint32(9), uint32(6), uint32(7), uint32(0), uint16(0), int64(1)<<50)
	f.Add(uint8(5), uint32(9), int32(-1), uint32(0), uint32(0), uint32(1<<31), uint32(0), uint32(1<<31), uint16(9), int64(-6))
	f.Fuzz(func(t *testing.T, kind uint8, group uint32, src int32, epoch, lock, entry, token, session uint32, node uint16, x int64) {
		h := Hdr{Group: group, Src: src, Epoch: epoch}
		var m *Message
		switch kind % 7 {
		case 0:
			m = checkFrame(t, h, h.LockReq(lock, token, session, x))
			if m.Type != TLockReq || m.Token() != token || m.CallerDeadline() != x || m.EntryEpoch() != 0 || m.Origin != src {
				t.Fatalf("request: %+v", m)
			}
		case 1:
			m = checkFrame(t, h, h.LockRel(lock, entry, session))
			if m.Type != TLockRel || m.EntryEpoch() != entry || m.Origin != src {
				t.Fatalf("release: %+v", m)
			}
		case 2:
			m = checkFrame(t, h, h.Entry(lock, session, int(node), entry, token))
			if m.Type != TSeqLock || m.Holder() != int(node) || m.EntryEpoch() != entry || m.Token() != token || m.Deadline != 0 {
				t.Fatalf("entry: %+v", m)
			}
		case 3:
			m = checkFrame(t, h, h.Leave(lock, session, int(node), entry))
			if m.Type != TSeqLock || m.Requester() != int(node) || m.Holder() != -1 || m.EntryEpoch() != entry || m.Deadline != 0 {
				t.Fatalf("leave: %+v", m)
			}
		case 4:
			m = checkFrame(t, h, h.Close(lock, session, entry))
			if m.Type != TSeqLock || m.Val != Free || m.Holder() != -1 || m.EntryEpoch() != entry {
				t.Fatalf("close: %+v", m)
			}
		case 5:
			m = checkFrame(t, h, h.SnapLock(uint64(x), lock, session, entry, GrantValue(int(node)), token))
			if m.Type != TSnapLock || m.Seq != uint64(x) || m.Holder() != int(node) || m.EntryEpoch() != entry || m.Token() != token {
				t.Fatalf("state stream lock word: %+v", m)
			}
		case 6:
			session = 0
			m = checkFrame(t, h, h.LockCancel(lock))
			if m.Type != TLockCancel || m.Origin != src {
				t.Fatalf("cancel: %+v", m)
			}
		}
		if m.Lock != lock || m.Session != session || m.ID() != lock {
			t.Fatalf("%v: lock %d session %d, built with %d, %d", m.Type, m.Lock, m.Session, lock, session)
		}
	})
}

// nextFrame cuts the first frame off a byte stream as a stream reader
// does — FrameLen delimits it, Decode reads exactly that many bytes — and
// returns it with the rest of the stream: io.EOF if the stream is empty,
// io.ErrUnexpectedEOF if it ends inside the frame.
func nextFrame(stream []byte) (Message, []byte, error) {
	if len(stream) == 0 {
		return Message{}, nil, io.EOF
	}
	if len(stream) < EncodedSize {
		return Message{}, stream, io.ErrUnexpectedEOF
	}
	n, err := FrameLen(stream)
	if err != nil {
		return Message{}, stream, err
	}
	if len(stream) < n {
		return Message{}, stream, io.ErrUnexpectedEOF
	}
	m, err := Decode(stream[:n])
	return m, stream[n:], err
}

func TestStreamReadWrite(t *testing.T) {
	var buf []byte
	msgs := []Message{
		{Type: TUpdate, Group: 1, Src: 1, Origin: 1, Var: 2, Val: 3},
		{Type: TSeqLock, Group: 1, Src: 0, Seq: 9, Lock: 0, Val: 5},
		{Type: TNack, Group: 1, Src: 4, Seq: 10, Val: 20},
	}
	for _, m := range msgs {
		buf = Encode(buf, m)
	}
	for i, want := range msgs {
		var got Message
		var err error
		got, buf, err = nextFrame(buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !Equal(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, _, err := nextFrame(buf); err != io.EOF {
		t.Errorf("read past end: err = %v, want io.EOF", err)
	}
}

func TestTypeString(t *testing.T) {
	tests := []struct {
		t    Type
		want string
	}{
		{TUpdate, "update"},
		{TLockReq, "lock-req"},
		{TLockRel, "lock-rel"},
		{TSeqUpdate, "seq-update"},
		{TSeqLock, "seq-lock"},
		{TNack, "nack"},
		{THeartbeat, "heartbeat"},
		{TSnapReq, "snap-req"},
		{TSnapVar, "snap-var"},
		{TSnapLock, "snap-lock"},
		{TSnapDone, "snap-done"},
		{TLockCancel, "lock-cancel"},
		{TBatch, "batch"},
		{TAck, "ack"},
		{TJoinReq, "join-req"},
		{TJoinAck, "join-ack"},
		{TSyncReq, "sync-req"},
		{TSyncAck, "sync-ack"},
		{TDigestReq, "digest-req"},
		{TDigestAck, "digest-ack"},
		{TLeaseGrant, "lease-grant"},
		{TLeaseRet, "lease-ret"},
		{Type(99), "type(99)"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("Type(%d).String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}
