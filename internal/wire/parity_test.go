package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// refEncodeOne is the pre-flat-codec reference encoder, kept verbatim:
// stage the fixed layout in a stack array, checksum it, append-copy it
// out. The flat codec must stay byte-identical to it forever — the wire
// format is the compatibility surface between node versions.
func refEncodeOne(buf []byte, m Message) []byte {
	var tmp [EncodedSize]byte
	tmp[0] = byte(m.Type)
	if m.Guarded {
		tmp[1] = 1
	}
	binary.BigEndian.PutUint32(tmp[2:], m.Group)
	binary.BigEndian.PutUint32(tmp[6:], uint32(m.Src))
	binary.BigEndian.PutUint32(tmp[10:], uint32(m.Origin))
	binary.BigEndian.PutUint64(tmp[14:], m.Seq)
	binary.BigEndian.PutUint32(tmp[22:], m.Var)
	binary.BigEndian.PutUint32(tmp[26:], m.Lock)
	binary.BigEndian.PutUint64(tmp[30:], uint64(m.Val))
	binary.BigEndian.PutUint32(tmp[38:], m.Epoch)
	binary.BigEndian.PutUint64(tmp[42:], uint64(m.Deadline))
	binary.BigEndian.PutUint32(tmp[50:], m.Session)
	binary.BigEndian.PutUint32(tmp[payloadSize:], crc32.Checksum(tmp[:payloadSize], crcTable))
	return append(buf, tmp[:]...)
}

// refEncode is the reference whole-frame encoder (scalar or batch).
func refEncode(buf []byte, m Message) []byte {
	if m.Type != TBatch {
		return refEncodeOne(buf, m)
	}
	hdr := m
	hdr.Val = int64(len(m.Batch))
	buf = refEncodeOne(buf, hdr)
	for _, im := range m.Batch {
		buf = refEncodeOne(buf, im)
	}
	return buf
}

// randMsg builds a deterministic pseudo-random scalar message exercising
// every field, including the sign bits of the int64/int32 fields.
func randMsg(rng *rand.Rand) Message {
	return Message{
		Type:     Type(1 + rng.Intn(int(typeMax))),
		Group:    rng.Uint32(),
		Src:      int32(rng.Uint32()),
		Origin:   int32(rng.Uint32()),
		Seq:      rng.Uint64(),
		Var:      rng.Uint32(),
		Lock:     rng.Uint32(),
		Val:      int64(rng.Uint64()),
		Guarded:  rng.Intn(2) == 1,
		Epoch:    rng.Uint32(),
		Deadline: int64(rng.Uint64()),
		Session:  rng.Uint32(),
	}
}

// TestCodecByteParity proves the flat in-place codec emits frames
// byte-identical to the reference staged-copy encoder — for every scalar
// type, for batch frames of every size up to a few hundred elements, and
// for frames appended after existing bytes (the writev chunk-assembly
// path). Byte identity of every frame implies the sequenced state the
// codec ships is identical message for message.
func TestCodecByteParity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))

	// Every scalar type with saturated fields.
	for k := TUpdate; k <= typeMax; k++ {
		if k == TBatch {
			continue
		}
		for range 32 {
			m := randMsg(rng)
			m.Type = k
			got, want := Encode(nil, m), refEncode(nil, m)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: flat codec diverged:\n got  %x\n want %x", k, got, want)
			}
		}
	}

	// Batch frames across sizes, including MaxBatch.
	for _, n := range []int{1, 2, 3, 16, 255, 300, MaxBatch} {
		b := Message{Type: TBatch, Group: 77, Src: 3, Epoch: 5}
		for range n {
			im := randMsg(rng)
			if im.Type == TBatch {
				im.Type = TUpdate
			}
			im.Group = b.Group
			b.Batch = append(b.Batch, im)
		}
		got, want := Encode(nil, b), refEncode(nil, b)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch of %d: flat codec diverged", n)
		}
		if len(got) != EncodedLen(b) {
			t.Fatalf("batch of %d: encoded %d bytes, want %d", n, len(got), EncodedLen(b))
		}
	}

	// Appending after existing bytes (frames contiguous end-to-end, as
	// the transport's writev chunks assemble them).
	frames := []Message{
		{Type: THeartbeat, Group: 1, Src: 0, Seq: 9, Epoch: 2},
		{Type: TBatch, Group: 1, Src: 0, Epoch: 2, Batch: []Message{
			{Type: TSeqUpdate, Group: 1, Src: 0, Origin: 4, Seq: 10, Var: 1, Val: -5, Epoch: 2},
			{Type: TSeqLock, Group: 1, Src: 0, Seq: 11, Lock: 2, Val: 4, Epoch: 2},
		}},
		{Type: TAck, Group: 1, Src: 4, Seq: 11, Epoch: 2},
	}
	var got, want []byte
	for _, m := range frames {
		got = Encode(got, m)
		want = refEncode(want, m)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appended frame stream diverged:\n got  %x\n want %x", got, want)
	}
}

// TestEncodeReusedDirtyBuffer pins that encoding into a recycled buffer
// holding stale bytes (the pool path) cannot leak them: every payload
// byte is written, including the cleared Guarded flag.
func TestEncodeReusedDirtyBuffer(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xff}, 4*EncodedSize)
	m := Message{Type: TUpdate, Group: 1, Src: 2, Origin: 2, Var: 7} // Guarded false
	got := Encode(dirty[:0], m)
	if !bytes.Equal(got, refEncode(nil, m)) {
		t.Fatalf("dirty-buffer encode leaked stale bytes:\n got  %x\n want %x", got, refEncode(nil, m))
	}
}

// TestCorruptFrameClassification pins the reset-or-skip contract the TCP
// reader depends on: corruption confined to a delimited frame wraps
// ErrCorruptFrame (the reader skips the frame and keeps the link), while
// anything that could have desynchronized the framing does not (the
// reader must reset the connection).
func TestCorruptFrameClassification(t *testing.T) {
	batch := Encode(nil, testBatch())

	// Inner-element corruption after a valid header: frame-local.
	for _, flip := range []int{EncodedSize, EncodedSize + 31, 2*EncodedSize + 14, len(batch) - 1} {
		bad := append([]byte(nil), batch...)
		bad[flip] ^= 0x10
		_, err := Decode(bad)
		if err == nil {
			t.Fatalf("flip at %d: decode succeeded", flip)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("flip at %d: inner corruption not classified frame-local: %v", flip, err)
		}
	}

	// Nested batch and cross-group inner elements: frame-local too (the
	// frame's extent was validated by the header checksum).
	nested := append([]byte(nil), batch...)
	nested[EncodedSize] = byte(TBatch)
	if _, err := Decode(nested); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("nested inner batch not classified frame-local: %v", err)
	}

	// Scalar frame with a valid checksum but out-of-range type byte:
	// delimited at EncodedSize for sure, so frame-local.
	badType := Encode(nil, Message{Type: TUpdate, Group: 1})
	badType[0] = 200
	binary.BigEndian.PutUint32(badType[payloadSize:], crc32.Checksum(badType[:payloadSize], crcTable))
	if _, err := Decode(badType); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("valid-CRC unknown type not classified frame-local: %v", err)
	}

	// Desync class: a scalar checksum failure (the corrupted byte could
	// have hidden a batch header)...
	scalar := Encode(nil, Message{Type: TSeqUpdate, Group: 1, Seq: 4, Var: 2, Val: 9})
	scalar[14] ^= 0x01
	if _, err := Decode(scalar); err == nil || errors.Is(err, ErrCorruptFrame) {
		t.Errorf("scalar checksum failure misclassified as frame-local: %v", err)
	}
	// ...a batch header checksum failure...
	hdrBad := append([]byte(nil), batch...)
	hdrBad[14] ^= 0x01
	if _, err := Decode(hdrBad); err == nil || errors.Is(err, ErrCorruptFrame) {
		t.Errorf("batch header checksum failure misclassified as frame-local: %v", err)
	}
	// ...and short or miscounted input.
	if _, err := Decode(batch[:EncodedSize+3]); err == nil || errors.Is(err, ErrCorruptFrame) {
		t.Errorf("short batch misclassified as frame-local: %v", err)
	}

	// A stream reader (FrameLen, then Decode) agrees with the flat
	// decoder on both classes.
	if _, _, err := nextFrame(hdrBad); err == nil || errors.Is(err, ErrCorruptFrame) {
		t.Errorf("stream read: header corruption misclassified: %v", err)
	}
	inner := append([]byte(nil), batch...)
	inner[EncodedSize+5] ^= 0x40
	tail := Encode(nil, Message{Type: THeartbeat, Group: 7, Epoch: 2})
	stream := append(append([]byte(nil), inner...), tail...)
	_, stream, err := nextFrame(stream)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("stream read: inner corruption not classified frame-local: %v", err)
	}
	// After skipping the corrupt frame the stream is still synchronized:
	// the next read yields the trailing heartbeat.
	if m, _, err := nextFrame(stream); err != nil || m.Type != THeartbeat {
		t.Errorf("stream desynchronized after frame-local skip: %+v, err %v", m, err)
	}
}

// BenchmarkWireEncodeBatch gates the flat codec's encode path: one
// 16-element batch frame into a reused buffer must stay allocation-free.
func BenchmarkWireEncodeBatch(b *testing.B) {
	m := Message{Type: TBatch, Group: 1, Src: 0, Epoch: 2}
	for i := range 16 {
		m.Batch = append(m.Batch, Message{
			Type: TSeqUpdate, Group: 1, Src: 0, Origin: 3,
			Seq: uint64(i + 1), Var: uint32(i), Val: int64(i), Epoch: 2,
		})
	}
	buf := make([]byte, 0, EncodedLen(m))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf = Encode(buf[:0], m)
	}
	if len(buf) != EncodedLen(m) {
		b.Fatal("bad encode length")
	}
}

// BenchmarkWireDecodeBatch measures the slot-filling batch decode (one
// message-array allocation per frame is inherent — the frame outlives
// the read buffer).
func BenchmarkWireDecodeBatch(b *testing.B) {
	m := Message{Type: TBatch, Group: 1, Src: 0, Epoch: 2}
	for i := range 16 {
		m.Batch = append(m.Batch, Message{
			Type: TSeqUpdate, Group: 1, Src: 0, Origin: 3,
			Seq: uint64(i + 1), Var: uint32(i), Val: int64(i), Epoch: 2,
		})
	}
	buf := Encode(nil, m)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
