package gwc

import (
	"testing"
	"time"

	"optsync/internal/wire"
)

func ringMsg(seq uint64) *wire.Message {
	return &wire.Message{Type: wire.TSeqUpdate, Seq: seq, Var: 7, Val: int64(seq) * 3}
}

func TestSeqRingStampAndLookup(t *testing.T) {
	r := newSeqRing(8)
	if got := r.seq(); got != 0 {
		t.Fatalf("fresh ring watermark = %d, want 0", got)
	}
	for i := 0; i < 5; i++ {
		s := r.tick()
		if s != uint64(i+1) {
			t.Fatalf("tick %d returned %d", i, s)
		}
		r.publish(ringMsg(s), s*100)
	}
	if got := r.seq(); got != 5 {
		t.Fatalf("watermark = %d, want 5", got)
	}
	for s := uint64(1); s <= 5; s++ {
		sl := r.slot(s)
		if sl == nil || sl.msg.Seq != s || sl.msg.Val != int64(s)*3 || sl.digest != s*100 {
			t.Fatalf("slot(%d) = %+v", s, sl)
		}
	}
	// Out-of-range queries: zero, future, and never-stamped slots.
	for _, q := range []uint64{0, 6, 9} {
		if r.slot(q) != nil {
			t.Fatalf("slot(%d) succeeded", q)
		}
	}
}

func TestSeqRingRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 1}, {2, 2}, {3, 4}, {8, 8}, {100, 128}, {1000, 1024}} {
		r := newSeqRing(tc.ask)
		if len(r.slots) != tc.want {
			t.Errorf("newSeqRing(%d) holds %d slots, want %d", tc.ask, len(r.slots), tc.want)
		}
	}
}

func TestSeqRingWraparound(t *testing.T) {
	r := newSeqRing(8) // exactly 8 slots
	for s := r.tick(); s <= 20; s = r.tick() {
		r.publish(ringMsg(s), s)
	}
	// Watermark is 21 (the loop's last tick published 20, then ticked 21
	// without publishing — simulate the in-flight stamp by publishing it).
	r.publish(ringMsg(21), 21)
	for s := uint64(1); s <= 13; s++ {
		if r.slot(s) != nil {
			t.Fatalf("slot(%d) returned an overwritten entry", s)
		}
	}
	for s := uint64(14); s <= 21; s++ {
		if sl := r.slot(s); sl == nil || sl.msg.Seq != s || sl.digest != s {
			t.Fatalf("retained slot(%d) = %+v", s, sl)
		}
	}
}

// TestSeqRingFreshReign pins the failover contract: promotion builds a
// fresh rootGroup, so each reign's ring starts at zero and retains
// nothing from the deposed sequencer.
func TestSeqRingFreshReign(t *testing.T) {
	old := newSeqRing(8)
	for i := 0; i < 5; i++ {
		s := old.tick()
		old.publish(ringMsg(s), s)
	}
	r := newRootGroup(GroupConfig{ID: 1, Members: []int{0, 1}, HistorySize: 8}, nil, time.Now())
	if got := r.ring.seq(); got != 0 {
		t.Fatalf("fresh reign watermark = %d, want 0", got)
	}
	if r.ring.slot(3) != nil {
		t.Fatal("fresh reign retained a deposed reign's entry")
	}
}
