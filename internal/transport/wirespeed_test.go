package transport

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMailboxDropsOldestWhenBounded(t *testing.T) {
	var drops atomic.Uint64
	mb := newBoundedMailbox[int](8, &drops)
	for i := 0; i < 20; i++ {
		if err := mb.put(i); err != nil {
			t.Fatal(err)
		}
	}
	// bound 8 evicts max(1, 8/8) = 1 per overflowing put: 12 puts past
	// the bound shed the 12 oldest entries.
	if got := drops.Load(); got != 12 {
		t.Fatalf("drops = %d, want 12", got)
	}
	batch, ok := mb.drain(nil)
	if !ok || len(batch) != 8 {
		t.Fatalf("drain = %d entries, ok=%v, want 8", len(batch), ok)
	}
	for i, v := range batch {
		if v != 12+i {
			t.Fatalf("batch[%d] = %d, want %d (oldest must go first)", i, v, 12+i)
		}
	}
}

func TestMailboxUnboundedNeverDrops(t *testing.T) {
	mb := newMailbox[int]()
	for i := 0; i < 100000; i++ {
		if err := mb.put(i); err != nil {
			t.Fatal(err)
		}
	}
	batch, ok := mb.drain(nil)
	if !ok || len(batch) != 100000 {
		t.Fatalf("drain = %d entries, ok=%v, want all 100000", len(batch), ok)
	}
}

// TestTCPCorruptInnerFrameSkipsNotResets pins the silent-teardown fix:
// a frame-local decode error (corrupt inner batch element behind a valid
// header checksum) must cost exactly that frame — the reader keeps the
// connection, and every later frame on it still arrives. Before the fix
// the reader goroutine died on the first decode error and black-holed
// the rest of the stream.
func TestTCPCorruptInnerFrameSkipsNotResets(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	a, b := n.eps[0], n.eps[1]

	// Establish the link with a clean frame first.
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: -1}); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.Recv(); !ok || m.Val != -1 {
		t.Fatalf("priming delivery failed: %+v ok=%v", m, ok)
	}

	// A batch frame with a valid header and a corrupted first element:
	// the header checksum delimits the frame, so the damage is frame-local.
	batch := wire.Message{Type: wire.TBatch, Group: 1, Src: 0, Batch: []wire.Message{
		{Type: wire.TSeqUpdate, Group: 1, Seq: 1, Var: 2, Val: 10},
		{Type: wire.TSeqUpdate, Group: 1, Seq: 2, Var: 2, Val: 11},
	}}
	frame := wire.Encode(nil, batch)
	frame[wire.EncodedSize+30] ^= 0xff // first inner element's value field
	if err := a.SendEncoded(1, frame); err != nil {
		t.Fatal(err)
	}

	// Everything after the corrupt frame must still arrive on the same
	// connection.
	const K = 20
	for i := 0; i < K; i++ {
		if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < K; i++ {
			m, ok := b.Recv()
			if !ok {
				t.Errorf("receiver closed after %d of %d post-corruption frames", i, K)
				return
			}
			if m.Val != int64(i) {
				t.Errorf("frame %d has value %d: lost or reordered after corrupt frame", i, m.Val)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-corruption frames never arrived: reader tore down on a skippable frame")
	}
	s := n.TransportStats()
	if s.DecodeErrors < 1 {
		t.Errorf("DecodeErrors = %d, want >= 1", s.DecodeErrors)
	}
	if s.ConnResets != 0 {
		t.Errorf("ConnResets = %d, want 0 (frame-local corruption must not reset the link)", s.ConnResets)
	}
}

// TestTCPDesyncResetsAndReconnects pins the other half of the contract:
// a desync-class decode error (corrupt scalar frame — the checksum
// failure could hide a mis-framed batch header) makes the reader reset
// the connection proactively, and the link must then heal by redial so
// later traffic still flows.
func TestTCPDesyncResetsAndReconnects(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	a, b := n.eps[0], n.eps[1]

	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: -1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("priming delivery failed")
	}

	frame := wire.Encode(nil, wire.Message{Type: wire.TUpdate, Group: 1, Val: 5})
	frame[30] ^= 0xff // payload no longer matches the checksum
	if err := a.SendEncoded(1, frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return n.TransportStats().ConnResets >= 1
	}, "reader to reset the desynchronized connection")

	// The writer redials after its backoff; keep sending until delivery
	// resumes.
	got := make(chan wire.Message, 1)
	go func() {
		for {
			m, ok := b.Recv()
			if !ok {
				return
			}
			if m.Val == 99 {
				got <- m
				return
			}
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		_ = a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: 99})
		select {
		case <-got:
			s := n.TransportStats()
			if s.DecodeErrors < 1 {
				t.Errorf("DecodeErrors = %d, want >= 1", s.DecodeErrors)
			}
			return
		case <-deadline:
			t.Fatal("no delivery after desync reset: link never healed")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestTCPBoundedOutboxSheds pins the unbounded-outbox fix: a peer that
// accepts the connection but never reads used to grow the outbox (and
// resident memory) without limit. Now the outbox sheds its oldest
// entries and counts them, and Close still returns with the writer
// wedged mid-write.
func TestTCPBoundedOutboxSheds(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lnB.Close() }()
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	stats := &tcpStats{}
	a := newTCPEndpoint(0, lnA, addrs, stats)
	a.outBound = 64 // before the first Send creates the peer

	// The stalled peer: accepts, then never reads — the kernel buffers
	// fill and the writer blocks mid-writev while sends keep arriving.
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, aerr := lnB.Accept()
		if aerr == nil {
			accepted <- conn
		}
	}()

	m := wire.Message{Type: wire.TUpdate, Group: 1, Val: 7}
	deadline := time.Now().Add(10 * time.Second)
	for stats.sendDrops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no outbox drops against a stalled peer: outbox is unbounded")
		}
		for i := 0; i < 1024; i++ {
			if err := a.Send(1, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if stats.sendDrops.Load() == 0 {
		t.Fatal("SendDrops = 0 after overflowing a stalled peer")
	}

	// Close must not hang on the writer blocked in its vectored write.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_ = a.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("endpoint Close hung on a writer wedged against a stalled peer")
	}
	select {
	case conn := <-accepted:
		_ = conn.Close()
	default:
	}
}

// TestTCPMuxSharedLink pins connection multiplexing: traffic both ways
// between a node pair rides one socket — the dialer's hello preamble
// lets the acceptor adopt the inbound connection as its own outgoing
// link instead of dialing a second one back.
func TestTCPMuxSharedLink(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	a, b := n.eps[0], n.eps[1]

	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.Recv(); !ok || m.Val != 1 {
		t.Fatalf("forward delivery failed: %+v ok=%v", m, ok)
	}
	// By the time the frame was delivered, b's reader has processed the
	// hello and adopted the link; the reply must reuse it, not dial.
	if err := b.Send(0, wire.Message{Type: wire.TUpdate, Group: 1, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if m, ok := a.Recv(); !ok || m.Val != 2 {
		t.Fatalf("reply delivery failed: %+v ok=%v", m, ok)
	}
	s := n.TransportStats()
	if s.Dials != 1 {
		t.Errorf("Dials = %d, want 1 (reply must not dial a second socket)", s.Dials)
	}
	if s.LinksAdopted != 1 {
		t.Errorf("LinksAdopted = %d, want 1", s.LinksAdopted)
	}
}

// TestTCPCrossedDialsLoseNothing: when two nodes dial each other at once,
// each can adopt the other's socket before its own dial returns. The
// dialer then sends on the link it adopted, but the socket it dialed must
// stay open and read — the remote adopted that one, and writes on it.
func TestTCPCrossedDialsLoseNothing(t *testing.T) {
	n := newTCPMesh(t, 2)
	a, b := n.eps[0], n.eps[1]
	in := newIntake(t, a, "inbox")
	// b's half of the crossing, by hand: a socket from "node 1" that a
	// adopts as its link to b.
	rawPeer(t, a, in, 1)
	// a's half, late: its dial reaches b, which has no link to a yet and
	// adopts it, while a keeps the link it already adopted.
	p, err := a.peer(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.dial(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return n.TransportStats().LinksAdopted == 2
	}, "b to adopt the socket a dialed")
	if err := b.Send(0, wire.Message{Type: wire.TUpdate, Group: 1, Val: 7}); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := in.take(t, 1); msgs[0].Val != 7 {
		t.Fatalf("b's reply arrived as %+v", msgs[0])
	}
}

// TestFlakyCorruptOverTCP exercises fault injection end to end over the
// real wire: Flaky's bit flips ship as literal corrupt bytes through the
// TCP codec path (not a local simulation), the remote reader's checksum
// catches every single-bit flip, and the transport counters record the
// damage. With corruption off again the link heals and delivers.
func TestFlakyCorruptOverTCP(t *testing.T) {
	inner, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlaky(inner, FaultPlan{Seed: 11})
	defer func() { _ = f.Close() }()
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)

	// Prime the link cleanly so the corruption hits an established
	// connection.
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: -1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("priming delivery failed")
	}

	f.Corrupt(1.0)
	const N = 20
	for i := 0; i < N; i++ {
		if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	injected, caught, missed := f.CorruptStats()
	if injected != N || caught != N || missed != 0 {
		t.Errorf("corrupt stats = (%d injected, %d caught, %d missed), want (%d, %d, 0): a single-bit flip must never pass the checksum", injected, caught, missed, N, N)
	}
	waitFor(t, 5*time.Second, func() bool {
		return f.TransportStats().DecodeErrors >= 1
	}, "the remote decoder to reject corrupt bytes off the real wire")

	// Wind down cleanly: delivery must resume once corruption stops
	// (redial after the resets the corrupt scalars provoked).
	f.Corrupt(0)
	got := make(chan struct{})
	go func() {
		for {
			m, ok := b.Recv()
			if !ok {
				return
			}
			if m.Val == 777 {
				close(got)
				return
			}
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		_ = a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: 777})
		select {
		case <-got:
			return
		case <-deadline:
			t.Fatal("no clean delivery after corruption stopped")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
