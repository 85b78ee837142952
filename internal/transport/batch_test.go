package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/wire"
)

func TestMailboxPutAllKeepsFIFOAcrossInterleavedPuts(t *testing.T) {
	mb := newMailbox[int]()
	next := 0
	run := func(n int) []int {
		ms := make([]int, n)
		for i := range ms {
			ms[i] = next
			next++
		}
		return ms
	}
	var got, spare []int
	take := func() {
		batch, ok := mb.drain(spare)
		if !ok {
			t.Fatal("drain reported closed")
		}
		got = append(got, batch...)
		spare = batch
	}
	for round := 0; round < 50; round++ {
		if err := mb.put(run(1)[0]); err != nil {
			t.Fatal(err)
		}
		if err := mb.putAll(run(round % 7)); err != nil { // includes empty runs
			t.Fatal(err)
		}
		if round%3 == 0 {
			// A pop between drains moves head off zero: the next drain
			// must still start at the oldest live entry.
			v, ok := mb.get()
			if !ok {
				t.Fatal("get reported closed")
			}
			got = append(got, v)
		}
		if err := mb.put(run(1)[0]); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			take()
		}
	}
	take()
	if len(got) != next {
		t.Fatalf("received %d entries, put %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("entry %d = %d: FIFO broken across put/putAll/drain", i, v)
		}
	}
}

func TestMailboxPutAllShedsOldestWhenBounded(t *testing.T) {
	var drops atomic.Uint64
	mb := newBoundedMailbox[int](8, &drops)
	ms := make([]int, 20)
	for i := range ms {
		ms[i] = i
	}
	if err := mb.putAll(ms[:5]); err != nil {
		t.Fatal(err)
	}
	if err := mb.putAll(ms[5:]); err != nil { // one run larger than the bound
		t.Fatal(err)
	}
	// Exactly put's accounting: each of the 12 entries past the bound
	// evicts max(1, 8/8) = 1 oldest entry.
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

func TestMailboxCloseWithBacklogDrainsThenReportsClosed(t *testing.T) {
	mb := newMailbox[int]()
	if err := mb.putAll([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	mb.close()
	if err := mb.putAll([]int{4}); err != ErrClosed {
		t.Fatalf("putAll after close = %v, want ErrClosed", err)
	}
	batch, ok := mb.drain(nil)
	if !ok || len(batch) != 3 || batch[0] != 1 || batch[2] != 3 {
		t.Fatalf("drain after close = %v ok=%v, want the backlog [1 2 3]", batch, ok)
	}
	if batch, ok = mb.drain(batch); ok || batch != nil {
		t.Fatalf("second drain = %v ok=%v, want closed and empty", batch, ok)
	}
}

// TestRecvBatchFallsBackToRecv: an endpoint written against Endpoint
// alone (detsim's, a tracing decorator) still works through RecvBatch,
// one message per batch, and a handed-back batch is zeroed so a consumed
// batch frame's payload is not pinned by the recycled slots.
func TestRecvBatchFallsBackToRecv(t *testing.T) {
	net, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	a, b := mustEndpoint(t, net, 0), mustEndpoint(t, net, 1)
	plain := struct{ Endpoint }{b} // hides the batch capability
	for i := 0; i < 3; i++ {
		m := wire.Message{Type: wire.TBatch, Group: 1, Batch: []wire.Message{{Type: wire.TUpdate, Group: 1, Val: int64(i)}}}
		if err := a.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	var batch []wire.Message
	for i := 0; i < 3; i++ {
		prev := batch
		var ok bool
		if batch, ok = RecvBatch(plain, batch); !ok || len(batch) != 1 || batch[0].Batch[0].Val != int64(i) {
			t.Fatalf("fallback batch %d = %+v ok=%v, want the one message %d", i, batch, ok, i)
		}
		if i > 0 && &prev[0] != &batch[0] {
			t.Fatal("fallback did not recycle the spare slot")
		}
	}
	// The capable endpoint takes a backlog whole and zeroes the spare.
	for i := 0; i < 5; i++ {
		if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	spare := batch
	batch, ok := RecvBatch(b, spare)
	if !ok || len(batch) != 5 {
		t.Fatalf("batch = %d messages ok=%v, want the backlog of 5", len(batch), ok)
	}
	if spare[0].Batch != nil {
		t.Fatal("handed-back slot still pins its batch payload")
	}
}

// intake collects what a TCP endpoint receives, either way the endpoint
// can hand frames over: batch by batch through recvBatch ("inbox"), or
// run by run through a DeliverTo handler on the link reader's own
// goroutine ("handler"). The frame reader's contract — one delivery per
// socket read, nothing held back behind bytes that have not arrived,
// corruption handling — is the same on both, so its tests run on both.
type intake struct {
	runs chan []wire.Message
}

// newIntake must be called after the cleanup that closes ep was
// registered: its own cleanup releases a handler blocked on runs, which
// the endpoint's Close waits for.
func newIntake(t *testing.T, ep *tcpEndpoint, mode string) *intake {
	t.Helper()
	in := &intake{runs: make(chan []wire.Message)}
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	pass := func(run []wire.Message) {
		select {
		case in.runs <- run:
		case <-done:
		}
	}
	if mode == "handler" {
		if !DeliverTo(ep, func(run []wire.Message) { pass(slices.Clone(run)) }) {
			t.Fatal("the TCP endpoint refused DeliverTo")
		}
		return in
	}
	go func() {
		for {
			batch, ok := ep.recvBatch(nil)
			if !ok {
				return
			}
			pass(batch)
		}
	}()
	return in
}

// take collects n messages delivery by delivery and reports the delivery
// sizes, failing if they do not all arrive in time.
func (in *intake) take(t *testing.T, n int) (msgs []wire.Message, sizes []int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for len(msgs) < n {
		select {
		case run := <-in.runs:
			msgs = append(msgs, run...)
			sizes = append(sizes, len(run))
		case <-timeout:
			t.Fatalf("%d of %d messages arrived in 5s", len(msgs), n)
		}
	}
	return msgs, sizes
}

// rawPeer dials ep's listener as node `from` would and returns the
// socket after the hello and one primed frame have gone through, so a
// test decides exactly which bytes share a segment.
func rawPeer(t *testing.T, ep *tcpEndpoint, in *intake, from int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ep.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	var hello [helloSize]byte
	putHello(&hello, from)
	prime := wire.Encode(hello[:], wire.Message{Type: wire.TUpdate, Group: 1, Val: -1})
	if _, err := conn.Write(prime); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := in.take(t, 1); msgs[0].Val != -1 {
		t.Fatalf("priming delivery failed: %+v", msgs[0])
	}
	return conn
}

// newTCPMesh builds an n-node loopback mesh that closes with the test.
func newTCPMesh(t testing.TB, n int) *TCPNet {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	nw, err := NewTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nw.Close() })
	return nw
}

// rawLink is the frame-reader tests' fixture: a two-node mesh, node 1's
// intake in the given mode, and a raw socket into node 1 posing as node 0.
func rawLink(t *testing.T, mode string) (*TCPNet, *intake, net.Conn) {
	t.Helper()
	n := newTCPMesh(t, 2)
	in := newIntake(t, n.eps[1], mode)
	return n, in, rawPeer(t, n.eps[1], in, 0)
}

// eachIntake runs f once per way a TCP endpoint hands frames over.
func eachIntake(t *testing.T, f func(t *testing.T, mode string)) {
	for _, mode := range []string{"inbox", "handler"} {
		t.Run(mode, func(t *testing.T) { f(t, mode) })
	}
}

// TestTCPOneSegmentOneBatch: every whole frame one socket read brought
// in is decoded and handed over together, in order.
func TestTCPOneSegmentOneBatch(t *testing.T) {
	eachIntake(t, func(t *testing.T, mode string) {
		n, in, conn := rawLink(t, mode)
		const N = 32 // 32 frames fit one read of the reader's 4 KiB buffer
		var seg []byte
		for i := 0; i < N; i++ {
			seg = wire.Encode(seg, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)})
		}
		if _, err := conn.Write(seg); err != nil {
			t.Fatal(err)
		}
		msgs, sizes := in.take(t, N)
		if len(sizes) != 1 {
			t.Errorf("%d frames of one segment arrived as batches %v, want one batch", N, sizes)
		}
		for i, m := range msgs {
			if m.Val != int64(i) {
				t.Fatalf("message %d has value %d: reordered within the run", i, m.Val)
			}
		}
		if got := n.TransportStats().FramesRecv; got != N+1 {
			t.Errorf("FramesRecv = %d, want %d", got, N+1)
		}
	})
}

// TestTCPSplitBatchDoesNotHoldBackSingles: frames decoded ahead of a
// batch frame whose body has not fully arrived are delivered before the
// reader waits for the rest — for a batch that fits the reader's buffer
// and for one that does not (and gets a buffer of its own). After the
// long one the reader is back to 4 KiB reads: a run of singles longer
// than that takes more than one read, and no handler call carries more
// frames than one such read holds.
func TestTCPSplitBatchDoesNotHoldBackSingles(t *testing.T) {
	eachIntake(t, func(t *testing.T, mode string) {
		for _, inner := range []int{8, 200} {
			n, in, conn := rawLink(t, mode)
			// Val is the inner count, as the decoder reports it.
			batch := wire.Message{Type: wire.TBatch, Group: 1, Val: int64(inner), Batch: make([]wire.Message, inner)}
			for i := range batch.Batch {
				batch.Batch[i] = wire.Message{Type: wire.TSeqUpdate, Group: 1, Seq: uint64(i + 1), Val: int64(i)}
			}
			seg := wire.Encode(nil, wire.Message{Type: wire.TUpdate, Group: 1, Val: 100})
			seg = wire.Encode(seg, wire.Message{Type: wire.TUpdate, Group: 1, Val: 101})
			singles := len(seg)
			seg = wire.Encode(seg, batch)
			cut := singles + wire.EncodedSize + wire.EncodedSize/2 // header and half an element
			if _, err := conn.Write(seg[:cut]); err != nil {
				t.Fatal(err)
			}
			msgs, _ := in.take(t, 2) // must not wait for the batch's tail
			if msgs[0].Val != 100 || msgs[1].Val != 101 {
				t.Fatalf("inner=%d: singles arrived as %d, %d", inner, msgs[0].Val, msgs[1].Val)
			}
			if _, err := conn.Write(seg[cut:]); err != nil {
				t.Fatal(err)
			}
			msgs, _ = in.take(t, 1)
			if !wire.Equal(msgs[0], batch) {
				t.Fatalf("inner=%d: batch frame arrived damaged", inner)
			}

			const singles2 = 100
			seg = seg[:0]
			for i := 0; i < singles2; i++ {
				seg = wire.Encode(seg, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)})
			}
			reads := n.TransportStats().SocketReads
			if _, err := conn.Write(seg); err != nil {
				t.Fatal(err)
			}
			_, sizes := in.take(t, singles2)
			if got, want := n.TransportStats().SocketReads-reads, uint64(len(seg)/recvSize+1); got < want {
				t.Errorf("inner=%d: %d bytes of singles took %d reads, want at least %d", inner, len(seg), got, want)
			}
			if mode == "handler" && slices.Max(sizes) > recvSize/wire.EncodedSize {
				t.Errorf("inner=%d: singles arrived in runs %v, more than one %d-byte read holds", inner, sizes, recvSize)
			}
		}
	})
}

// TestTCPReaderWaitsForTheEdge: a run of frames that arrives while the
// link is quiet costs one read. The reader does not ask the socket again
// after a short read; it waits for the next readiness edge.
func TestTCPReaderWaitsForTheEdge(t *testing.T) {
	eachIntake(t, func(t *testing.T, mode string) {
		n, in, conn := rawLink(t, mode)
		const K = 20
		reads := n.TransportStats().SocketReads
		for k := 0; k < K; k++ {
			time.Sleep(2 * time.Millisecond) // the reader is waiting again
			var seg []byte
			for i := 0; i < 4; i++ {
				seg = wire.Encode(seg, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)})
			}
			if _, err := conn.Write(seg); err != nil {
				t.Fatal(err)
			}
			in.take(t, 4)
		}
		if got := n.TransportStats().SocketReads - reads; got > K+2 {
			t.Errorf("%d runs, each one segment written to a quiet link, took %d reads, want at most %d", K, got, K+2)
		}
	})
}

// TestTCPFrameInTheGapIsDelivered pins the edge rule. While the handler
// delivers frame i it writes frame i+1 to the link and sleeps, so the
// runtime's poller has taken the frame's readiness edge before the
// reader waits: the frame lands after the reader's last read and before
// its wait. The reader must find it: it waits inside the one
// RawConn.Read call that read frame i, where the edge is kept. A reader
// that waited in a fresh call would lose the edge to that call's reset
// and stall the chain.
func TestTCPFrameInTheGapIsDelivered(t *testing.T) {
	const N = 100
	n := newTCPMesh(t, 2)
	conn := quietLink(t, n)
	var next atomic.Int64
	done := make(chan struct{})
	DeliverTo(n.eps[1], func(run []wire.Message) {
		for _, m := range run {
			if m.Val != next.Load() {
				t.Errorf("frame %d arrived, want %d", m.Val, next.Load())
			}
			next.Add(1)
			if m.Val == N-1 {
				close(done)
			} else if _, err := conn.Write(frame(int(m.Val) + 1)); err != nil {
				t.Error(err)
			}
			time.Sleep(time.Millisecond)
		}
	})
	if _, err := conn.Write(frame(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%d of %d chained frames arrived in 1s: a frame that landed before the wait was not read", next.Load(), N)
	}
}

// TestTCPReaderSeesACloseBehindItsLastBytes: while the handler
// delivers frame 1, the remote writes frame 2 and shuts its side, and the
// handler sleeps so that the runtime's poller takes both edges at once.
// The reader's next read gets frame 2 and the close behind it raises no
// edge of its own. The reader must still end and close the connection:
// within recvRecheck, when its next RawConn.Read call reads before it
// waits.
func TestTCPReaderSeesACloseBehindItsLastBytes(t *testing.T) {
	n := newTCPMesh(t, 2)
	conn := quietLink(t, n)
	var got atomic.Int64
	DeliverTo(n.eps[1], func(run []wire.Message) {
		for _, m := range run {
			got.Add(1)
			if m.Val != 1 {
				continue
			}
			if _, err := conn.Write(frame(2)); err != nil {
				t.Error(err)
			}
			_ = conn.(*net.TCPConn).CloseWrite()
			time.Sleep(5 * time.Millisecond)
		}
	})
	if _, err := conn.Write(frame(1)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(recvRecheck + 2*time.Second))
	var ne net.Error
	if _, err := io.Copy(io.Discard, conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the reader never saw the remote close behind its last frame")
	}
	if got.Load() != 2 {
		t.Errorf("%d of 2 frames delivered", got.Load())
	}
}

// quietLink dials node 1 of n as node 0, sends the hello and gives node
// 1's reader time to find the link empty and wait on it.
func quietLink(t *testing.T, n *TCPNet) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.eps[1].ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	var hello [helloSize]byte
	putHello(&hello, 0)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	return conn
}

// frame is the wire form of a group-1 update carrying v.
func frame(v int) []byte {
	return wire.Encode(nil, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(v)})
}

// TestTCPCorruptFrameMidRun puts a damaged frame in the middle of a run
// of frames that share one segment. Frame-local damage costs that frame
// alone; desync-class damage resets the link, but what decoded cleanly
// ahead of it is still delivered — to the handler, when one is set.
func TestTCPCorruptFrameMidRun(t *testing.T) {
	good := func(seg []byte, from, to int) []byte {
		for i := from; i < to; i++ {
			seg = wire.Encode(seg, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)})
		}
		return seg
	}
	eachIntake(t, func(t *testing.T, mode string) {
		t.Run("frame-local", func(t *testing.T) {
			n, in, conn := rawLink(t, mode)
			seg := good(nil, 0, 5)
			at := len(seg)
			seg = wire.Encode(seg, wire.Message{Type: wire.TBatch, Group: 1, Batch: []wire.Message{
				{Type: wire.TSeqUpdate, Group: 1, Seq: 1, Val: 10},
				{Type: wire.TSeqUpdate, Group: 1, Seq: 2, Val: 11},
			}})
			seg[at+wire.EncodedSize+30] ^= 0xff // first inner element's value field
			seg = good(seg, 5, 10)
			if _, err := conn.Write(seg); err != nil {
				t.Fatal(err)
			}
			msgs, _ := in.take(t, 10)
			for i, m := range msgs {
				if m.Val != int64(i) {
					t.Fatalf("message %d has value %d: lost or reordered around the corrupt frame", i, m.Val)
				}
			}
			if s := n.TransportStats(); s.DecodeErrors != 1 || s.ConnResets != 0 {
				t.Errorf("DecodeErrors = %d, ConnResets = %d, want 1 and 0", s.DecodeErrors, s.ConnResets)
			}
		})
		t.Run("desync", func(t *testing.T) {
			n, in, conn := rawLink(t, mode)
			seg := good(nil, 0, 5)
			seg[len(seg)-wire.EncodedSize+30] ^= 0xff // frame 4 no longer matches its checksum
			seg = good(seg, 5, 10)
			if _, err := conn.Write(seg); err != nil {
				t.Fatal(err)
			}
			msgs, _ := in.take(t, 4)
			for i, m := range msgs {
				if m.Val != int64(i) {
					t.Fatalf("message %d has value %d", i, m.Val)
				}
			}
			waitFor(t, 5*time.Second, func() bool {
				return n.TransportStats().ConnResets == 1
			}, "reader to reset the desynchronized connection")
			// The reset closes the socket: the peer sees EOF, not silence.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Error("read on the reset connection returned data")
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Error("reader never closed the desynchronized connection")
			}
			if got := n.TransportStats().FramesRecv; got != 5 {
				t.Errorf("FramesRecv = %d, want 5 (the primed frame and the four ahead of the damage)", got)
			}
		})
	})
}

// BenchmarkTCPRecvFrames is the receive half of the loopback stream in
// steady state: scalar frames written in runs, decoded by frameLoop and
// taken batch by batch. ci/alloc_gate.sh pins it at 0 allocs/op — the
// per-frame header that used to escape to the heap must not return.
func BenchmarkTCPRecvFrames(b *testing.B) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	src, dst := n.eps[0], n.eps[1]
	m := wire.Message{Type: wire.TSeqUpdate, Group: 1, Seq: 1, Var: 2, Val: 3}
	recv := func(want int) {
		var batch []wire.Message
		for got := 0; got < want; got += len(batch) {
			var ok bool
			if batch, ok = dst.recvBatch(batch); !ok {
				b.Error("endpoint closed mid-benchmark")
				return
			}
		}
	}
	// Warm-up: dial, grow both mailboxes' queues and the reader's run.
	const warm = 4096
	for i := 0; i < warm; i++ {
		_ = src.Send(1, m)
	}
	recv(warm)

	b.ReportAllocs()
	b.ResetTimer()
	// Runs of at most 1024 stay well inside the outbox bound, so no
	// frame is shed and every one sent is one received.
	for left := b.N; left > 0; {
		k := min(left, 1024)
		for i := 0; i < k; i++ {
			_ = src.Send(1, m)
		}
		recv(k)
		left -= k
	}
}

// TestTCPSendAfterCloseReturnsErrClosed: Send finds its peer without the
// endpoint lock, so it is the peer's closed outbox — or, for a peer never
// contacted, the slow path's closed check — that must say ErrClosed.
func TestTCPSendAfterCloseReturnsErrClosed(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	a := n.eps[0]
	m := wire.Message{Type: wire.TUpdate, Group: 1}
	if err := a.Send(1, m); err != nil { // creates peer 1; peer 2 stays unknown
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for to, which := range map[int]string{0: "itself", 1: "a known peer", 2: "a peer never contacted"} {
		if err := a.Send(to, m); !errors.Is(err, ErrClosed) {
			t.Errorf("Send to %s after Close = %v, want ErrClosed", which, err)
		}
		if err := a.SendEncoded(to, wire.Encode(nil, m)); !errors.Is(err, ErrClosed) {
			t.Errorf("SendEncoded to %s after Close = %v, want ErrClosed", which, err)
		}
	}
	if err := a.Send(3, m); err == nil || errors.Is(err, ErrClosed) {
		t.Errorf("Send out of range after Close = %v, want a range error", err)
	}
}

// BenchmarkTCPSendFrames is the send half in steady state, one frame per
// wake-up: Send, the peer's writer draining its outbox, one write of the
// pooled chunk. The far end is a bare socket that discards what it reads,
// so nothing of the receive path is counted. ci/alloc_gate.sh pins it at
// 0 allocs/op — one op is one write syscall here, so a heap object per
// write (what building a net.Buffers cost) reads as 1.
func BenchmarkTCPSendFrames(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sink.Close() }()
	go func() {
		conn, err := sink.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn) // until the endpoint closes its link
		_ = conn.Close()
	}()
	stats := &tcpStats{}
	src := newTCPEndpoint(0, ln, []string{ln.Addr().String(), sink.Addr().String()}, stats)
	defer func() { _ = src.Close() }()
	m := wire.Message{Type: wire.TSeqUpdate, Group: 1, Seq: 1, Var: 2, Val: 3}
	var sent uint64
	send := func() {
		_ = src.Send(1, m)
		sent++
		for stats.framesSent.Load() < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ { // dial, grow the outbox's two queues
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
