package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/wire"
)

// TestDeliverToIsDecidedByEndpointType: the TCP endpoint has the
// capability and Flaky forwards it; InProc does not (it has no link
// reader to lend; its in-place path is Push), nor does any decorator written
// against Endpoint alone — and such a decorator around a TCP endpoint
// still gets every frame through Recv, which is how bench/'s tracer and
// detsim keep working.
func TestDeliverToIsDecidedByEndpointType(t *testing.T) {
	never := func([]wire.Message) { t.Error("handler called on an endpoint that refused it") }
	inproc, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inproc.Close() }()
	if DeliverTo(mustEndpoint(t, inproc, 0), never) {
		t.Error("InProc accepted DeliverTo")
	}
	if DeliverTo(mustEndpoint(t, NewFlaky(inproc, FaultPlan{}), 1), never) {
		t.Error("Flaky over InProc accepted DeliverTo")
	}

	tcp := newTCPMesh(t, 3)
	a := mustEndpoint(t, tcp, 0)
	plain := struct{ Endpoint }{mustEndpoint(t, tcp, 1)} // hides the capability
	if DeliverTo(plain, never) {
		t.Error("a decorator without the capability accepted DeliverTo")
	}
	got := make(chan wire.Message, 1)
	fl, err := NewFlaky(tcp, FaultPlan{}).Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if !DeliverTo(fl, func(run []wire.Message) { got <- run[0] }) {
		t.Fatal("Flaky over TCP did not forward DeliverTo")
	}
	const N = 100
	for i := 0; i < N; i++ {
		if err := a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < N; i++ {
		if m, ok := plain.Recv(); !ok || m.Val != int64(i) {
			t.Fatalf("Recv %d on the plain decorator = %+v ok=%v", i, m, ok)
		}
	}
	if err := a.Send(2, wire.Message{Type: wire.TUpdate, Group: 1, Val: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Val != 7 {
			t.Errorf("handler behind Flaky got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler behind Flaky was never called")
	}
}

// TestTCPSelfSendQueuesBesideHandler: a self-send is issued by a caller
// that may hold whatever the handler takes, so it must go to the inbox
// for Recv, never into the handler on the caller's stack.
func TestTCPSelfSendQueuesBesideHandler(t *testing.T) {
	tcp := newTCPMesh(t, 2)
	b := tcp.eps[1]
	var held sync.Mutex // stands in for the node lock
	DeliverTo(b, func([]wire.Message) {
		held.Lock()
		defer held.Unlock()
	})
	held.Lock()
	if err := b.Send(1, wire.Message{Type: wire.TUpdate, Group: 1, Val: 5}); err != nil {
		t.Fatal(err)
	}
	if err := b.SendEncoded(1, wire.Encode(nil, wire.Message{Type: wire.TUpdate, Group: 1, Val: 6})); err != nil {
		t.Fatal(err)
	}
	held.Unlock()
	for _, want := range []int64{5, 6} {
		if m, ok := b.Recv(); !ok || m.Val != want {
			t.Fatalf("Recv = %+v ok=%v, want the queued self-send %d", m, ok, want)
		}
	}
}

// TestTCPLinksDeliverIndependently: each inbound link calls the handler
// on its own reader. A handler call that blocks holds up its own link
// only — the others keep delivering, in their own link order.
func TestTCPLinksDeliverIndependently(t *testing.T) {
	const (
		links = 3
		per   = 2000
	)
	tcp := newTCPMesh(t, links+1)
	dst := tcp.eps[links]
	var (
		mu       sync.Mutex
		next     [links]int64
		finished int
	)
	release := make(chan struct{}) // link 0's first call waits here
	allDone := make(chan struct{})
	DeliverTo(dst, func(run []wire.Message) {
		if run[0].Src == 0 && run[0].Val == 0 {
			<-release
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range run {
			src := run[i].Src
			if run[i].Val != next[src] {
				t.Errorf("link %d delivered value %d, want %d: per-link FIFO broken", src, run[i].Val, next[src])
			}
			next[src]++
			if next[src] == per {
				if finished++; finished == links {
					close(allDone)
				}
			}
		}
	})
	var wg sync.WaitGroup
	for src := 0; src < links; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tcp.eps[src].Send(links, wire.Message{Type: wire.TUpdate, Group: 1, Src: int32(src), Val: int64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	// Links 1 and 2 finish while link 0's reader is still parked inside
	// its first handler call.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return next[1] == per && next[2] == per
	}, "the other links to deliver past a blocked one")
	mu.Lock()
	if next[0] != 0 {
		t.Errorf("link 0 delivered %d frames while its handler call was blocked", next[0])
	}
	mu.Unlock()
	close(release)
	select {
	case <-allDone:
	case <-time.After(10 * time.Second):
		t.Fatal("link 0 never resumed after its handler call returned")
	}
}

// TestTCPCloseWaitsForHandler: Close returns only once every reader has
// left the handler, and no handler call starts after it has returned.
func TestTCPCloseWaitsForHandler(t *testing.T) {
	tcp := newTCPMesh(t, 2)
	a, b := tcp.eps[0], tcp.eps[1]
	var closed atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	DeliverTo(b, func([]wire.Message) {
		if closed.Load() {
			t.Error("handler called after Close returned")
		}
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keeps the link busy across the Close
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = a.Send(1, wire.Message{Type: wire.TUpdate, Group: 1})
			}
		}
	}()
	<-entered
	done := make(chan struct{})
	go func() {
		_ = b.Close()
		closed.Store(true)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a reader was inside the handler")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after the handler returned")
	}
	time.Sleep(20 * time.Millisecond) // a late call would land here
	close(stop)
	wg.Wait()
}

// TestTCPBlockedHandlerPushesBackIntoSenderOutbox: while a handler call
// is blocked its reader reads nothing, so a sender that keeps going fills
// the kernel's buffers, its writer stalls mid-write, and its *bounded*
// outbox sheds — the receiver queues nothing. Once the handler returns
// the link flows again.
func TestTCPBlockedHandlerPushesBackIntoSenderOutbox(t *testing.T) {
	tcp := newTCPMesh(t, 2)
	a, b := tcp.eps[0], tcp.eps[1]
	release := make(chan struct{})
	var calls, frames atomic.Int64
	DeliverTo(b, func(run []wire.Message) {
		calls.Add(1)
		frames.Add(int64(len(run)))
		<-release
	})
	m := wire.Message{Type: wire.TUpdate, Group: 1, Val: 7}
	send := func(k int) {
		for i := 0; i < k; i++ {
			if err := a.Send(1, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(1)
	waitFor(t, 5*time.Second, func() bool { return calls.Load() == 1 }, "the first frame to reach the handler")

	// Paced well inside the outbox bound, so nothing is shed until the
	// writer itself stops making progress: that stall is the pushback.
	sent, stalled := uint64(1), false
	for deadline := time.Now().Add(20 * time.Second); !stalled; {
		if time.Now().After(deadline) {
			t.Fatal("the sender's writer never stalled against a blocked handler: the backlog is growing somewhere")
		}
		send(512)
		sent += 512
		for wait := time.Now().Add(200 * time.Millisecond); tcp.stats.framesSent.Load() < sent; {
			if time.Now().After(wait) {
				stalled = true
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := tcp.stats.sendDrops.Load(); got != 0 {
		t.Fatalf("SendDrops = %d before the outbox could have filled", got)
	}
	send(2 * defaultOutboxBound)
	if tcp.stats.sendDrops.Load() == 0 {
		t.Error("SendDrops = 0 after overflowing the outbox of a stalled writer")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("handler entered %d times while blocked, want 1", got)
	}
	b.inbox.mu.Lock()
	queued := len(b.inbox.queue) - b.inbox.head
	b.inbox.mu.Unlock()
	if queued != 0 {
		t.Errorf("receiver inbox holds %d frames: the handler path must not queue", queued)
	}
	before := frames.Load()
	close(release)
	waitFor(t, 10*time.Second, func() bool { return frames.Load() > before }, "the link to flow again once the handler returned")
}
