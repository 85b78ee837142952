package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"optsync/internal/wire"
)

// mustEndpoint fetches an endpoint or fails the test.
func mustEndpoint(t testing.TB, n Network, id int) Endpoint {
	t.Helper()
	ep, err := n.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// exerciseNetwork sends a burst from node 0 to node 1 and checks ordered,
// complete delivery. Shared by the in-proc and TCP tests.
func exerciseNetwork(t *testing.T, n Network) {
	t.Helper()
	a := mustEndpoint(t, n, 0)
	b := mustEndpoint(t, n, 1)
	const count = 200
	var wg sync.WaitGroup
	wg.Add(1)
	var got []wire.Message
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			m, ok := b.Recv()
			if !ok {
				return
			}
			got = append(got, m)
		}
	}()
	for i := 0; i < count; i++ {
		m := wire.Message{Type: wire.TUpdate, Group: 1, Src: 0, Origin: 0, Var: 1, Val: int64(i)}
		if err := a.Send(1, m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	wg.Wait()
	if len(got) != count {
		t.Fatalf("received %d messages, want %d", len(got), count)
	}
	for i, m := range got {
		if m.Val != int64(i) {
			t.Fatalf("message %d has value %d: out of order or corrupted", i, m.Val)
		}
	}
}

func TestInProcDelivery(t *testing.T) {
	n, err := NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	exerciseNetwork(t, n)
}

func TestInProcSelfSend(t *testing.T) {
	n, _ := NewInProc(2)
	defer func() { _ = n.Close() }()
	ep := mustEndpoint(t, n, 0)
	want := wire.Message{Type: wire.TLockReq, Group: 2, Src: 0, Origin: 0, Lock: 5}
	if err := ep.Send(0, want); err != nil {
		t.Fatal(err)
	}
	got, ok := ep.Recv()
	if !ok || !wire.Equal(got, want) {
		t.Errorf("self send: got %+v ok=%v", got, ok)
	}
}

func TestInProcCloseUnblocksRecv(t *testing.T) {
	n, _ := NewInProc(2)
	ep := mustEndpoint(t, n, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := ep.Recv(); ok {
			t.Error("Recv returned ok after close")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	_ = n.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestInProcBounds(t *testing.T) {
	n, _ := NewInProc(2)
	defer func() { _ = n.Close() }()
	if _, err := n.Endpoint(2); err == nil {
		t.Error("Endpoint(2) on a 2-node net succeeded")
	}
	if _, err := n.Endpoint(-1); err == nil {
		t.Error("Endpoint(-1) succeeded")
	}
	ep := mustEndpoint(t, n, 0)
	if err := ep.Send(7, wire.Message{Type: wire.TUpdate}); err == nil {
		t.Error("Send to out-of-range node succeeded")
	}
	if _, err := NewInProc(0); err == nil {
		t.Error("NewInProc(0) succeeded")
	}
}

func TestInProcSendAfterCloseFails(t *testing.T) {
	n, _ := NewInProc(2)
	ep := mustEndpoint(t, n, 0)
	_ = n.Close()
	if err := ep.Send(1, wire.Message{Type: wire.TUpdate}); err == nil {
		t.Error("Send after close succeeded, want error")
	}
}

func TestTCPDelivery(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	exerciseNetwork(t, n)
}

func TestTCPSelfSend(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ep := mustEndpoint(t, n, 1)
	want := wire.Message{Type: wire.TNack, Group: 9, Src: 1, Seq: 10, Val: 12}
	if err := ep.Send(1, want); err != nil {
		t.Fatal(err)
	}
	got, ok := ep.Recv()
	if !ok || !wire.Equal(got, want) {
		t.Errorf("self send: got %+v ok=%v", got, ok)
	}
}

func TestTCPBidirectional(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	a, b := mustEndpoint(t, n, 0), mustEndpoint(t, n, 1)
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Src: 0, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.Recv(); !ok || m.Val != 1 {
		t.Fatalf("b.Recv = %+v, %v", m, ok)
	}
	if err := b.Send(0, wire.Message{Type: wire.TUpdate, Src: 1, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if m, ok := a.Recv(); !ok || m.Val != 2 {
		t.Fatalf("a.Recv = %+v, %v", m, ok)
	}
}

func TestTCPCloseTerminates(t *testing.T) {
	n, err := NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustEndpoint(t, n, 0), mustEndpoint(t, n, 1)
	// Establish a live connection, then close; Close must not hang on the
	// idle reader goroutines.
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Src: 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("no delivery before close")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("TCP network close hung")
	}
}

func TestFlakyDropsAndDuplicates(t *testing.T) {
	inner, _ := NewInProc(2)
	f := NewFlaky(inner, FaultPlan{DropRate: 0.5, Seed: 42})
	defer func() { _ = f.Close() }()
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)
	const count = 400
	for i := 0; i < count; i++ {
		if err := a.Send(1, wire.Message{Type: wire.TUpdate, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dropped, _, _ := f.Stats()
	if dropped < count/4 || dropped > 3*count/4 {
		t.Errorf("dropped %d of %d at rate 0.5", dropped, count)
	}
	// Everything not dropped must still arrive, in order.
	var got int
	for got < count-dropped {
		if _, ok := b.Recv(); !ok {
			t.Fatal("receiver closed early")
		}
		got++
	}
}

func TestFlakySparesType(t *testing.T) {
	inner, _ := NewInProc(2)
	f := NewFlaky(inner, FaultPlan{DropRate: 1.0, Seed: 1, Spare: []wire.Type{wire.TNack}})
	defer func() { _ = f.Close() }()
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, wire.Message{Type: wire.TNack, Seq: 5, Val: 6}); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Recv()
	if !ok || m.Type != wire.TNack {
		t.Errorf("spared NACK not delivered: %+v ok=%v", m, ok)
	}
	if d, _, _ := f.Stats(); d != 1 {
		t.Errorf("dropped = %d, want 1 (only the update)", d)
	}
}

func TestFlakyDeterministicSeed(t *testing.T) {
	run := func() (int, int, int) {
		inner, _ := NewInProc(2)
		f := NewFlaky(inner, FaultPlan{DropRate: 0.3, DupRate: 0.3, Seed: 7})
		defer func() { _ = f.Close() }()
		a := mustEndpoint(t, f, 0)
		for i := 0; i < 100; i++ {
			_ = a.Send(1, wire.Message{Type: wire.TUpdate, Val: int64(i)})
		}
		return f.Stats()
	}
	d1, dup1, del1 := run()
	d2, dup2, del2 := run()
	if d1 != d2 || dup1 != dup2 || del1 != del2 {
		t.Errorf("same seed produced different faults: (%d,%d,%d) vs (%d,%d,%d)", d1, dup1, del1, d2, dup2, del2)
	}
}

func TestFlakySparesMultipleTypes(t *testing.T) {
	inner, _ := NewInProc(2)
	f := NewFlaky(inner, FaultPlan{
		DropRate: 1.0, Seed: 1,
		Spare: []wire.Type{wire.TNack, wire.THeartbeat},
	})
	defer func() { _ = f.Close() }()
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)
	_ = a.Send(1, wire.Message{Type: wire.TUpdate, Val: 1}) // dropped
	_ = a.Send(1, wire.Message{Type: wire.TNack, Seq: 5, Val: 6})
	_ = a.Send(1, wire.Message{Type: wire.THeartbeat, Epoch: 2})
	for _, want := range []wire.Type{wire.TNack, wire.THeartbeat} {
		m, ok := b.Recv()
		if !ok || m.Type != want {
			t.Fatalf("spared %v not delivered: %+v ok=%v", want, m, ok)
		}
	}
	if d, _, _ := f.Stats(); d != 1 {
		t.Errorf("dropped = %d, want 1 (only the update)", d)
	}
}

func TestFlakyDuplicateRollsDelay(t *testing.T) {
	// With DupRate and DelayRate both 1, the original is delayed AND the
	// duplicate must independently roll (and here always take) the delay
	// path, instead of being re-sent inline ahead of it.
	inner, _ := NewInProc(2)
	f := NewFlaky(inner, FaultPlan{
		DupRate: 1.0, DelayRate: 1.0, Delay: 10 * time.Millisecond, Seed: 3,
	})
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Val: 42}); err != nil {
		t.Fatal(err)
	}
	_, dup, delayed := f.Stats()
	if dup != 1 {
		t.Fatalf("duplicated = %d, want 1", dup)
	}
	if delayed != 2 {
		t.Errorf("delayed = %d, want 2 (original and duplicate both roll)", delayed)
	}
	_ = f.Close() // waits for the delayed copies to flush
	for i := 0; i < 2; i++ {
		if m, ok := b.Recv(); !ok || m.Val != 42 {
			t.Fatalf("copy %d: got %+v ok=%v", i, m, ok)
		}
	}
}

func TestFlakyCrashReviveAndPartition(t *testing.T) {
	inner, _ := NewInProc(3)
	f := NewFlaky(inner, FaultPlan{})
	defer func() { _ = f.Close() }()
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)
	c := mustEndpoint(t, f, 2)

	f.Crash(1)
	_ = a.Send(1, wire.Message{Type: wire.TUpdate, Val: 1}) // to crashed: cut
	_ = b.Send(2, wire.Message{Type: wire.TUpdate, Val: 2}) // from crashed: cut
	if iso := f.Isolated(); iso != 2 {
		t.Errorf("isolated = %d, want 2", iso)
	}
	f.Revive(1)
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Val: 3}); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.Recv(); !ok || m.Val != 3 {
		t.Fatalf("post-revive delivery failed: %+v ok=%v", m, ok)
	}

	f.Partition([]int{0}, []int{1, 2})
	_ = a.Send(2, wire.Message{Type: wire.TUpdate, Val: 4}) // across: cut
	_ = c.Send(0, wire.Message{Type: wire.TUpdate, Val: 5}) // across: cut
	if err := b.Send(2, wire.Message{Type: wire.TUpdate, Val: 6}); err != nil {
		t.Fatal(err) // same side: flows
	}
	if m, ok := c.Recv(); !ok || m.Val != 6 {
		t.Fatalf("same-side delivery failed: %+v ok=%v", m, ok)
	}
	f.Heal()
	if err := a.Send(2, wire.Message{Type: wire.TUpdate, Val: 7}); err != nil {
		t.Fatal(err)
	}
	if m, ok := c.Recv(); !ok || m.Val != 7 {
		t.Fatalf("post-heal delivery failed: %+v ok=%v", m, ok)
	}
}

func TestFlakyScheduledFaults(t *testing.T) {
	inner, _ := NewInProc(2)
	f := NewFlaky(inner, FaultPlan{})
	defer func() { _ = f.Close() }()
	a := mustEndpoint(t, f, 0)
	b := mustEndpoint(t, f, 1)
	done := f.Run([]FaultEvent{
		{After: 0, Crash: []int{1}},
		{After: 20 * time.Millisecond, Revive: []int{1}},
	})
	<-done
	if err := a.Send(1, wire.Message{Type: wire.TUpdate, Val: 9}); err != nil {
		t.Fatal(err)
	}
	if m, ok := b.Recv(); !ok || m.Val != 9 {
		t.Fatalf("delivery after scheduled revive failed: %+v ok=%v", m, ok)
	}
}

func TestTCPReconnectBackoff(t *testing.T) {
	// Reserve a port, then release it so the first sends dial a dead
	// address; the peer must back off rather than die, and deliver once a
	// listener appears.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), addr}
	a := newTCPEndpoint(0, lnA, addrs, &tcpStats{})
	defer func() { _ = a.Close() }()

	// Sends while the peer is down are dropped after failed dials.
	for i := 0; i < 5; i++ {
		_ = a.Send(1, wire.Message{Type: wire.TUpdate, Val: int64(i)})
		time.Sleep(5 * time.Millisecond)
	}

	lnB, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not re-bind reserved port %s: %v", addr, err)
	}
	b := newTCPEndpoint(1, lnB, addrs, &tcpStats{})
	defer func() { _ = b.Close() }()

	// Keep sending; once the backoff window expires the dial succeeds.
	got := make(chan wire.Message, 1)
	go func() {
		if m, ok := b.Recv(); ok {
			got <- m
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		_ = a.Send(1, wire.Message{Type: wire.TUpdate, Val: 99})
		select {
		case m := <-got:
			if m.Val == 0 {
				t.Fatalf("unexpected first message: %+v", m)
			}
			return
		case <-deadline:
			t.Fatal("no delivery after peer listener returned")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
