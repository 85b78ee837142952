package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optsync/internal/wire"
)

// TestPushIsDecidedByEndpointType: InProc has the capability and Flaky
// forwards it; on anything else — a decorator written against Endpoint
// alone, which is what bench/'s tracer and detsim's endpoint are — Push
// is Send and no consumer is taken.
func TestPushIsDecidedByEndpointType(t *testing.T) {
	inproc, err := NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inproc.Close() }()
	fl := NewFlaky(inproc, FaultPlan{})
	a := mustEndpoint(t, fl, 0)
	b := mustEndpoint(t, fl, 1)
	plain := struct{ Endpoint }{mustEndpoint(t, inproc, 2)} // hides the capability
	if ConsumeInPlace(plain, func(wire.Message) bool { t.Error("consumer called on an endpoint that refused it"); return true }) {
		t.Error("a decorator without the capability accepted ConsumeInPlace")
	}
	var inPlace []int64
	if !ConsumeInPlace(b, func(m wire.Message) bool { inPlace = append(inPlace, m.Val); return true }) {
		t.Fatal("Flaky over InProc did not forward ConsumeInPlace")
	}
	// In place at b, through Flaky; queued at the plain endpoint's mailbox
	// (no consumer), and queued again when pushed *from* it (Push is Send).
	for i, push := range []struct {
		from Endpoint
		to   int
	}{{a, 1}, {a, 2}, {plain, 2}} {
		m := wire.Message{Type: wire.TSeqUpdate, Val: int64(i)}
		if err := Push(push.from, push.to, &m); err != nil {
			t.Fatal(err)
		}
	}
	if len(inPlace) != 1 || inPlace[0] != 0 {
		t.Errorf("consumer at b saw %v, want [0]", inPlace)
	}
	for want := int64(1); want <= 2; want++ {
		if m, ok := plain.Recv(); !ok || m.Val != want {
			t.Errorf("Recv on the plain endpoint = %+v ok=%v, want Val %d", m, ok, want)
		}
	}
	// The one push b's consumer took is b's to count (the len check
	// above); the transport counts only what it queued.
	if s := fl.TransportStats(); s.PushedInPlace != 0 || s.PushedQueued != 1 || s.PushedDeclined != 0 {
		t.Errorf("transport counted in place %d, queued %d, declined %d; want 0, 1 and 0 (the push from the plain endpoint was a Send)", s.PushedInPlace, s.PushedQueued, s.PushedDeclined)
	}
}

// TestPushBehindBacklogNeverAsks: with a frame queued ahead, a push on the
// same link queues behind it without offering itself to the consumer, and
// the receiver gets both in link order.
func TestPushBehindBacklogNeverAsks(t *testing.T) {
	inproc, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inproc.Close() }()
	a, b := mustEndpoint(t, inproc, 0), mustEndpoint(t, inproc, 1)
	var asked []int64
	if !ConsumeInPlace(b, func(m wire.Message) bool { asked = append(asked, m.Val); return true }) {
		t.Fatal("no in-place capability")
	}
	if err := a.Send(1, wire.Message{Type: wire.TSeqUpdate, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Push(a, 1, &wire.Message{Type: wire.TSeqUpdate, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 0 {
		t.Errorf("the consumer was offered %v behind a backlog", asked)
	}
	if s := inproc.TransportStats(); s.PushedInPlace != 0 || s.PushedQueued != 1 || s.PushedDeclined != 0 {
		t.Errorf("pushed in place %d, queued %d, declined %d; want 0, 1 and 0", s.PushedInPlace, s.PushedQueued, s.PushedDeclined)
	}
	if batch, ok := RecvBatch(b, nil); !ok || len(batch) != 2 || batch[0].Val != 1 || batch[1].Val != 2 {
		t.Errorf("RecvBatch = %+v ok=%v, want the frames 1 and 2 in order", batch, ok)
	}
}

// TestPushQueuesBehindUnfinishedBatch: a frame the receiver has taken but
// not finished keeps the gate shut although nothing is queued, so a push
// on the same link queues instead of running ahead of it. Coming back for
// the next batch is what finishes the first; once the receiver is back
// with nothing queued, a push runs in place again.
func TestPushQueuesBehindUnfinishedBatch(t *testing.T) {
	inproc, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inproc.Close() }()
	a, b := mustEndpoint(t, inproc, 0), mustEndpoint(t, inproc, 1)
	var asked, took atomic.Int64 // the last value offered to the consumer; how many it took
	if !ConsumeInPlace(b, func(m wire.Message) bool { asked.Store(m.Val); took.Add(1); return true }) {
		t.Fatal("no in-place capability")
	}
	if err := a.Send(1, wire.Message{Type: wire.TSeqUpdate, Val: 1}); err != nil {
		t.Fatal(err)
	}
	batch, ok := RecvBatch(b, nil) // frame 1 taken, not finished
	if !ok || len(batch) != 1 || batch[0].Val != 1 {
		t.Fatalf("RecvBatch = %+v ok=%v, want frame 1", batch, ok)
	}
	if err := Push(a, 1, &wire.Message{Type: wire.TSeqUpdate, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if v := asked.Load(); v != 0 {
		t.Fatalf("the consumer was offered frame %d while frame 1 was in the receiver's unfinished batch", v)
	}
	batch, ok = RecvBatch(b, batch) // finishes frame 1, takes frame 2
	if !ok || len(batch) != 1 || batch[0].Val != 2 {
		t.Fatalf("RecvBatch = %+v ok=%v, want frame 2", batch, ok)
	}
	back := make(chan struct{})
	go func() { // finishes frame 2 and waits for more
		defer close(back)
		_, _ = RecvBatch(b, batch)
	}()
	for end := time.Now().Add(10 * time.Second); inproc.boxes[1].gate.Load() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(end) {
			t.Fatal("the gate stayed shut after the receiver came back to an empty queue")
		}
	}
	if err := Push(a, 1, &wire.Message{Type: wire.TSeqUpdate, Val: 3}); err != nil {
		t.Fatal(err)
	}
	if v := asked.Load(); v != 3 {
		t.Errorf("the consumer was last offered frame %d, want 3", v)
	}
	if s := inproc.TransportStats(); took.Load() != 1 || s.PushedInPlace != 0 || s.PushedQueued != 1 || s.PushedDeclined != 0 {
		t.Errorf("consumer took %d, transport counted in place %d, queued %d, declined %d; want 1, 0, 1 and 0", took.Load(), s.PushedInPlace, s.PushedQueued, s.PushedDeclined)
	}
	_ = inproc.Close()
	<-back
}

// TestPushKeepsLinkOrder: four producers mix Send and Push into one
// endpoint whose consumer declines at random and whose owner runs a
// RecvBatch loop beside them. Each source's counters must come out
// strictly in order, none lost, none twice — whichever goroutine handled
// them. As the contract asks, the consumer keeps other consumers and the
// owner's batch handling out by itself: it try-locks the mutex the owner
// handles a batch under and declines when it is taken. The handler state
// is otherwise unsynchronized, so the race detector checks that lock too.
func TestPushKeepsLinkOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(Network) Network
	}{
		{"inproc", func(n Network) Network { return n }},
		{"flaky", func(n Network) Network { return NewFlaky(n, FaultPlan{Seed: 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const producers, perProducer = 4, 20000
			inproc, err := NewInProc(producers + 1)
			if err != nil {
				t.Fatal(err)
			}
			nw := tc.wrap(inproc)
			sink := mustEndpoint(t, nw, producers)

			// Handler state, guarded by mu alone.
			var (
				mu       sync.Mutex
				next     [producers]uint64
				total    int
				declined atomic.Uint64 // times the consumer said no
				took     atomic.Uint64 // times it took the frame
				pushes   atomic.Uint64
				rng      = rand.New(rand.NewSource(7))
				done     = make(chan struct{})
			)
			handle := func(m wire.Message) {
				if m.Seq != next[m.Src] {
					t.Errorf("source %d: got counter %d, want %d", m.Src, m.Seq, next[m.Src])
				}
				next[m.Src] = m.Seq + 1
				if total++; total == producers*perProducer {
					close(done)
				}
			}
			if !ConsumeInPlace(sink, func(m wire.Message) bool {
				if !mu.TryLock() {
					declined.Add(1)
					return false
				}
				defer mu.Unlock()
				if rng.Intn(4) == 0 {
					declined.Add(1)
					return false
				}
				handle(m)
				took.Add(1)
				return true
			}) {
				t.Fatal("no in-place capability")
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var batch []wire.Message
				for {
					var ok bool
					if batch, ok = RecvBatch(sink, batch); !ok {
						return
					}
					mu.Lock()
					for _, m := range batch {
						handle(m)
					}
					mu.Unlock()
				}
			}()
			for src := 0; src < producers; src++ {
				ep := mustEndpoint(t, nw, src)
				wg.Add(1)
				go func() {
					defer wg.Done()
					pick := rand.New(rand.NewSource(int64(src)))
					for i := uint64(0); i < perProducer; i++ {
						m := wire.Message{Type: wire.TSeqUpdate, Src: int32(src), Seq: i}
						var err error
						if pick.Intn(3) == 0 {
							err = ep.Send(producers, m)
						} else {
							pushes.Add(1)
							err = Push(ep, producers, &m)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Error("timed out: messages were lost")
			}
			_ = nw.Close()
			wg.Wait()
			s := inproc.TransportStats()
			if took.Load() == 0 || s.PushedQueued == 0 {
				t.Errorf("taken in place %d, queued %d: the test exercised one path only", took.Load(), s.PushedQueued)
			}
			// Declined is the consumer's own count of its refusals, apart
			// from the pushes it was never offered; what it took it counts
			// alone (the transport leaves PushedInPlace zero); the three
			// add up.
			if s.PushedInPlace != 0 || s.PushedDeclined != declined.Load() || took.Load()+s.PushedQueued+s.PushedDeclined != pushes.Load() {
				t.Errorf("transport in place %d, taken %d + queued %d + declined %d, want 0, declined %d and a sum of %d pushes",
					s.PushedInPlace, took.Load(), s.PushedQueued, s.PushedDeclined, declined.Load(), pushes.Load())
			}
		})
	}
}

// BenchmarkInProcPush pushes a frame built on the caller's stack into an
// InProc consumer that takes it, directly and through Flaky. Push finds
// the capability by the endpoint's concrete type, so the pointer it is
// handed does not escape and the frame stays on the stack: 0 allocs/op
// (ci/alloc_baseline.txt). Were the pointer passed through an interface
// method or a func value, every frame pushed this way — a Write's update,
// a lock request, a release — would be one heap object.
func BenchmarkInProcPush(b *testing.B) {
	for _, tc := range []struct {
		name string
		wrap func(Network) Network
	}{
		{"inproc", func(n Network) Network { return n }},
		{"flaky", func(n Network) Network { return NewFlaky(n, FaultPlan{}) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			inproc, err := NewInProc(2)
			if err != nil {
				b.Fatal(err)
			}
			nw := tc.wrap(inproc)
			defer func() { _ = nw.Close() }()
			from, to := mustEndpoint(b, nw, 0), mustEndpoint(b, nw, 1)
			var took int
			if !ConsumeInPlace(to, func(wire.Message) bool { took++; return true }) {
				b.Fatal("no in-place capability")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := wire.Message{Type: wire.TSeqUpdate, Seq: uint64(i), Val: int64(i)}
				if err := Push(from, 1, &m); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if took != b.N {
				b.Fatalf("the consumer took %d of %d pushes", took, b.N)
			}
		})
	}
}

// TestCorruptWhileSending: Corrupt may be called while traffic flows. The
// send path used to copy the whole FaultPlan (a value receiver on spares),
// CorruptRate included, outside the lock Corrupt writes it under.
func TestCorruptWhileSending(t *testing.T) {
	inproc, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlaky(inproc, FaultPlan{Seed: 1})
	a, b := mustEndpoint(t, fl, 0), mustEndpoint(t, fl, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keep b's queue short
		defer wg.Done()
		var batch []wire.Message
		for ok := true; ok; {
			batch, ok = RecvBatch(b, batch)
		}
	}()
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fl.Corrupt(0)
			}
		}
	}()
	for i := 0; i < 200000; i++ {
		if err := a.Send(1, wire.Message{Type: wire.TUpdate, Val: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	_ = fl.Close()
	wg.Wait()
}
