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
	if ConsumeInPlace(plain, func([]wire.Message) bool { t.Error("consumer called on an endpoint that refused it"); return true }) {
		t.Error("a decorator without the capability accepted ConsumeInPlace")
	}
	var inPlace []int64
	if !ConsumeInPlace(b, func(run []wire.Message) bool { inPlace = append(inPlace, run[0].Val); return true }) {
		t.Fatal("Flaky over InProc did not forward ConsumeInPlace")
	}
	// In place at b, through Flaky; queued at the plain endpoint's mailbox
	// (no consumer), and queued again when pushed *from* it (Push is Send).
	for i, push := range []struct {
		from Endpoint
		to   int
	}{{a, 1}, {a, 2}, {plain, 2}} {
		if err := Push(push.from, push.to, wire.Message{Type: wire.TSeqUpdate, Val: int64(i)}); err != nil {
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
	if s := fl.TransportStats(); s.PushedInPlace != 1 || s.PushedQueued != 1 || s.PushedDeclined != 0 {
		t.Errorf("pushed in place %d, queued %d, declined %d; want 1, 1 and 0 (the push from the plain endpoint was a Send)", s.PushedInPlace, s.PushedQueued, s.PushedDeclined)
	}
}

// TestPushKeepsLinkOrder: four producers mix Send and Push into one
// endpoint whose consumer declines at random and whose owner runs a
// RecvBatch loop beside them. Each source's counters must come out
// strictly in order, none lost, none twice — whichever goroutine handled
// them — and no two handlers may overlap: they share unsynchronized state,
// so the race detector is the judge of that.
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

			// Handler state, deliberately unsynchronized.
			var (
				next     [producers]uint64
				total    int
				declined uint64 // times the consumer said no
				pushes   atomic.Uint64
				rng      = rand.New(rand.NewSource(7))
				done     = make(chan struct{})
			)
			handle := func(run []wire.Message) {
				for _, m := range run {
					if m.Seq != next[m.Src] {
						t.Errorf("source %d: got counter %d, want %d", m.Src, m.Seq, next[m.Src])
					}
					next[m.Src] = m.Seq + 1
					if total++; total == producers*perProducer {
						close(done)
					}
				}
			}
			if !ConsumeInPlace(sink, func(run []wire.Message) bool {
				if rng.Intn(4) == 0 {
					declined++
					return false
				}
				handle(run)
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
					handle(batch)
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
						send := Push
						if pick.Intn(3) == 0 {
							send = Endpoint.Send
						} else {
							pushes.Add(1)
						}
						if err := send(ep, producers, m); err != nil {
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
			if s.PushedInPlace == 0 || s.PushedQueued == 0 {
				t.Errorf("pushed in place %d, queued %d: the test exercised one path only", s.PushedInPlace, s.PushedQueued)
			}
			// Declined is the consumer's own count of its refusals, apart
			// from the pushes it was never offered; the three add up.
			if s.PushedDeclined != declined || s.PushedInPlace+s.PushedQueued+s.PushedDeclined != pushes.Load() {
				t.Errorf("in place %d + queued %d + declined %d, want declined %d and a sum of %d pushes",
					s.PushedInPlace, s.PushedQueued, s.PushedDeclined, declined, pushes.Load())
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
