package gwc

import (
	"slices"
	"sync"
	"testing"
	"time"

	"optsync/internal/obs"
	"optsync/internal/transport"
)

// TestBurstThenReleaseKeepsOrderThroughDrain drives the drain-dispatch
// receive loop with real backlogs: the holder sends a 256-write burst to
// a guarded variable and releases, while another member streams writes
// to an unguarded one. Every observer must apply the holder's values in
// order and complete before it sees the lock go free (data before
// lock), and all observers must agree on one interleaving of the two
// writers (the same total order) — whatever chunks the backlog was cut
// into.
func TestBurstThenReleaseKeepsOrderThroughDrain(t *testing.T) {
	const (
		burst          = 256
		tFree    VarID = 12 // not guarded by newCluster
		tTail    VarID = 13 // the holder's write after its release
		holder         = 1
		streamer       = 2
	)
	for _, tc := range []struct {
		name string
		net  func() (transport.Network, error)
	}{
		{"inproc", func() (transport.Network, error) { return transport.NewInProc(5) }},
		{"tcp", func() (transport.Network, error) {
			return transport.NewTCP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.net()
			if err != nil {
				t.Fatal(err)
			}
			c := newCluster(t, net, true)

			// One log per observer, in apply order: each hook runs on the
			// observer's receive loop, under its node lock, and records the
			// lock copy beside the value it applied.
			type event struct {
				v         VarID
				val, lock int64
			}
			observers := []int{0, 3, 4}
			var mu sync.Mutex
			logs := make(map[int][]event)
			for _, id := range observers {
				n := c.nodes[id]
				for _, v := range []VarID{tVar, tFree, tTail} {
					if _, err := n.OnVarChange(tGroup, v, func(val int64) {
						lock := n.groups[tGroup].locks.value(tLock)
						mu.Lock()
						logs[id] = append(logs[id], event{v, val, lock})
						mu.Unlock()
					}); err != nil {
						t.Fatal(err)
					}
				}
			}

			streamed := make(chan int64, 1)
			stop := make(chan struct{})
			go func() {
				var k int64
				defer func() { streamed <- k }()
				for {
					k++
					if err := c.nodes[streamer].Write(tGroup, tFree, k); err != nil {
						t.Error(err)
						return
					}
					if k%64 == 0 {
						// Stay a bounded distance ahead of the farthest
						// observer, so the backlog is a burst, not a flood.
						if _, err := c.nodes[4].WaitGE(tGroup, tFree, k); err != nil {
							t.Error(err)
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()

			h, root := c.nodes[holder], c.nodes[0]
			if err := h.Acquire(tGroup, tLock); err != nil {
				t.Fatal(err)
			}
			// The root is busy for the whole section, so the burst and the
			// release wait in its queue, beside the stream, and its receive
			// loop drains them as a backlog: on an idle InProc root a write
			// or a release nobody waits behind would run in place.
			root.mu.Lock()
			for i := int64(1); i <= burst; i++ {
				if err := h.Write(tGroup, tVar, i); err != nil {
					root.mu.Unlock()
					t.Fatal(err)
				}
			}
			err = h.Release(tGroup, tLock)
			root.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			// Sequenced after the release: the holder's link to the root is
			// FIFO.
			if err := h.Write(tGroup, tTail, 1); err != nil {
				t.Fatal(err)
			}
			close(stop)
			last := <-streamed

			complete := func(log []event) bool {
				tailed, streamEnd := false, false
				for _, e := range log {
					tailed = tailed || e.v == tTail
					streamEnd = streamEnd || (e.v == tFree && e.val == last)
				}
				return tailed && streamEnd
			}
			waitFor(t, c, 10*time.Second, "every observer to see the trailing write and the stream's tail", func() bool {
				mu.Lock()
				defer mu.Unlock()
				for _, id := range observers {
					if !complete(logs[id]) {
						return false
					}
				}
				return true
			})

			mu.Lock()
			defer mu.Unlock()
			// Data before lock: values 1..burst apply in order, each under
			// the holder's grant, and the trailing write finds the lock free.
			ref := logs[observers[0]]
			next := int64(1)
			for i, e := range ref {
				switch e.v {
				case tVar:
					if e.val != next || e.lock != GrantValue(holder) {
						t.Fatalf("observer %d: guarded value %d at %d under lock %d, want value %d under the holder's grant",
							observers[0], e.val, i, e.lock, next)
					}
					next++
				case tTail:
					if next != burst+1 || e.lock != Free {
						t.Fatalf("observer %d: the trailing write at %d saw lock %d after %d of %d guarded values, want it free after all of them",
							observers[0], i, e.lock, next-1, burst)
					}
				}
			}
			// One total order: each log is a prefix of the longest (an
			// observer may be a few trailing events behind another).
			for _, id := range observers[1:] {
				k := min(len(ref), len(logs[id]))
				if !slices.Equal(logs[id][:k], ref[:k]) {
					t.Errorf("observer %d applied a different order than observer %d", id, observers[0])
				}
			}
			var deepest int64
			for _, n := range c.nodes {
				deepest = max(deepest, n.Metrics().Gauge(obs.GaugeRecvBacklog).Max())
			}
			if deepest < 2 {
				t.Errorf("recv_backlog high-water = %d: the burst never queued, so the drain path went untested", deepest)
			}
		})
	}
}
