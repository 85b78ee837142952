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

			// One log per observer, in apply order: both hooks run on
			// the observer's receive loop, under its node lock.
			type event struct {
				v   VarID // 0: a lock change
				val int64
			}
			observers := []int{0, 3, 4}
			var mu sync.Mutex
			logs := make(map[int][]event)
			for _, id := range observers {
				n := c.nodes[id]
				for _, v := range []VarID{tVar, tFree} {
					if _, err := n.OnVarChange(tGroup, v, func(val int64) {
						mu.Lock()
						logs[id] = append(logs[id], event{v, val})
						mu.Unlock()
					}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := n.OnLockChange(tGroup, tLock, func(val int64) HookAction {
					mu.Lock()
					logs[id] = append(logs[id], event{0, val})
					mu.Unlock()
					return HookNone
				}); err != nil {
					t.Fatal(err)
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

			h := c.nodes[holder]
			if err := h.Acquire(tGroup, tLock); err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= burst; i++ {
				if err := h.Write(tGroup, tVar, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Release(tGroup, tLock); err != nil {
				t.Fatal(err)
			}
			close(stop)
			last := <-streamed

			complete := func(log []event) bool {
				freed, tail := false, false
				for _, e := range log {
					freed = freed || (e.v == 0 && e.val == Free)
					tail = tail || (e.v == tFree && e.val == last)
				}
				return freed && tail
			}
			waitFor(t, c, 10*time.Second, "every observer to see the release and the stream's tail", func() bool {
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
			// Retried requests make the root announce a grant again, and
			// one that outlives the section is granted and handed straight
			// back, so grants and frees may repeat; what must hold is
			// first grant < values 1..burst in order < first free.
			ref := logs[observers[0]]
			firstGrant, firstFree, next := -1, -1, int64(1)
			for i, e := range ref {
				switch {
				case e == event{0, GrantValue(holder)} && firstGrant < 0:
					firstGrant = i
				case e == event{0, Free} && firstFree < 0:
					firstFree = i
				case e.v == tVar:
					if e.val != next || firstGrant < 0 || firstFree >= 0 {
						t.Fatalf("observer %d: guarded value %d at %d, want value %d between the grant (at %d) and the release (at %d)",
							observers[0], e.val, i, next, firstGrant, firstFree)
					}
					next++
				}
			}
			if next != burst+1 || firstFree < 0 {
				t.Fatalf("observer %d saw %d of %d guarded values and the release at %d", observers[0], next-1, burst, firstFree)
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
