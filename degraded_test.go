package optsync

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"
)

// healthzBody mirrors the /healthz JSON shape for decoding in tests.
type healthzBody struct {
	Serving bool `json:"serving"`
	Nodes   []struct {
		Fenced   int
		Electing int
	} `json:"nodes"`
}

func getHealthz(t *testing.T, addr string) (int, healthzBody) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var body healthzBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHealthzReflectsServing pins the readiness contract: /healthz is
// 200 while every node can serve writes, flips to 503 while any node
// cannot (here: the root fenced by losing its member quorum), and
// recovers to 200 once the quorum returns and the fence lifts.
func TestHealthzReflectsServing(t *testing.T) {
	c, _, _, _ := newTestCluster(t, 3, WithChaos(), WithMetricsAddr("127.0.0.1:0"),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 90 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("WithMetricsAddr bound no address")
	}

	if code, body := getHealthz(t, addr); code != http.StatusOK || !body.Serving {
		t.Fatalf("healthy cluster: /healthz = %d serving=%v, want 200/true", code, body.Serving)
	}

	// Both members go dark: the root's reachable set drops below quorum,
	// the fencing lease trips, and the endpoint must stop reporting ready.
	// The first 503 need not be the fence: the crashed members' own
	// goroutines keep running and can start their elections first, so poll
	// until the fenced root itself shows.
	c.Chaos().Crash(1)
	c.Chaos().Crash(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getHealthz(t, addr)
		if code == http.StatusServiceUnavailable && body.Serving {
			t.Fatalf("/healthz 503 but serving=true: %+v", body)
		}
		if code == http.StatusServiceUnavailable && len(body.Nodes) == 3 && body.Nodes[0].Fenced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never showed the fenced root after the quorum outage (last %d %+v)", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	c.Chaos().Revive(1)
	c.Chaos().Revive(2)
	deadline = time.Now().Add(5 * time.Second)
	for {
		code, body := getHealthz(t, addr)
		if code == http.StatusOK && body.Serving {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never recovered after revival (last %d %+v)", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReadStaleDegradedMember pins the degraded-read API: a member
// stranded mid-election (its root and the rest of the quorum dark)
// keeps serving ReadStale with its local copy and a positive staleness
// bound while ordinary serving is reported down, and a cluster built
// with a staleness bound the copy cannot meet gets ErrTooStale instead
// of silently stale data.
func TestReadStaleDegradedMember(t *testing.T) {
	c, g, _, _ := newTestCluster(t, 3, WithChaos(),
		WithTiming(Timing{Retry: 15 * time.Millisecond, FailAfter: 90 * time.Millisecond, ElectWait: 40 * time.Millisecond}))
	free := g.Int("free")
	if err := c.MustHandle(0).Write(free, 42); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c.MustHandle(1), free, 42)

	// Healthy member: the bound is how long ago the reign last proved
	// itself — positive, but nowhere near the failure deadline.
	if val, stale, err := c.MustHandle(1).ReadStale(free); err != nil || val != 42 || stale < 0 {
		t.Fatalf("healthy ReadStale = (%d, %v, %v), want (42, >=0, nil)", val, stale, err)
	}

	// Root and the other member go dark: node 1 starts an election it can
	// never finish (its own report is 1 of the 2 a quorum needs).
	c.Chaos().Crash(0)
	c.Chaos().Crash(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := c.Health()
		if h[1].Electing == 1 {
			if h[1].Serving() {
				t.Fatalf("electing member reports serving: %+v", h[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member never noticed the outage: %+v", h[1])
		}
		time.Sleep(2 * time.Millisecond)
	}
	val, stale, err := c.MustHandle(1).ReadStale(free)
	if err != nil {
		t.Fatalf("stranded member refused a degraded read: %v", err)
	}
	if val != 42 {
		t.Fatalf("degraded read = %d, want the local copy 42", val)
	}
	if stale <= 0 {
		t.Fatal("degraded read carried no staleness bound")
	}

	// A cluster whose staleness tolerance is below what any member copy
	// can prove must refuse with ErrTooStale — on a member even while
	// healthy (its proof of currency is always at least one heartbeat
	// old), never on an unfenced root (the authority, staleness zero).
	c2, g2, _, _ := newTestCluster(t, 2, WithMaxStaleness(time.Nanosecond))
	free2 := g2.Int("free")
	if err := c2.MustHandle(0).Write(free2, 1); err != nil {
		t.Fatal(err)
	}
	waitRead(t, c2.MustHandle(1), free2, 1)
	if _, _, err := c2.MustHandle(1).ReadStale(free2); !errors.Is(err, ErrTooStale) {
		t.Fatalf("member read under a 1ns bound = %v, want ErrTooStale", err)
	}
	if _, stale, err := c2.MustHandle(0).ReadStale(free2); err != nil || stale != 0 {
		t.Fatalf("unfenced root ReadStale = (%v, %v), want (0, nil)", stale, err)
	}
}
