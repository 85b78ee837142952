package gwc

import (
	"time"
)

// Adaptive retry (control-plane resilience).
//
// Every member-side retry path — lock-request re-sends, rejoin
// handshakes, snapshot requests, resync probes, sync barriers — used to
// re-send on every maintenance tick. That cadence is right for failure
// detection, but as a retransmission policy it makes recovery cost
// linear in downtime: N waiters riding out a root outage of length D
// fire N*D/tick frames at whoever answers next. Each retry path now
// keeps a per-request schedule: jittered exponential backoff from a
// base up to a cap, reset whenever the world changes (a reign change,
// fresh stream progress, a watchdog trip). The maintenance tick still
// fires at its fixed interval — failure detection and the fencing lease
// depend on that — but within a tick it only re-sends requests whose
// schedule is due.

// backoff is one request's retry schedule. The zero value is "due
// immediately"; arm schedules the next attempt. A backoff lives in the
// record of the thing being retried — a lock, a variable, a barrier, the
// group — where the maintenance tick finds it; a blocked caller keeps
// none.
type backoff struct {
	attempt int
	due     time.Time
}

// ready reports whether the next attempt is due.
func (b *backoff) ready(now time.Time) bool { return !b.due.After(now) }

// reset forgets the schedule so the next ready check fires at once.
// Called when the world changed — a new reign to re-register with, or
// fresh progress that makes an immediate retry worthwhile again.
func (b *backoff) reset() { *b = backoff{} }

// arm schedules b's next attempt after an equal-jitter exponential
// delay: d = min(max, base<<attempt), of which half is deterministic
// and half drawn from the node's seeded rng. The jitter decorrelates
// the retries of independent waiters (no thundering herd at a freshly
// promoted root); the deterministic half bounds the worst-case gap.
// Caller holds n.mu — the rng is not concurrency-safe, and drawing
// under the node lock keeps the draw order (and so the whole schedule)
// reproducible under detsim's virtual clock.
func (n *Node) arm(b *backoff, now time.Time, base, max time.Duration) {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	d := max
	if b.attempt < 30 { // beyond 2^30x base the shift is surely past any cap
		if s := base << uint(b.attempt); s > 0 && s < max {
			d = s
		}
	}
	half := d / 2
	d = half + time.Duration(n.rng.Int63n(int64(half)+1))
	b.due = now.Add(d)
	b.attempt++
}

// boBase returns the backoff base under n.mu: the maintenance interval
// (matching the old flat-retry first-resend latency).
func (n *Node) boBase() time.Duration { return n.retryIn }

// boCap returns the backoff cap under n.mu: 16x the base.
func (n *Node) boCap() time.Duration { return 16 * n.retryIn }

// probeCap bounds the resync probe's backoff separately: the probe
// doubles as the fencing lease's proof of contact (and, under quorum
// acks, as a cumulative ack carrier), so even a fully idle member must
// still be heard well inside failAfter.
func (n *Node) probeCap() time.Duration {
	c := n.boCap()
	if f := n.failAfter / 4; f > 0 && c > f {
		c = f
	}
	if b := n.boBase(); c < b {
		c = b
	}
	return c
}
