package detsim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"optsync/internal/wire"
)

// Options tunes one exploration run. The zero value explores pure
// message/timer interleavings with no loss; scenarios that want loss or
// duplication set probabilities here or flip them mid-run via
// Env.SetLoss.
type Options struct {
	// TimeSkip is the probability of firing the earliest timer even
	// though messages are waiting — the knob that interleaves timeouts
	// (failure detection, elections, batch flushes) with deliveries.
	// 0 means the default (0.15); negative disables time skips entirely
	// (timers then fire only when no message is in flight).
	TimeSkip float64
	// Drop is the probability of dropping a deliverable message instead
	// of delivering it. Only frames whose loss a retry repairs are dropped
	// (wire's Repairable, the rule the wall-clock chaos harness uses too);
	// control messages the protocol sends exactly once are never dropped.
	Drop float64
	// Dup is the probability of re-enqueueing a delivered message at the
	// tail of its link (a duplicate that arrives later).
	Dup float64
	// MaxDrops / MaxDups bound the total faults per run so a lossy seed
	// cannot starve the protocol forever. Defaults 64 / 16.
	MaxDrops, MaxDups int
	// MaxEvents bounds the scheduler steps per run; exceeding it fails
	// the run as a livelock. Default 300000.
	MaxEvents int
}

func (o Options) withDefaults() Options {
	if o.TimeSkip == 0 {
		o.TimeSkip = 0.15
	}
	if o.TimeSkip < 0 {
		o.TimeSkip = 0
	}
	if o.MaxDrops == 0 {
		o.MaxDrops = 64
	}
	if o.MaxDups == 0 {
		o.MaxDups = 16
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 300000
	}
	return o
}

// EventKind classifies one scheduler event.
type EventKind uint8

const (
	EDeliver EventKind = iota + 1 // message moved from a link to its inbox
	EDrop                         // message removed from its link undelivered
	EDup                          // message delivered and a copy re-enqueued
	EFire                         // virtual time advanced to a timer deadline
	EFault                        // scenario fault: crash, revive, partition, heal, loss
	EInject                       // scenario forged or rewrote in-flight messages
)

func (k EventKind) String() string {
	switch k {
	case EDeliver:
		return "deliver"
	case EDrop:
		return "drop"
	case EDup:
		return "dup"
	case EFire:
		return "fire"
	case EFault:
		return "fault"
	case EInject:
		return "inject"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one entry of the run trace. Events contain no pointers or
// slices, so two traces compare with ==, element by element — the form
// the replay tests rely on.
type Event struct {
	Step  int
	Kind  EventKind
	From  int           // message source, or -1
	To    int           // message destination, or -1
	Type  wire.Type     // message type for message events
	Seq   uint64        // message sequence/token for message events
	Timer uint64        // timer creation id for EFire
	At    time.Duration // virtual time elapsed since the run began
	Note  string        // human detail for faults and injections
}

func (e Event) String() string {
	switch e.Kind {
	case EFire:
		return fmt.Sprintf("%6d %8s t=%-9v timer %d", e.Step, e.Kind, e.At, e.Timer)
	case EFault, EInject:
		return fmt.Sprintf("%6d %8s t=%-9v %s", e.Step, e.Kind, e.At, e.Note)
	}
	return fmt.Sprintf("%6d %8s t=%-9v %d->%d %v seq=%d", e.Step, e.Kind, e.At, e.From, e.To, e.Type, e.Seq)
}

// errDead reports a world with nothing left to schedule: no message in
// flight and no armed timer. With maintenance timers always re-armed
// this only happens when every node has closed — a scenario bug.
var errDead = errors.New("detsim: dead world: no messages in flight and no armed timers")

func (w *World) elapsedLocked() time.Duration {
	return w.now.Sub(time.Unix(0, 0))
}

// peekTimerLocked discards stale heap heads and reports whether an
// armed timer remains.
func (w *World) peekTimerLocked() bool {
	for w.timers.Len() > 0 {
		e := (w.timers)[0]
		if e.t.armed && e.t.gen == e.gen {
			return true
		}
		heap.Pop(&w.timers)
	}
	return false
}

// stepLocked runs one scheduler event on a quiesced world: deliver,
// drop, or duplicate the head of a seeded-random link, or advance
// virtual time to the earliest timer deadline (seeded-random among
// ties). Caller holds w.mu with quiescedLocked() true.
func (w *World) stepLocked() error {
	live := w.liveLinksLocked()
	hasTimer := w.peekTimerLocked()
	if len(live) == 0 && !hasTimer {
		return errDead
	}
	fireTimer := hasTimer && (len(live) == 0 || w.rng.Float64() < w.opts.TimeSkip)

	if fireTimer {
		due := w.popDue()
		pick := 0
		if len(due) > 1 {
			pick = w.rng.Intn(len(due))
		}
		for i, e := range due {
			if i != pick {
				heap.Push(&w.timers, e)
			}
		}
		e := due[pick]
		w.fire(e) // releases w.mu around AfterFunc callbacks
		w.record(Event{Kind: EFire, From: -1, To: -1, Timer: e.t.id})
		return nil
	}

	li := live[0]
	if len(live) > 1 {
		li = live[w.rng.Intn(len(live))]
	}
	from, to := li/w.n, li%w.n
	m := w.links[li][0]
	ev := Event{From: from, To: to, Type: m.Type, Seq: m.Seq}

	switch {
	case w.eps[to].closed:
		// Receiver shut down mid-run; the message evaporates like a send
		// to a closed socket would.
		w.links[li] = w.links[li][1:]
		ev.Kind = EDrop
		ev.Note = "endpoint closed"
	case w.drop > 0 && w.rng.Float64() < w.drop && m.Repairable() && w.drops < w.opts.MaxDrops:
		w.links[li] = w.links[li][1:]
		w.drops++
		ev.Kind = EDrop
	case w.dup > 0 && w.rng.Float64() < w.dup && w.dups < w.opts.MaxDups:
		w.links[li] = append(w.links[li][1:], m)
		w.dups++
		w.eps[to].inbox = append(w.eps[to].inbox, m)
		w.cond.Broadcast()
		ev.Kind = EDup
	default:
		w.links[li] = w.links[li][1:]
		w.eps[to].inbox = append(w.eps[to].inbox, m)
		w.cond.Broadcast()
		ev.Kind = EDeliver
	}
	w.record(ev)
	return nil
}

// liveLinksLocked lists link indexes with traffic, in fixed (from,to)
// order so the seeded pick is deterministic.
func (w *World) liveLinksLocked() []int {
	var live []int
	for i := range w.links {
		if len(w.links[i]) > 0 {
			live = append(live, i)
		}
	}
	return live
}

// record stamps and appends one trace event. Caller holds w.mu.
func (w *World) record(ev Event) {
	ev.Step = w.steps
	ev.At = w.elapsedLocked()
	w.steps++
	w.trace = append(w.trace, ev)
}
