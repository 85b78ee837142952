package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"optsync/bench/hist"
	"optsync/internal/gwc"
	"optsync/internal/transport"
	"optsync/internal/wire"
)

// A rung times one layer alone, with nothing else running, so that a
// change to that layer has a number of its own to move. Each workload
// runs the rungs of the layers on its path and no others.
type rung func(r *rungRun) error

// rungRun is what a rung gets and where it leaves its numbers.
type rungRun struct {
	dur    time.Duration  // how long to measure
	tcp    bool           // the workload's transport
	frames []wire.Message // frames the traced pass saw sent: the workload's mix
	out    map[string]float64
}

// hopBatch is how many round trips are timed together, so that reading
// the clock is a small share of what is timed.
const hopBatch = 256

// rungWire encodes and decodes the workload's own frame mix.
func rungWire(r *rungRun) error {
	frames := r.frames
	if len(frames) == 0 {
		frames = []wire.Message{{Type: wire.TUpdate, Group: 1, Src: 1, Origin: 1, Var: 1, Val: 1}}
	}
	encoded := make([][]byte, len(frames))
	for i, m := range frames {
		encoded[i] = wire.Encode(nil, m)
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()

	var n, sink int
	buf := make([]byte, 0, wire.EncodedSize*(1+wire.MaxBatch))
	start := time.Now()
	for time.Since(start) < r.dur/2 {
		for _, m := range frames {
			buf = wire.Encode(buf[:0], m)
			sink += len(buf)
		}
		n += len(frames)
	}
	r.out["wire.encode_ns"] = float64(time.Since(start)) / float64(n)
	total := n

	n = 0
	start = time.Now()
	for time.Since(start) < r.dur/2 {
		for _, b := range encoded {
			m, err := wire.Decode(b)
			if err != nil {
				return err
			}
			sink += int(m.Type)
		}
		n += len(encoded)
	}
	r.out["wire.decode_ns"] = float64(time.Since(start)) / float64(n)
	total += n

	metrics.Read(allocs)
	r.out["wire.allocs_per_frame"] = float64(allocs[0].Value.Uint64()-before) / float64(total)
	runtime.KeepAlive(sink)
	return nil
}

// pingPong measures one hop between two endpoints of nw: Send on a until
// Recv returns on b, as half a timed round trip. It returns nanoseconds.
func pingPong(nw transport.Network, dur time.Duration) (float64, error) {
	a, err := nw.Endpoint(0)
	if err != nil {
		return 0, err
	}
	b, err := nw.Endpoint(1)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the echo side; ends when the network closes
		defer wg.Done()
		for {
			m, ok := b.Recv()
			if !ok || b.Send(0, m) != nil {
				return
			}
		}
	}()
	m := wire.Message{Type: wire.TUpdate, Group: 1, Src: 0, Origin: 0, Var: 1}
	var h hist.H
	var sendErr error
	for start := time.Now(); time.Since(start) < dur && sendErr == nil; {
		t0 := time.Now()
		for i := 0; i < hopBatch; i++ {
			m.Val++
			if sendErr = a.Send(1, m); sendErr != nil {
				break
			}
			if _, ok := a.Recv(); !ok {
				sendErr = transport.ErrClosed
				break
			}
		}
		h.Record(int64(time.Since(t0)) / (2 * hopBatch))
	}
	closeErr := nw.Close()
	wg.Wait()
	if sendErr != nil {
		return 0, sendErr
	}
	return h.Quantile(0.5), closeErr
}

func rungInProcHop(r *rungRun) error {
	nw, err := transport.NewInProc(2)
	if err != nil {
		return err
	}
	r.out["transport.inproc_hop_ns"], err = pingPong(nw, r.dur)
	return err
}

func rungTCPHop(r *rungRun) error {
	nw, err := transport.NewTCP(loopback()[:2])
	if err != nil {
		return err
	}
	ns, err := pingPong(nw, r.dur)
	r.out["transport.tcp_hop_us"] = ns / 1e3
	return err
}

// streamWindow is how far the flooding sender may run ahead of the
// receiver: well inside the peer outbox's bound, so nothing is shed.
const streamWindow = 2048

// rungTCPStream floods one link one way and counts what arrives.
func rungTCPStream(r *rungRun) error {
	nw, err := transport.NewTCP(loopback()[:2])
	if err != nil {
		return err
	}
	a, err := nw.Endpoint(0)
	if err != nil {
		return err
	}
	b, err := nw.Endpoint(1)
	if err != nil {
		return err
	}
	var got atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the receiving side; ends when the network closes
		defer wg.Done()
		for {
			if _, ok := b.Recv(); !ok {
				return
			}
			got.Add(1)
		}
	}()
	m := wire.Message{Type: wire.TSeqUpdate, Group: 1, Src: 0, Origin: 1, Var: 1}
	var sent int64
	var sendErr error
	start := time.Now()
	for time.Since(start) < r.dur && sendErr == nil {
		if sent-got.Load() >= streamWindow {
			runtime.Gosched()
			continue
		}
		m.Val++
		m.Seq++
		sendErr = a.Send(1, m)
		sent++
	}
	r.out["transport.tcp_stream_frames_per_s"] = float64(got.Load()) / time.Since(start).Seconds()
	closeErr := nw.Close()
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	return closeErr
}

var unguarded = shape{vars: 64, guard: func(int) int { return -1 }}

// rungRead times gwc.Node.Read alone on an idle cluster.
func rungRead(r *rungRun) error {
	lc, err := newLayered(unguarded, nil)
	if err != nil {
		return err
	}
	n := lc.nodes[2]
	var h hist.H
	for start := time.Now(); time.Since(start) < r.dur; {
		t0 := time.Now()
		for i := 0; i < readBatch; i++ {
			if _, err := n.Read(group, gwc.VarID(i%unguarded.vars+1)); err != nil {
				_ = lc.Close()
				return err
			}
		}
		h.Record(int64(time.Since(t0)))
	}
	r.out["gwc.read_ns"] = h.Quantile(0.5) / readBatch
	return lc.Close()
}

// rungFacade prices the optsync facade: a Handle.Write plus Handle.Read
// against the same two calls made on gwc.Node directly, in alternating
// batches on two idle clusters.
func rungFacade(r *rungRun) error {
	pc, err := newPublic(unguarded)
	if err != nil {
		return err
	}
	lc, err := newLayered(unguarded, nil)
	if err != nil {
		_ = pc.Close()
		return err
	}
	h, n := pc.c.MustHandle(2), lc.nodes[2]
	var facade, direct hist.H
	var val int64
	var opErr error
	for start := time.Now(); time.Since(start) < r.dur && opErr == nil; {
		t0 := time.Now()
		for i := 0; i < hopBatch && opErr == nil; i++ {
			val++
			v := pc.vars[i%unguarded.vars]
			if opErr = h.Write(v, val); opErr == nil {
				_, opErr = h.Read(v)
			}
		}
		t1 := time.Now()
		for i := 0; i < hopBatch && opErr == nil; i++ {
			v := gwc.VarID(i%unguarded.vars + 1)
			if opErr = n.Write(group, v, val); opErr == nil {
				_, opErr = n.Read(group, v)
			}
		}
		t2 := time.Now()
		facade.Record(int64(t1.Sub(t0)))
		direct.Record(int64(t2.Sub(t1)))
		if opErr == nil {
			// Let both clusters drain what the batch queued, untimed.
			last := (hopBatch - 1) % unguarded.vars
			if opErr = pc.port(3).WaitGE(last, val); opErr == nil {
				opErr = lc.port(3).WaitGE(last, val)
			}
		}
	}
	r.out["optsync.facade_ns"] = (facade.Quantile(0.5) - direct.Quantile(0.5)) / hopBatch
	err1, err2 := pc.Close(), lc.Close()
	for _, err := range []error{opErr, err1, err2} {
		if err != nil {
			return err
		}
	}
	return nil
}

var oneLock = shape{vars: 1, locks: 1, guard: func(int) int { return 0 }}

// rungRootLock times Acquire+Release issued at the root: the lock
// manager's own cost, with no member-to-root hop in it.
func rungRootLock(r *rungRun) error {
	sh := oneLock
	sh.tcp = r.tcp
	lc, err := newLayered(sh, nil)
	if err != nil {
		return err
	}
	p := lc.port(0)
	var h hist.H
	for start := time.Now(); time.Since(start) < r.dur; {
		t0 := time.Now()
		if err = p.Acquire(0); err == nil {
			err = p.Release(0)
		}
		if err != nil {
			_ = lc.Close()
			return err
		}
		h.Record(int64(time.Since(t0)))
	}
	r.out["gwc.root_local_lock_rtt_us"] = h.Quantile(0.5) / 1e3
	return lc.Close()
}

// rungEngine prices the optimistic engine: an empty-bodied Engine.Do
// against a bare Acquire+Release at the same member, alternating.
func rungEngine(r *rungRun) error {
	sh := oneLock
	sh.tcp = r.tcp
	lc, err := newLayered(sh, nil)
	if err != nil {
		return err
	}
	p := lc.port(1)
	empty := p.Optimistic(func(txn) error { return nil })
	var bare, engine hist.H
	for start := time.Now(); time.Since(start) < r.dur && err == nil; {
		t0 := time.Now()
		if err = p.Acquire(0); err == nil {
			err = p.Release(0)
		}
		t1 := time.Now()
		if err == nil {
			err = empty(0)
		}
		bare.Record(int64(t1.Sub(t0)))
		engine.Record(int64(time.Since(t1)))
	}
	r.out["core.engine_overhead_us"] = (engine.Quantile(0.5) - bare.Quantile(0.5)) / 1e3
	if err != nil {
		_ = lc.Close()
		return err
	}
	return lc.Close()
}
