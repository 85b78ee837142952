package main

import (
	"strings"
	"time"
)

// workload is one named traffic mix. Names are permanent: later changes
// are compared against numbers recorded under them.
type workload struct {
	name string
	why  string
	op   string // what one counted operation is
	// latency and throughput name what "op" and "ops" stand for in the
	// metric names on this workload.
	latency, throughput string
	shape               shape
	kinds               []kind
	// firstOp completes set-up: set-up time ends when it returns.
	firstOp func(e *env) error
	first   []int // firstSection: the variables a section under lock 0 increments
	// clients returns the client goroutines' bodies, at most two.
	clients func(e *env) []func(r *recorder)
	rungs   []rung
}

// sectionWork is the computation in section_tcp's section body:
// iterations of a dependent multiply-add chain, about 100us of them on
// the reference rig at its usual speed. It is a fixed amount of work,
// not a fixed time, so that the body slows with the machine as the rest
// of the section does and the speed adjustment applies to all of it.
const sectionWork = 72_000

func work(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

var workloads = []*workload{
	{
		name:    "write_inproc",
		why:     "gwc root sequencing, fan-out, member apply and the InProc mailbox do all the work; wire, TCP, lock manager and core do none",
		op:      "write",
		latency: "write_visible", throughput: "writes",
		shape:   shape{vars: 64, guard: func(int) int { return -1 }},
		kinds:   []kind{kOp, kRead},
		firstOp: firstWrite,
		clients: writeClients,
		rungs:   []rung{rungInProcHop, rungRead, rungFacade},
	},
	{
		name:    "write_tcp",
		why:     "same traffic as write_inproc over loopback TCP: wire codec, per-peer outbox, writev and the kernel now dominate, so the difference is the transport's bill",
		op:      "write",
		latency: "write_visible", throughput: "writes",
		shape:   shape{tcp: true, vars: 64, guard: func(int) int { return -1 }},
		kinds:   []kind{kOp, kRead},
		firstOp: firstWrite,
		clients: writeClients,
		rungs:   []rung{rungWire, rungTCPHop, rungTCPStream},
	},
	{
		name:    "section_tcp",
		why:     "the paper's headline: one client, bare lock, regular and optimistic section in rotation over TCP, a real round trip for the 100us body to hide; lock plane and core happy path",
		op:      "lock operation or section",
		latency: "section_opt", throughput: "lock_ops_and_sections",
		// Variables 0..3 are the section's data, 4 its counter; lock 0 guards all.
		shape:   shape{tcp: true, vars: 5, locks: 1, guard: func(int) int { return 0 }},
		kinds:   []kind{kOp, kLock, kRegular, kSpecEntry, kCommit},
		firstOp: firstSection,
		first:   []int{4},
		clients: sectionClients,
		rungs:   []rung{rungWire, rungTCPHop, rungRootLock, rungEngine},
	},
	{
		name:    "contend_inproc",
		why:     "two clients race regular sections over 8 zipf-chosen locks with no transport cost in the way: the root's lock queue, grant handover and the node lock under contention",
		op:      "section",
		latency: "section_regular", throughput: "sections",
		// Lock l guards variables 4l..4l+3; a section increments the first two.
		shape:   shape{vars: 32, locks: 8, guard: func(v int) int { return v / 4 }},
		kinds:   []kind{kOp},
		firstOp: firstSection,
		first:   []int{0, 1},
		clients: contendClients(false),
		rungs:   []rung{rungInProcHop, rungRootLock},
	},
}

// contendOpt is contend_inproc with optimistic sections, the paper's
// mechanism under contention: suppression, rollback and the history
// filter's fallback on top of the lock queue. It is what contend_inproc
// was meant to be, and it is NOT in BENCHMARK.json, because at this
// commit the engine loses updates here (README.md, "Known bug"): its
// output check fails on most runs, and the driver's workloads must be
// ones on which no operation fails. It still runs by name and in the
// full run, so that the bug stays in view until it is fixed.
var contendOpt = &workload{
	name:    "contend_opt_inproc",
	why:     "contend_inproc with optimistic sections: suppression, rollback and the history filter's fallback; loses updates at this commit, so it is kept out of BENCHMARK.json",
	op:      "section",
	latency: "section_opt", throughput: "sections",
	shape:   shape{vars: 32, locks: 8, guard: func(v int) int { return v / 4 }},
	kinds:   []kind{kOp, kSpecEntry, kCommit},
	firstOp: firstSection,
	first:   []int{0, 1},
	clients: contendClients(true),
	rungs:   []rung{rungInProcHop, rungRootLock, rungEngine},
}

// alias is the metric's name with the workload's own operation in it.
func (w *workload) alias(metric string) string {
	switch {
	case strings.HasPrefix(metric, "op_"):
		return w.latency + strings.TrimPrefix(metric, "op")
	case strings.HasPrefix(metric, "ops_"):
		return w.throughput + strings.TrimPrefix(metric, "ops")
	}
	return ""
}

// everyWorkload is what a run without -workload goes through.
func everyWorkload() []*workload {
	return append(append([]*workload(nil), workloads...), contendOpt)
}

func findWorkload(name string) *workload {
	for _, w := range everyWorkload() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// timeReads times one batch of local reads on p, drawing variables from
// the plan at *k. It reports false if a read failed.
func timeReads(e *env, p port, r *recorder, ph int, k *uint32) bool {
	vars := e.plan.vars
	r.attempted++
	t0 := time.Now()
	for j := 0; j < readBatch; j++ {
		if _, err := p.Read(int(vars[*k%planLen])); err != nil {
			r.fail(err)
			return false
		}
		*k++
	}
	r.record(kRead, ph, time.Since(t0))
	return true
}

// reader is the second client of the write workloads: once a
// millisecond it times a batch of reads on node's copy, beside
// the first client's traffic, so that a write-path gain bought with
// read-path cost (or a longer hold of the node lock) shows.
func reader(e *env, node int) func(r *recorder) {
	p := e.cl.port(node)
	return func(r *recorder) {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		k := uint32(planLen / 2)
		for range tick.C {
			ph, run := e.at()
			if !run || !timeReads(e, p, r, ph, &k) {
				return
			}
		}
	}
}

// --- write_inproc, write_tcp ---------------------------------------------

// firstWrite writes variable 0 at member 1 and waits for it at member 3.
func firstWrite(e *env) error {
	if err := e.cl.port(1).Write(0, 1); err != nil {
		return err
	}
	e.tally[0][0] = 1
	return e.cl.port(3).WaitGE(0, 1)
}

// writeClients: client 0 writes from member 1 in bursts, each value the
// global operation count, and after each burst waits until the burst's
// last write is readable at member 3, the last the root fans out to.
// Single-write bursts are timed, Write call to WaitGE return. Client 1
// reads at member 2.
func writeClients(e *env) []func(r *recorder) {
	w, far := e.cl.port(1), e.cl.port(3)
	last := e.tally[0]
	writer := func(r *recorder) {
		p := e.plan
		val := last[0]
		var i, k uint32
		for {
			ph, run := e.at()
			if !run {
				return
			}
			n := int(p.bursts[i%planLen])
			i++
			var v int
			var t1 time.Time
			t0 := time.Now()
			for j := 0; j < n; j++ {
				v = int(p.vars[k%planLen])
				k++
				val++
				r.attempted++
				if err := w.Write(v, val); err != nil {
					r.fail(err)
					return
				}
				last[v] = val
			}
			if e.tr != nil {
				t1 = time.Now()
			}
			if err := far.WaitGE(v, val); err != nil {
				r.fail(err)
				return
			}
			if n == 1 {
				t2 := time.Now()
				r.record(kOp, ph, t2.Sub(t0))
				if e.tr != nil {
					e.tr.outer(kOp, v, val, t0, t1, t2)
				}
			}
			r.ops[ph] += uint64(n)
		}
	}
	return []func(*recorder){writer, reader(e, 2)}
}

// --- section_tcp, contend_inproc -----------------------------------------

// firstSection runs one optimistic section under lock 0 at member 1,
// incrementing what a section of the workload increments there.
func firstSection(e *env) error {
	bump := e.w.first
	run := e.cl.port(1).Optimistic(func(tx txn) error {
		for _, v := range bump {
			if err := tx.Write(v, 1); err != nil {
				return err
			}
		}
		return nil
	})
	for _, v := range bump {
		e.tally[0][v] = 1
	}
	return run(0)
}

// sectionClients: client 0 at member 1 issues rounds of three
// operations under the one lock — a bare Acquire/Release, a regular
// section and an optimistic section with the same body: read the four
// data variables, compute for about 100us, increment the counter.
func sectionClients(e *env) []func(r *recorder) {
	p := e.cl.port(1)
	sections := &e.tally[0][4]
	var bodyStart, bodyEnd time.Time
	var acc uint64
	body := func(tx txn) error {
		if e.tr != nil {
			bodyStart = time.Now()
		}
		for v := 0; v < 4; v++ {
			x, err := tx.Read(v)
			if err != nil {
				return err
			}
			acc += uint64(x)
		}
		acc = work(sectionWork, acc)
		c, err := tx.Read(4)
		if err != nil {
			return err
		}
		err = tx.Write(4, c+1)
		if e.tr != nil {
			bodyEnd = time.Now()
		}
		return err
	}
	regular := func() error { return body(txn{direct: p}) }
	optimistic := p.Optimistic(body)
	client := func(r *recorder) {
		var i uint32
		var seq int64
		for {
			for _, k := range rounds[e.plan.perms[i%planLen]] {
				ph, run := e.at()
				if !run {
					return
				}
				r.attempted++
				var err error
				var t1 time.Time
				t0 := time.Now()
				switch k {
				case kLock:
					if err = p.Acquire(0); err == nil {
						if e.tr != nil {
							t1 = time.Now()
						}
						err = p.Release(0)
					}
				case kRegular:
					err = p.Do(0, regular)
				case kOp:
					err = optimistic(0)
				}
				t2 := time.Now()
				if err != nil {
					r.fail(err)
					return
				}
				r.record(k, ph, t2.Sub(t0))
				r.ops[ph]++
				if k != kLock {
					*sections++
				}
				if e.tr != nil {
					seq++
					switch k {
					case kLock:
						e.tr.outer(kLock, 0, seq, t0, t1, t2)
					case kOp:
						r.record(kSpecEntry, ph, bodyStart.Sub(t0))
						r.record(kCommit, ph, t2.Sub(bodyEnd))
					}
				}
			}
			i++
		}
	}
	return []func(*recorder){client}
}

// contendClients: clients 0 and 1 at members 1 and 2 loop sections with
// no think time; each picks its lock from its own zipf stream, reads the
// lock's four variables and increments two of them. The root and member
// 3 only follow. The sections are regular ones (Do) or optimistic ones.
func contendClients(optimistic bool) func(e *env) []func(r *recorder) {
	return func(e *env) []func(r *recorder) {
		return []func(*recorder){contender(e, 0, optimistic), contender(e, 1, optimistic)}
	}
}

func contender(e *env, c int, optimistic bool) func(r *recorder) {
	p := e.cl.port(c + 1)
	tally := e.tally[c]
	traced := optimistic && e.tr != nil
	var base int
	var bodyStart, bodyEnd time.Time
	body := func(tx txn) error {
		if traced {
			bodyStart = time.Now()
		}
		var x [4]int64
		for j := range x {
			var err error
			if x[j], err = tx.Read(base + j); err != nil {
				return err
			}
		}
		if err := tx.Write(base, x[0]+1); err != nil {
			return err
		}
		err := tx.Write(base+1, x[1]+1)
		if traced {
			bodyEnd = time.Now()
		}
		return err
	}
	section := p.Optimistic(body)
	if !optimistic {
		held := func() error { return body(txn{direct: p}) }
		section = func(l int) error { return p.Do(l, held) }
	}
	return func(r *recorder) {
		locks := e.plan.locks[c]
		for i := uint32(0); ; i++ {
			ph, run := e.at()
			if !run {
				return
			}
			l := int(locks[i%planLen])
			base = 4 * l
			r.attempted++
			t0 := time.Now()
			err := section(l)
			t2 := time.Now()
			if err != nil {
				r.fail(err)
				return
			}
			r.record(kOp, ph, t2.Sub(t0))
			r.ops[ph]++
			tally[base]++
			tally[base+1]++
			if traced {
				r.record(kSpecEntry, ph, bodyStart.Sub(t0))
				r.record(kCommit, ph, t2.Sub(bodyEnd))
			}
		}
	}
}
