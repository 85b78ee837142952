package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// planLen is how many draws of each kind a plan holds; clients cycle
// through them, so the measured loops do table look-ups and no random
// number generation.
const planLen = 1 << 16

// plan is a workload's inputs, all drawn from the seed before anything
// is timed: the same seed gives the same operation sequence, and the
// program under test sees only these values.
type plan struct {
	bursts []uint8    // write workloads: writes per burst
	vars   []uint8    // write workloads: variable per write (also per local read)
	perms  []uint8    // section_tcp: which order a round's three operations take
	locks  [2][]uint8 // contend_inproc: lock per section, per client
}

// burstSizes and burstWeights give the write workloads' burst mix:
// mostly single writes, whose visibility latency is the headline, with
// enough long bursts to keep the root's fan-out and the outboxes busy.
var (
	burstSizes   = [...]uint8{1, 4, 16, 64}
	burstWeights = [...]int{60, 20, 15, 5}
)

// rounds lists the orders in which a round of section_tcp issues its
// three operations; every round issues each once, so counts stay equal.
var rounds = [6][3]kind{
	{kLock, kRegular, kOp}, {kLock, kOp, kRegular}, {kRegular, kLock, kOp},
	{kRegular, kOp, kLock}, {kOp, kLock, kRegular}, {kOp, kRegular, kLock},
}

func newPlan(seed int64, sh shape) *plan {
	r := rand.New(rand.NewSource(seed))
	p := &plan{
		bursts: make([]uint8, planLen),
		vars:   make([]uint8, planLen),
		perms:  make([]uint8, planLen),
	}
	zipfVars := rand.NewZipf(r, 1.1, 1, uint64(sh.vars-1))
	for i := 0; i < planLen; i++ {
		w := r.Intn(100)
		for j, weight := range burstWeights {
			if w < weight {
				p.bursts[i] = burstSizes[j]
				break
			}
			w -= weight
		}
		p.vars[i] = uint8(zipfVars.Uint64())
		p.perms[i] = uint8(r.Intn(len(rounds)))
	}
	if sh.locks > 1 {
		for c := range p.locks {
			// Each client has its own stream but the same ranking, so
			// both favour lock 0: that is where they collide.
			z := rand.NewZipf(rand.New(rand.NewSource(seed+int64(c)+1)), 1.2, 1, uint64(sh.locks-1))
			p.locks[c] = make([]uint8, planLen)
			for i := range p.locks[c] {
				p.locks[c][i] = uint8(z.Uint64())
			}
		}
	}
	return p
}

// hash identifies the operation sequence a plan stands for.
func (p *plan) hash() uint64 {
	h := fnv.New64a()
	for _, s := range [][]uint8{p.bursts, p.vars, p.perms, p.locks[0], p.locks[1]} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		_, _ = h.Write(n[:]) // hash.Hash.Write never fails
		_, _ = h.Write(s)
	}
	return h.Sum64()
}
