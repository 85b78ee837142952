package main

import "fmt"

// state is what a workload's output check looks at: every node's copy
// of every variable, read after a barrier, next to what the clients'
// own bookkeeping says the values must be.
type state struct {
	values [][]int64 // [node][var]
	want   []int64   // [var]
	// The optimistic engines' counters, summed over nodes.
	optimistic, commits, rollbacks int
}

// checkState returns one line per violated property:
//   - every member holds the same value for every variable (group write
//     consistency reached everyone);
//   - that value is the expected one — on the write workloads the
//     writer's last value, read at the farthest member too; on the section
//     workloads the number of sections that incremented the counter, so
//     a lost update (or a rolled-back write that leaked) shows;
//   - every speculation ended in exactly one commit or rollback.
func checkState(st state) []string {
	var bad []string
	for v, want := range st.want {
		for node, vals := range st.values {
			if vals[v] != want {
				bad = append(bad, fmt.Sprintf("var %d at node %d reads %d, want %d", v, node, vals[v], want))
			}
		}
	}
	if st.optimistic != st.commits+st.rollbacks {
		bad = append(bad, fmt.Sprintf("optimistic sections %d != commits %d + rollbacks %d", st.optimistic, st.commits, st.rollbacks))
	}
	return bad
}

// checks is how many properties checkState examines, the denominator
// its failures are counted against.
func (st state) checks() uint64 { return uint64(len(st.values)*len(st.want)) + 1 }

// settle is the barrier before the check: a Sync on every node, clients'
// nodes first. Sync returns once the root has sequenced the node's
// writes, and its answer travels the same FIFO link as the sequenced
// updates, so after the second round every node has applied everything
// any client wrote.
func settle(cl cluster) error {
	for _, node := range []int{1, 2, 0, 1, 2, 3} {
		if err := cl.port(node).Sync(); err != nil {
			return fmt.Errorf("sync at node %d: %w", node, err)
		}
	}
	return nil
}

// observe settles the cluster and reads every node's copies.
func observe(cl cluster, want []int64) (state, error) {
	st := state{want: want}
	if err := settle(cl); err != nil {
		return st, err
	}
	for node := 0; node < nodes; node++ {
		p := cl.port(node)
		vals := make([]int64, len(want))
		for v := range vals {
			x, err := p.Read(v)
			if err != nil {
				return st, fmt.Errorf("read var %d at node %d: %w", v, node, err)
			}
			vals[v] = x
		}
		st.values = append(st.values, vals)
	}
	_, eng := cl.counters()
	st.optimistic, st.commits, st.rollbacks = eng.Optimistic, eng.Commits, eng.Rollbacks
	return st, nil
}
