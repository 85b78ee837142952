package optsync

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Published is the paper's single-writer pattern (Section 2): "Since
// writes are ordered, the case for one writer is simple; an ordinary
// variable can lock a data structure awaited by reader(s)... Each
// processor can check its local lock to see whether the data is valid.
// Relocking while data is being read can trigger rereading to get
// consistent data values."
//
// A Published block is a set of variables versioned by one ordinary
// shared variable. The (single) writer bumps the version to an odd value,
// updates the data, and bumps it to an even value; group write
// consistency delivers those writes in order everywhere, so readers see
// an odd version exactly while the data is in flux and can retry — a
// distributed seqlock requiring no lock manager and no blocking on the
// writer's side.
type Published struct {
	g       *Group
	version *Var
	vars    []*Var

	// wrote is, per publishing node, the highest version that node has
	// written. An unguarded write is applied at its origin twice — eagerly,
	// and again when the root's echo comes back — so a publisher that
	// outruns its echoes sees its local copy rewound to a version it has
	// long since passed; its own record is the one it can count from.
	wrote []atomic.Int64
}

// Published declares a named single-writer publication block over the
// given variables. The variables should be written only through Publish
// and only from one node at a time.
func (g *Group) Published(name string, vars ...*Var) (*Published, error) {
	for _, v := range vars {
		if v.g != g {
			return nil, fmt.Errorf("optsync: variable %q belongs to group %q, not %q: %w", v.name, v.g.name, g.name, ErrUnknownVar)
		}
		if v.guard != nil {
			return nil, fmt.Errorf("optsync: variable %q is mutex-guarded; publication blocks use ordinary variables", v.name)
		}
	}
	return &Published{
		g:       g,
		version: g.Int(name + ".version"),
		vars:    append([]*Var(nil), vars...),
		wrote:   make([]atomic.Int64, len(g.c.nodes)),
	}, nil
}

// Version returns the block's current version on this node's copy. Even
// means stable, odd means a publication is in flight.
func (h *Handle) Version(p *Published) (int64, error) {
	return h.Read(p.version)
}

// Publish runs write between two version bumps: readers observing the
// same even version before and after their reads are guaranteed a
// consistent snapshot. Only one node may publish to a block (the
// single-writer condition the paper's pattern requires); concurrent
// publishers need a Mutex instead.
func (h *Handle) Publish(p *Published, write func() error) error {
	ver, err := h.Read(p.version)
	if err != nil {
		return err
	}
	ver = max(ver, p.wrote[h.node.ID()].Load())
	if ver%2 != 0 {
		return errors.New("optsync: publication already in flight (is there a second writer?)")
	}
	if err := h.writeVersion(p, ver+1); err != nil {
		return err
	}
	writeErr := write()
	if err := h.writeVersion(p, ver+2); err != nil {
		return err
	}
	return writeErr
}

// writeVersion writes the block's version and records it as this node's
// latest.
func (h *Handle) writeVersion(p *Published, ver int64) error {
	if err := h.Write(p.version, ver); err != nil {
		return err
	}
	p.wrote[h.node.ID()].Store(ver)
	return nil
}

// Snapshot returns a consistent view of the block's variables, in
// declaration order, re-reading if a publication raced the read. It
// blocks while a publication is in flight.
func (h *Handle) Snapshot(p *Published) ([]int64, error) {
	for {
		v1, err := h.Read(p.version)
		if err != nil {
			return nil, err
		}
		if v1%2 != 0 {
			// Data is being changed; wait for the closing bump.
			if err := h.WaitGE(p.version, v1+1); err != nil {
				return nil, err
			}
			continue
		}
		vals := make([]int64, len(p.vars))
		for i, v := range p.vars {
			val, err := h.Read(v)
			if err != nil {
				return nil, err
			}
			vals[i] = val
		}
		v2, err := h.Read(p.version)
		if err != nil {
			return nil, err
		}
		if v1 == v2 {
			return vals, nil
		}
		// A publication slipped in between; reread (the paper's
		// "relocking while data is being read can trigger rereading").
	}
}

// SnapshotAfter is Snapshot constrained to versions at or beyond min,
// letting a reader wait for a specific publication to land.
func (h *Handle) SnapshotAfter(p *Published, min int64) ([]int64, error) {
	if err := h.WaitGE(p.version, min); err != nil {
		return nil, err
	}
	return h.Snapshot(p)
}
