package gwc

import (
	"errors"
	"fmt"
	"slices"

	"optsync/internal/wire"
)

// maxRecords bounds every ID-indexed table: lock and variable IDs must
// be below it. The cluster layer hands IDs out densely from 1, so the
// bound is a cap on locks (and on variables) per group, and on what one
// hostile or bit-rotted frame can make a node allocate — a table grows
// to the highest ID it has seen, never past this.
const maxRecords = 1 << 16

// ErrIDRange marks API calls naming a lock or variable ID at or past
// maxRecords; idErr wraps it with the offender.
var ErrIDRange = errors.New("id past the table bound")

func idErr(gid GroupID, what string, id uint32) error {
	return fmt.Errorf("gwc: %s %d of group %d: %w (%d)", what, id, gid, ErrIDRange, maxRecords)
}

// table is a dense store of one record per ID: the record for ID i is
// recs[i], so a lookup is one index where a map would hash, and
// ascending index order is ascending ID order. It grows on demand and
// never shrinks. A record pointer is valid only until the next at for a
// higher ID reallocates — fetch it, use it, and do not keep it across a
// release of the node lock.
type table[K ~uint32, T any] struct{ recs []T }

// peek returns the record for id without growing: nil when the table
// never reached it.
func (t *table[K, T]) peek(id K) *T {
	if uint64(id) < uint64(len(t.recs)) {
		return &t.recs[id]
	}
	return nil
}

// at returns the record for id, growing the table (zero records) to
// hold it, or nil for an ID past the bound. The wire path rules those out
// up front (idsOK) and the API answers them with idErr, so callers
// behind either check use the result unchecked.
func (t *table[K, T]) at(id K) *T {
	if uint64(id) >= uint64(len(t.recs)) {
		if id >= maxRecords {
			return nil
		}
		need := int(id) + 1
		t.recs = slices.Grow(t.recs, need-len(t.recs))[:need]
	}
	return &t.recs[id]
}

// idsOK reports whether the lock or variable ID a received message names
// fits the tables; one that does not is counted and recorded, and the
// caller discards the message. Which field is an ID depends on the type:
// Var doubles as a grant epoch on the lock plane. Caller holds n.mu.
func (n *Node) idsOK(m *wire.Message) bool {
	id := uint32(0)
	switch m.Type {
	case wire.TUpdate, wire.TSeqUpdate, wire.TSnapVar:
		id = m.Var
	case wire.TLockReq, wire.TLockRel, wire.TLockCancel, wire.TSeqLock, wire.TSnapLock,
		wire.TLeaseGrant, wire.TLeaseRet, wire.THandoff:
		id = m.Lock
	}
	if id < maxRecords {
		return true
	}
	n.stats.IDRangeDrops++
	n.protoErr("gwc: node %d dropped %v from %d: var %d / lock %d past the table bound %d",
		n.id, m.Type, m.Src, m.Var, m.Lock, maxRecords)
	return false
}

// hook is one registered observer; token names it for removal.
type hook[F any] struct {
	token uint64
	fn    F
}

// dropHook removes the hook registered under token, keeping the rest in
// registration order.
func dropHook[F any](hs []hook[F], token uint64) []hook[F] {
	for i := range hs {
		if hs[i].token == token {
			return slices.Delete(hs, i, i+1)
		}
	}
	return hs
}
