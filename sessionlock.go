package optsync

import (
	"context"
	"fmt"

	"optsync/internal/core"
	"optsync/internal/gwc"
)

// Session locks: group mutual exclusion.
//
// A SessionLock generalizes Mutex. Every critical section names a
// session: any number of sections in the *same* session run
// concurrently, while different sessions exclude each other. The
// classic locks fall out as special cases —
//
//   - a plain mutex is the one-session case (everyone uses
//     SessionExclusive);
//   - a readers/writer lock is the two-session case: readers share
//     SessionReaders, writers take SessionExclusive.
//
// Readers/writers quick-start:
//
//	l := g.SessionLock("table")
//	data := g.Int("data", l)
//
//	// reader (any number concurrently):
//	_ = h.RLock(l)
//	v, _ := h.Read(data)
//	_ = h.RUnlock(l)
//
//	// writer (excludes every reader and other writer):
//	_ = h.WLock(l)
//	_ = h.Write(data, v+1)
//	_ = h.WUnlock(l)
//
// Entering a session that is already open is near-free: the group root
// admits the join without closing the section, and the optimistic form
// (OptimisticSessionDo) speculates through the join so it costs no
// blocking round trip at all. Fairness is built in: once a different
// session queues at the root, new same-session entries queue behind it
// instead of keeping the open session alive forever.

// Distinguished sessions. Any uint32 names a session; these two cover
// the classic lock shapes.
const (
	// SessionExclusive is session 0: at most one holder, excluding every
	// session — a plain mutex section, and the writer side of a
	// readers/writer lock.
	SessionExclusive uint32 = 0
	// SessionReaders is the conventional shared session used by the
	// RLock/RUnlock sugar — the reader side of a readers/writer lock.
	SessionReaders uint32 = 1
)

// SessionInfo is a lock's locally observed session state: the open
// session, the number of concurrent holders observed, and whether this
// node holds an entry.
type SessionInfo = gwc.SessionInfo

// SessionLock is a group-mutual-exclusion lock within a sharing group,
// managed by the group root like a Mutex.
type SessionLock struct {
	g    *Group
	id   gwc.LockID
	name string
}

// Name reports the lock's name.
func (l *SessionLock) Name() string { return l.name }

// Group reports the sharing group the lock belongs to.
func (l *SessionLock) Group() *Group { return l.g }

func (l *SessionLock) lockID() gwc.LockID { return l.id }

// SessionLock declares (or returns) a named session lock managed by the
// group's root. The namespace is shared with Mutex: a name already
// declared as one kind cannot be redeclared as the other, since both
// are views of the same root-managed lock table.
func (g *Group) SessionLock(name string) *SessionLock {
	g.mu.Lock()
	defer g.mu.Unlock()
	if l, ok := g.sessions[name]; ok {
		return l
	}
	if _, ok := g.mutexes[name]; ok {
		panic(fmt.Sprintf("optsync: lock %q already declared as a Mutex", name))
	}
	l := &SessionLock{g: g, id: g.nextLock, name: name}
	g.nextLock++
	g.sessions[name] = l
	return l
}

// Enter blocks until this node holds an entry in l's given session.
// Same-session entries run concurrently; different sessions exclude
// each other. SessionExclusive behaves exactly like Acquire on a Mutex.
func (h *Handle) Enter(l *SessionLock, session uint32) error {
	return h.node.EnterSession(l.g.id, l.id, session)
}

// EnterContext is Enter with cancellation. On cancellation or deadline
// the queued entry request is withdrawn from the root — or, if the
// entry won the race, the session is left — and ctx's error is
// returned.
func (h *Handle) EnterContext(ctx context.Context, l *SessionLock, session uint32) error {
	return h.node.EnterSessionContext(ctx, l.g.id, l.id, session)
}

// Leave gives up this node's entry in l's open session. Like Release,
// the leave is sequenced after the section's writes, so every node sees
// the data before the session state changes.
func (h *Handle) Leave(l *SessionLock) error {
	return h.node.Release(l.g.id, l.id)
}

// SessionState reports l's locally observed session state.
func (h *Handle) SessionState(l *SessionLock) (SessionInfo, error) {
	return h.node.SessionState(l.g.id, l.id)
}

// RLock takes a reader (shared) entry on l: readers run concurrently
// with each other and exclude writers.
func (h *Handle) RLock(l *SessionLock) error { return h.Enter(l, SessionReaders) }

// RUnlock releases a reader entry taken with RLock.
func (h *Handle) RUnlock(l *SessionLock) error { return h.Leave(l) }

// WLock takes the writer (exclusive) entry on l, excluding every reader
// and other writer.
func (h *Handle) WLock(l *SessionLock) error { return h.Enter(l, SessionExclusive) }

// WUnlock releases the writer entry taken with WLock.
func (h *Handle) WUnlock(l *SessionLock) error { return h.Leave(l) }

// SessionDo runs body inside l's given session (the regular, blocking
// path): concurrently with same-session sections, excluded from every
// other session.
func (h *Handle) SessionDo(l *SessionLock, session uint32, body func() error) error {
	return h.SessionDoContext(context.Background(), l, session, body)
}

// SessionDoContext is SessionDo with cancellation while waiting to
// enter. Once entered, body runs to completion and the session is left
// regardless of ctx.
func (h *Handle) SessionDoContext(ctx context.Context, l *SessionLock, session uint32, body func() error) error {
	if err := h.EnterContext(ctx, l, session); err != nil {
		return err
	}
	bodyErr := body()
	if err := h.Leave(l); err != nil {
		return err
	}
	return bodyErr
}

// OptimisticSessionDo runs body inside l's given session using the
// paper's optimistic machinery: when the local view suggests the entry
// will be admitted — the lock looks free, or the target session is
// already open, which makes the join near-free — body runs
// speculatively while the (non-blocking) entry request propagates; if
// an incompatible session wins instead, the section rolls back and
// re-executes once the queued entry is granted.
//
// body may run more than once and must confine its shared-state effects
// to the transaction. Variables written inside body should be guarded
// by l (declared with g.Int(name, l)).
func (h *Handle) OptimisticSessionDo(l *SessionLock, session uint32, body func(tx *Tx) error) error {
	return h.OptimisticSessionDoContext(context.Background(), l, session, body)
}

// OptimisticSessionDoContext is OptimisticSessionDo with cancellation,
// honoured with the same bounds as OptimisticDoContext: a section that
// is already speculating first learns whether it was admitted before it
// can stop.
func (h *Handle) OptimisticSessionDoContext(ctx context.Context, l *SessionLock, session uint32, body func(tx *Tx) error) error {
	return h.engine.DoSessionContext(ctx, l.g.id, l.id, session, func(inner *core.Tx) error {
		return body(&Tx{inner: inner, g: l.g})
	})
}
