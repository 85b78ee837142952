// Package core implements the paper's contribution — optimistic mutual
// exclusion (Section 4) — on the live GWC runtime:
//
//   - a usage-frequency history filter (old = 0.95*old + 0.05*new with a
//     0.30 threshold) decides between the optimistic and regular paths;
//   - on the optimistic path the engine sends a non-blocking lock request
//     and runs the critical section speculatively while the request
//     propagates, saving each changed variable for rollback (the
//     compiler-generated saved_ copies of Figure 4);
//   - speculative shared writes flow to the group root, which discards
//     them if another node holds the lock;
//   - if the lock goes to another processor first, the interrupt hook
//     (Figure 5) atomically suspends insharing; the engine restores the
//     saved values, resumes insharing, waits for its queued grant, and
//     re-executes the section.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"optsync/internal/gwc"
	"optsync/internal/obs"
)

// ErrNested is returned when a section tries to re-enter a lock it is
// already speculating on or holding (the paper's line 28: "ERROR(Cannot
// safely nest mutex lock requests)").
var ErrNested = errors.New("core: cannot safely nest mutex lock requests")

// Config tunes the optimistic engine.
type Config struct {
	// HistoryDecay is the EWMA factor: hist = decay*hist + (1-decay)*new.
	HistoryDecay float64
	// HistoryThreshold is the usage level above which the engine takes
	// the regular path ("e.g. 0.30").
	HistoryThreshold float64
}

// DefaultConfig returns the paper's constants.
func DefaultConfig() Config {
	return Config{HistoryDecay: 0.95, HistoryThreshold: 0.30}
}

// Stats counts engine outcomes.
type Stats struct {
	// Optimistic counts sections that started speculatively.
	Optimistic int
	// Commits counts speculative sections that won the lock.
	Commits int
	// Rollbacks counts speculative sections that lost and re-executed.
	Rollbacks int
	// Regular counts sections routed to the regular (blocking) path by
	// the local lock copy or the usage history.
	Regular int
	// Leased counts sections entered through a held lock lease — a
	// purely local acquisition, no wire traffic and no speculation
	// needed (the lease guarantees nobody else can hold the lock).
	Leased int
}

// lockKey identifies a lock within a group.
type lockKey struct {
	g gwc.GroupID
	l gwc.LockID
}

// Engine runs optimistic mutual exclusion for one node.
type Engine struct {
	node *gwc.Node
	cfg  Config

	mu     sync.Mutex
	hist   map[lockKey]float64
	active map[lockKey]bool
	stats  Stats

	// armed, when set, runs right after a section has registered its
	// interrupt hook and before the re-check under it — a test-only seam
	// that lets a foreign grant be landed in exactly that window.
	armed func()
}

// NewEngine builds an engine over a GWC node.
func NewEngine(node *gwc.Node, cfg Config) *Engine {
	if cfg.HistoryDecay <= 0 || cfg.HistoryDecay >= 1 {
		cfg.HistoryDecay = 0.95
	}
	if cfg.HistoryThreshold <= 0 {
		cfg.HistoryThreshold = 0.30
	}
	return &Engine{
		node:   node,
		cfg:    cfg,
		hist:   make(map[lockKey]float64),
		active: make(map[lockKey]bool),
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// History reports the current usage-frequency estimate for a lock
// (0 = always free, 1 = always held by another CPU).
func (e *Engine) History(g gwc.GroupID, l gwc.LockID) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hist[lockKey{g, l}]
}

// Tx is the engine's view of one critical section. Writes through the
// transaction are tracked so a rollback can restore the prior values.
// Sections run through Do may execute more than once (speculative run
// plus a re-execution after rollback), so bodies must confine their side
// effects to the transaction.
type Tx struct {
	eng         *Engine
	gid         gwc.GroupID
	speculative bool
	saved       map[gwc.VarID]int64
	order       []gwc.VarID
}

// Read returns the local copy of a shared variable. During speculation
// the value may prove invalid, in which case the section is rolled back
// and re-executed with valid data.
func (tx *Tx) Read(v gwc.VarID) (int64, error) {
	return tx.eng.node.Read(tx.gid, v)
}

// Write stores a shared value. On the speculative path the first write to
// each variable saves its prior value for rollback before anything is
// altered (Figure 4 lines 14-16).
func (tx *Tx) Write(v gwc.VarID, val int64) error {
	if tx.speculative {
		if _, ok := tx.saved[v]; !ok {
			old, err := tx.eng.node.Read(tx.gid, v)
			if err != nil {
				return err
			}
			tx.saved[v] = old
			tx.order = append(tx.order, v)
		}
	}
	return tx.eng.node.Write(tx.gid, v, val)
}

// sample updates the usage-frequency history from the current local lock
// value and reports the (sampled value, updated history).
func (e *Engine) sample(k lockKey, self int) (int64, float64, error) {
	val, err := e.node.LockValue(k.g, k.l)
	if err != nil {
		return 0, 0, err
	}
	inUse := 0.0
	if val != gwc.Free && val != gwc.GrantValue(self) {
		inUse = 1.0
	}
	e.mu.Lock()
	h := e.cfg.HistoryDecay*e.hist[k] + (1-e.cfg.HistoryDecay)*inUse
	e.hist[k] = h
	e.mu.Unlock()
	return val, h, nil
}

// bumpHistory records "lock held by another CPU" — the P9 interrupt-path
// history update.
func (e *Engine) bumpHistory(k lockKey) {
	e.mu.Lock()
	e.hist[k] = e.cfg.HistoryDecay*e.hist[k] + (1 - e.cfg.HistoryDecay)
	e.mu.Unlock()
}

// Do runs body under the group lock, optimistically when the local lock
// copy and its usage history suggest the lock is free. The body may run
// twice (speculatively, then again after a rollback); it must confine its
// shared-state effects to the transaction.
func (e *Engine) Do(gid gwc.GroupID, l gwc.LockID, body func(tx *Tx) error) error {
	return e.DoContext(context.Background(), gid, l, body)
}

// DoContext is Do with cancellation. The regular path aborts cleanly
// whenever ctx ends, withdrawing any queued request. On the optimistic
// path cancellation is honoured at entry and during the post-rollback
// wait; once a section is speculating, the engine must first learn
// whether its writes were accepted (grant) or suppressed (another
// holder) before it can stop — aborting earlier would leave the local
// copies unreconcilable with the group. That decision arrives within a
// round trip of the root (or of its successor after a failover), so the
// non-cancellable window is short and bounded by the failover deadline.
func (e *Engine) DoContext(ctx context.Context, gid gwc.GroupID, l gwc.LockID, body func(tx *Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	k := lockKey{gid, l}
	e.mu.Lock()
	if e.active[k] {
		e.mu.Unlock()
		return ErrNested
	}
	e.active[k] = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.active, k)
		e.mu.Unlock()
	}()

	if e.node.TryLeaseEnter(gid, l) {
		// Leased fast path: the lock is cached here from a previous hold,
		// so entry is immediate and exclusive — no request, no
		// speculation, no rollback risk. Beats even the optimistic path:
		// that one still pays the request round trip before release.
		e.mu.Lock()
		e.stats.Leased++
		e.mu.Unlock()
		tx := &Tx{eng: e, gid: gid}
		bodyErr := body(tx)
		if err := e.node.Release(gid, l); err != nil {
			return err
		}
		return bodyErr
	}

	self := e.node.ID()
	val, hist, err := e.sample(k, self)
	if err != nil {
		return err
	}
	if val != gwc.Free || hist > e.cfg.HistoryThreshold {
		// Regular path (Figure 4 lines 08-12): the local copy or the
		// history indicate usage.
		e.mu.Lock()
		e.stats.Regular++
		e.mu.Unlock()
		e.node.Emit(obs.EvRegular, gid, int64(l), 0)
		return e.regular(ctx, gid, l, body)
	}
	return e.optimistic(ctx, k, body)
}

// regular is the conventional blocking acquire/run/release.
func (e *Engine) regular(ctx context.Context, gid gwc.GroupID, l gwc.LockID, body func(tx *Tx) error) error {
	if err := e.node.AcquireContext(ctx, gid, l); err != nil {
		return err
	}
	tx := &Tx{eng: e, gid: gid}
	bodyErr := body(tx)
	if err := e.node.Release(gid, l); err != nil {
		return err
	}
	return bodyErr
}

// optimistic sends a non-blocking request and speculates.
func (e *Engine) optimistic(ctx context.Context, k lockKey, body func(tx *Tx) error) error {
	gid, l := k.g, k.l
	self := e.node.ID()
	grant := gwc.GrantValue(self)

	// Arm the interrupt before speculating: if the lock goes to another
	// CPU, suspend insharing atomically with the observation.
	var rolled, decided atomic.Bool
	unregister, err := e.node.OnLockChange(gid, l, func(v int64) gwc.HookAction {
		if decided.Load() || rolled.Load() {
			return gwc.HookNone
		}
		if v != gwc.Free && v != grant {
			rolled.Store(true)
			return gwc.HookSuspend
		}
		return gwc.HookNone
	})
	if err != nil {
		return err
	}
	defer unregister()

	// Re-check under the armed hook: a foreign grant applied between
	// DoContext's sample and the registration above fired no hook and
	// never will — and once that holder leaves, the root can hand the
	// lock straight to us, so the next transition the hook sees may be
	// our own grant. An open session is the sneakier shape of the same
	// hazard: session entries leave the lock *value* Free, only a fresh
	// SessEnter fires the classic hooks, and a session that is already
	// open can drain without ever showing this hook a foreign grant —
	// the close reports Free and the next value it sees is our own
	// grant. Speculating through either window would "commit" a section
	// whose writes the root already suppressed as not-holder (a lost
	// update). Nothing has been sent yet, so detach the hook (its
	// suspend action must not fire inside a regular section) and take
	// the regular path instead.
	if e.armed != nil {
		e.armed()
	}
	val, err := e.node.LockValue(gid, l)
	if err != nil {
		return err
	}
	si, err := e.node.SessionState(gid, l)
	if err != nil {
		return err
	}
	if (val != gwc.Free && val != grant) || si.Holders > 0 {
		if err := e.disarm(gid, unregister, &rolled); err != nil {
			return err
		}
		e.bumpHistory(k)
		e.mu.Lock()
		e.stats.Regular++
		e.mu.Unlock()
		e.node.Emit(obs.EvRegular, gid, int64(l), 0)
		return e.regular(ctx, gid, l, body)
	}

	e.mu.Lock()
	e.stats.Optimistic++
	e.mu.Unlock()
	e.node.Emit(obs.EvSpecStart, gid, int64(l), 0)
	specStart := e.node.Now()

	if err := e.node.SendLockRequest(gid, l); err != nil {
		return err
	}

	// Speculative execution while the request propagates (lines 14-18).
	tx := &Tx{eng: e, gid: gid, speculative: true, saved: make(map[gwc.VarID]int64)}
	bodyErr := body(tx)

	// Line 19: wait until the lock answer decides our fate. A positive
	// lock value is either our grant (commit) or another CPU's (the hook
	// has already rolled us back). The request is re-sent periodically so
	// a copy that died with a crashed root reaches its successor; this
	// wait deliberately ignores ctx (see DoContext).
	ok, err := e.node.WaitLockCondContext(context.Background(), gid, l, func(v int64) bool {
		return v == grant || rolled.Load()
	})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: node %d closed while awaiting lock %d: %w", self, l, gwc.ErrClosed)
	}

	if !rolled.Load() {
		// Success: the root granted us the lock; every speculative write
		// reached it after our request on the same FIFO path, so all of
		// them were accepted. Release and go.
		decided.Store(true)
		e.mu.Lock()
		e.stats.Commits++
		e.mu.Unlock()
		e.node.Metrics().Hist(obs.HistSpecSection).Record(e.node.Now().Sub(specStart))
		e.node.Emit(obs.EvSpecCommit, gid, int64(l), 0)
		if err := e.node.Release(gid, l); err != nil {
			return err
		}
		return bodyErr
	}

	// Rollback (lines 22-26): restore saved values locally, resume
	// insharing (replaying the valid data that arrived meanwhile), then
	// wait for our queued request to be granted and re-execute.
	e.mu.Lock()
	e.stats.Rollbacks++
	e.mu.Unlock()
	e.node.Metrics().Hist(obs.HistSpecSection).Record(e.node.Now().Sub(specStart))
	e.node.Emit(obs.EvSpecAbort, gid, int64(l), obs.ReasonLockHeld)
	e.bumpHistory(k)
	restoreStart := e.node.Now()
	if err := e.node.RestoreLocal(gid, tx.saved); err != nil {
		return err
	}
	if err := e.node.ResumeInsharing(gid); err != nil {
		return err
	}
	e.node.Metrics().Hist(obs.HistRollback).Record(e.node.Now().Sub(restoreStart))
	okGrant, err := e.node.WaitLockGrantContext(ctx, gid, l)
	if err != nil {
		// The rollback already restored local state, so a cancelled
		// re-execution only needs to withdraw the queued request.
		if cerr := e.node.CancelLockRequest(gid, l); cerr != nil {
			return cerr
		}
		return err
	}
	if !okGrant {
		return fmt.Errorf("core: node %d closed while awaiting lock %d after rollback: %w", self, l, gwc.ErrClosed)
	}
	decided.Store(true)
	tx2 := &Tx{eng: e, gid: gid}
	bodyErr = body(tx2)
	if err := e.node.Release(gid, l); err != nil {
		return err
	}
	return bodyErr
}

// disarm detaches a section's interrupt hook before the section falls
// back to the regular path. The foreign grant that sends it there may
// have landed after the hook was armed, in which case the hook has
// already suspended insharing and nothing further down the regular path
// would ever resume it: the section, and every later one, would read
// copies that no longer receive updates and write stale-plus-one over
// newer values. Once unregister has returned the hook can no longer
// fire, so rolled is final.
func (e *Engine) disarm(gid gwc.GroupID, unregister func(), rolled *atomic.Bool) error {
	unregister()
	if rolled.Load() {
		return e.node.ResumeInsharing(gid)
	}
	return nil
}

// DoSession runs body inside the lock's given session — concurrently
// with any number of same-session sections, excluded from every other
// session. Session 0 is exactly Do.
func (e *Engine) DoSession(gid gwc.GroupID, l gwc.LockID, session uint32, body func(tx *Tx) error) error {
	return e.DoSessionContext(context.Background(), gid, l, session, body)
}

// DoSessionContext is DoSession with cancellation. The speculative
// window mirrors DoContext's: once a section is speculating, the engine
// must learn whether it was admitted before it can stop.
//
// The session path speculates in one extra case the exclusive path
// cannot: when the target session is already open locally, entry is
// near-free — the root admits a same-session join without closing the
// section — so the engine speculates regardless of the usage history
// and the join costs no blocking round trip at all.
func (e *Engine) DoSessionContext(ctx context.Context, gid gwc.GroupID, l gwc.LockID, session uint32, body func(tx *Tx) error) error {
	if session == 0 {
		return e.DoContext(ctx, gid, l, body)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k := lockKey{gid, l}
	e.mu.Lock()
	if e.active[k] {
		e.mu.Unlock()
		return ErrNested
	}
	e.active[k] = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.active, k)
		e.mu.Unlock()
	}()

	si, err := e.node.SessionState(gid, l)
	if err != nil {
		return err
	}
	openJoin := si.Holders > 0 && si.Session == session
	conflicted, hist, err := e.sampleSession(k, session)
	if err != nil {
		return err
	}
	if !openJoin && (conflicted || hist > e.cfg.HistoryThreshold) {
		// Regular path: the local view or the history say another
		// session is (often) in the way.
		e.mu.Lock()
		e.stats.Regular++
		e.mu.Unlock()
		e.node.Emit(obs.EvRegular, gid, int64(l), int64(session))
		if err := e.node.EnterSessionContext(ctx, gid, l, session); err != nil {
			return err
		}
		tx := &Tx{eng: e, gid: gid}
		bodyErr := body(tx)
		if err := e.node.LeaveSession(gid, l); err != nil {
			return err
		}
		return bodyErr
	}
	return e.optimisticSession(ctx, k, session, body)
}

// sampleSession updates the usage-frequency history for a session-lock
// acquisition: the lock counts as in use when an incompatible section —
// an exclusive holder or a different open session — is observed locally.
func (e *Engine) sampleSession(k lockKey, session uint32) (bool, float64, error) {
	val, err := e.node.LockValue(k.g, k.l)
	if err != nil {
		return false, 0, err
	}
	si, err := e.node.SessionState(k.g, k.l)
	if err != nil {
		return false, 0, err
	}
	conflicted := (val != gwc.Free && val != gwc.GrantValue(e.node.ID())) ||
		(si.Holders > 0 && si.Session != session)
	inUse := 0.0
	if conflicted {
		inUse = 1.0
	}
	e.mu.Lock()
	h := e.cfg.HistoryDecay*e.hist[k] + (1-e.cfg.HistoryDecay)*inUse
	e.hist[k] = h
	e.mu.Unlock()
	return conflicted, h, nil
}

// optimisticSession sends a non-blocking session request and speculates.
func (e *Engine) optimisticSession(ctx context.Context, k lockKey, session uint32, body func(tx *Tx) error) error {
	gid, l := k.g, k.l
	self := e.node.ID()

	// Arm the interrupt before speculating: any entry into a different
	// session (session 0 — an exclusive grant — included) means an
	// incompatible section was sequenced ahead of our join, so our
	// speculative writes were suppressed at the root.
	var rolled, decided atomic.Bool
	unregister, err := e.node.OnSessionChange(gid, l, func(ev gwc.SessEvent) gwc.HookAction {
		if decided.Load() || rolled.Load() {
			return gwc.HookNone
		}
		if ev.Kind == gwc.SessEnter && ev.Session != session {
			rolled.Store(true)
			return gwc.HookSuspend
		}
		return gwc.HookNone
	})
	if err != nil {
		return err
	}
	defer unregister()

	// Re-check under the armed hook (see optimistic): an incompatible
	// entry applied between DoSessionContext's sample and the
	// registration above fired no hook and never will, so speculating
	// now could commit a section whose writes the root suppressed.
	// Nothing has been sent yet — detach the hook and enter regularly.
	if e.armed != nil {
		e.armed()
	}
	val, err := e.node.LockValue(gid, l)
	if err != nil {
		return err
	}
	si, err := e.node.SessionState(gid, l)
	if err != nil {
		return err
	}
	stillOpenJoin := si.Holders > 0 && si.Session == session
	conflicted := (val != gwc.Free && val != gwc.GrantValue(self)) ||
		(si.Holders > 0 && si.Session != session)
	if !stillOpenJoin && conflicted {
		if err := e.disarm(gid, unregister, &rolled); err != nil {
			return err
		}
		e.bumpHistory(k)
		e.mu.Lock()
		e.stats.Regular++
		e.mu.Unlock()
		e.node.Emit(obs.EvRegular, gid, int64(l), int64(session))
		if err := e.node.EnterSessionContext(ctx, gid, l, session); err != nil {
			return err
		}
		tx := &Tx{eng: e, gid: gid}
		bodyErr := body(tx)
		if err := e.node.LeaveSession(gid, l); err != nil {
			return err
		}
		return bodyErr
	}

	e.mu.Lock()
	e.stats.Optimistic++
	e.mu.Unlock()
	e.node.Emit(obs.EvSpecStart, gid, int64(l), int64(session))
	specStart := e.node.Now()

	if err := e.node.SendSessionRequest(gid, l, session); err != nil {
		return err
	}

	// Speculative execution while the join propagates.
	tx := &Tx{eng: e, gid: gid, speculative: true, saved: make(map[gwc.VarID]int64)}
	bodyErr := body(tx)

	// Wait until the session answer decides our fate; like DoContext's
	// wait, this deliberately ignores ctx.
	ok, err := e.node.WaitSessionCondContext(context.Background(), gid, l, func(si gwc.SessionInfo) bool {
		return (si.Mine && si.Session == session) || rolled.Load()
	})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: node %d closed while awaiting session %d of lock %d: %w", self, session, l, gwc.ErrClosed)
	}

	if !rolled.Load() {
		// Admitted: the root accepted our entry without an incompatible
		// section in between, so every speculative write was sequenced
		// inside the session.
		decided.Store(true)
		e.mu.Lock()
		e.stats.Commits++
		e.mu.Unlock()
		e.node.Metrics().Hist(obs.HistSpecSection).Record(e.node.Now().Sub(specStart))
		e.node.Emit(obs.EvSpecCommit, gid, int64(l), int64(session))
		if err := e.node.LeaveSession(gid, l); err != nil {
			return err
		}
		return bodyErr
	}

	// Rollback: restore saved values, resume insharing, wait for the
	// queued join to be granted, re-execute inside the real entry.
	e.mu.Lock()
	e.stats.Rollbacks++
	e.mu.Unlock()
	e.node.Metrics().Hist(obs.HistSpecSection).Record(e.node.Now().Sub(specStart))
	e.node.Emit(obs.EvSpecAbort, gid, int64(l), obs.ReasonLockHeld)
	e.bumpHistory(k)
	restoreStart := e.node.Now()
	if err := e.node.RestoreLocal(gid, tx.saved); err != nil {
		return err
	}
	if err := e.node.ResumeInsharing(gid); err != nil {
		return err
	}
	e.node.Metrics().Hist(obs.HistRollback).Record(e.node.Now().Sub(restoreStart))
	okEntry, err := e.node.WaitSessionCondContext(ctx, gid, l, func(si gwc.SessionInfo) bool {
		return si.Mine && si.Session == session
	})
	if err != nil {
		if cerr := e.node.CancelLockRequest(gid, l); cerr != nil {
			return cerr
		}
		return err
	}
	if !okEntry {
		return fmt.Errorf("core: node %d closed while awaiting session %d of lock %d after rollback: %w", self, session, l, gwc.ErrClosed)
	}
	decided.Store(true)
	tx2 := &Tx{eng: e, gid: gid}
	bodyErr = body(tx2)
	if err := e.node.LeaveSession(gid, l); err != nil {
		return err
	}
	return bodyErr
}
