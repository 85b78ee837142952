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

// sample folds one observation into the lock's usage-frequency history
// (inUse: an incompatible section was seen — at entry, under the armed
// hook, or by the interrupt, the P9 update) and returns the new estimate.
// It is the one history update.
func (e *Engine) sample(k lockKey, inUse bool) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.cfg.HistoryDecay * e.hist[k]
	if inUse {
		h += 1 - e.cfg.HistoryDecay
	}
	e.hist[k] = h
	return h
}

// section is one critical section's target: a lock and the session the
// section runs in. Every critical section carries a session; the mutex
// is the one-session case — session 0 excludes everything, itself
// included. look, arm, await and leave are the only places the two kinds
// differ (regular differs inside EnterSessionContext, which hands
// session 0 to AcquireContext).
type section struct {
	e       *Engine
	k       lockKey
	session uint32
}

// fate is a speculating section's verdict, shared with its interrupt
// hook: rolled once an incompatible section was sequenced ahead of it,
// decided once the engine has acted on the answer and the hook must stay
// quiet. One object passed by pointer — the hook and both waits read it
// without a closure of their own.
type fate struct{ rolled, decided atomic.Bool }

// look reads the local lock copy and session view. foreign: an
// incompatible section is visible — another node's exclusive grant or
// request marker, or a session other than s's open here; an exclusive
// section also counts this node's own grant still in the copy (a lease
// it could not enter, about to be returned), which a blocking acquire
// sorts out with the root. joinable: s's own session is open here, so
// the root admits the join without closing the section.
func (s section) look() (foreign, joinable bool, err error) {
	n := s.e.node
	val, err := n.LockValue(s.k.g, s.k.l)
	if err != nil {
		return false, false, err
	}
	si, err := n.SessionState(s.k.g, s.k.l)
	if err != nil {
		return false, false, err
	}
	foreign = (val != gwc.Free && (s.session == 0 || val != gwc.GrantValue(n.ID()))) ||
		(si.Holders > 0 && si.Session != s.session)
	return foreign, si.Holders > 0 && si.Session == s.session, nil
}

// arm registers the interrupt (Figure 5): when an incompatible section
// is sequenced ahead of s — for an exclusive section any other node's
// grant, for a session section any entry into a different session
// (session 0, an exclusive grant, included) — s's speculative writes
// were suppressed at the root, so suspend insharing atomically with the
// observation.
func (s section) arm(f *fate) (func(), error) {
	n := s.e.node
	if s.session == 0 {
		grant := gwc.GrantValue(n.ID())
		return n.OnLockChange(s.k.g, s.k.l, func(v int64) gwc.HookAction {
			if v == gwc.Free || v == grant || f.decided.Load() || f.rolled.Load() {
				return gwc.HookNone
			}
			f.rolled.Store(true)
			return gwc.HookSuspend
		})
	}
	session := s.session
	return n.OnSessionChange(s.k.g, s.k.l, func(ev gwc.SessEvent) gwc.HookAction {
		if ev.Kind != gwc.SessEnter || ev.Session == session || f.decided.Load() || f.rolled.Load() {
			return gwc.HookNone
		}
		f.rolled.Store(true)
		return gwc.HookSuspend
	})
}

// await blocks until this node is inside s — the exclusive grant, or an
// entry in s's session — or, given a fate, until the interrupt rolled
// the section back; the maintenance tick keeps the request alive
// meanwhile, so one that died with a crashed root reaches its successor.
func (s section) await(ctx context.Context, f *fate) error {
	n := s.e.node
	var ok bool
	var err error
	if s.session == 0 {
		grant := gwc.GrantValue(n.ID())
		ok, err = n.WaitLockCondContext(ctx, s.k.g, s.k.l, func(v int64) bool {
			return v == grant || (f != nil && f.rolled.Load())
		})
	} else {
		session := s.session
		ok, err = n.WaitSessionCondContext(ctx, s.k.g, s.k.l, func(si gwc.SessionInfo) bool {
			return (si.Mine && si.Session == session) || (f != nil && f.rolled.Load())
		})
	}
	if err == nil && !ok {
		err = fmt.Errorf("core: node %d closed while awaiting session %d of lock %d: %w", n.ID(), s.session, s.k.l, gwc.ErrClosed)
	}
	return err
}

// leave gives the section's hold back.
func (s section) leave() error {
	if s.session == 0 {
		return s.e.node.Release(s.k.g, s.k.l)
	}
	return s.e.node.LeaveSession(s.k.g, s.k.l)
}

// run executes body inside a hold this node has — nothing to save, every
// write is final — and leaves.
func (s section) run(body func(tx *Tx) error) error {
	bodyErr := body(&Tx{eng: s.e, gid: s.k.g})
	if err := s.leave(); err != nil {
		return err
	}
	return bodyErr
}

// regular is the conventional blocking enter/run/leave (Figure 4 lines
// 08-12): the local copies or the history indicate usage.
func (s section) regular(ctx context.Context, body func(tx *Tx) error) error {
	e := s.e
	e.mu.Lock()
	e.stats.Regular++
	e.mu.Unlock()
	e.node.Emit(obs.EvRegular, s.k.g, int64(s.k.l), int64(s.session))
	if err := e.node.EnterSessionContext(ctx, s.k.g, s.k.l, s.session); err != nil {
		return err
	}
	return s.run(body)
}

// Do runs body under the group lock, optimistically when the local lock
// copy and its usage history suggest the lock is free. The body may run
// twice (speculatively, then again after a rollback); it must confine its
// shared-state effects to the transaction.
func (e *Engine) Do(gid gwc.GroupID, l gwc.LockID, body func(tx *Tx) error) error {
	return e.DoSessionContext(context.Background(), gid, l, 0, body)
}

// DoContext is Do with cancellation; see DoSessionContext.
func (e *Engine) DoContext(ctx context.Context, gid gwc.GroupID, l gwc.LockID, body func(tx *Tx) error) error {
	return e.DoSessionContext(ctx, gid, l, 0, body)
}

// DoSession runs body inside the lock's given session — concurrently
// with any number of same-session sections, excluded from every other
// session. Session 0 is exactly Do.
func (e *Engine) DoSession(gid gwc.GroupID, l gwc.LockID, session uint32, body func(tx *Tx) error) error {
	return e.DoSessionContext(context.Background(), gid, l, session, body)
}

// DoSessionContext is DoSession with cancellation. The regular path
// aborts cleanly whenever ctx ends, withdrawing any queued request. On
// the optimistic path cancellation is honoured at entry and during the
// post-rollback wait; once a section is speculating, the engine must
// first learn whether its writes were accepted (grant or admission) or
// suppressed (an incompatible section ahead) before it can stop —
// aborting earlier would leave the local copies unreconcilable with the
// group. That decision arrives within a round trip of the root (or of
// its successor after a failover), so the non-cancellable window is
// short and bounded by the failover deadline.
//
// A session section speculates in one case an exclusive one cannot: when
// its session is already open locally, entry is near-free — the root
// admits a same-session join without closing the section — so the engine
// speculates regardless of the usage history and the join costs no
// blocking round trip at all.
func (e *Engine) DoSessionContext(ctx context.Context, gid gwc.GroupID, l gwc.LockID, session uint32, body func(tx *Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s := section{e: e, k: lockKey{gid, l}, session: session}
	e.mu.Lock()
	if e.active[s.k] {
		e.mu.Unlock()
		return ErrNested
	}
	e.active[s.k] = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.active, s.k)
		e.mu.Unlock()
	}()

	if session == 0 && e.node.TryLeaseEnter(gid, l) {
		// Leased fast path: the lock is cached here from a previous hold,
		// so entry is immediate and exclusive — no request, no
		// speculation, no rollback risk. Beats even the optimistic path:
		// that one still pays the request round trip before release.
		e.mu.Lock()
		e.stats.Leased++
		e.mu.Unlock()
		return s.run(body)
	}

	foreign, joinable, err := s.look()
	if err != nil {
		return err
	}
	if hist := e.sample(s.k, foreign); !joinable && (foreign || hist > e.cfg.HistoryThreshold) {
		return s.regular(ctx, body)
	}
	return s.speculate(ctx, body)
}

// speculate sends a non-blocking request and runs body while it
// propagates (Figure 4 lines 13-26).
func (s section) speculate(ctx context.Context, body func(tx *Tx) error) error {
	e, gid, l := s.e, s.k.g, s.k.l

	// Arm the interrupt before speculating.
	f := new(fate)
	unregister, err := s.arm(f)
	if err != nil {
		return err
	}
	defer unregister()

	// Re-check under the armed hook: an incompatible entry applied between
	// the caller's look and the registration above fired no hook and never
	// will — and once that holder leaves, the root can hand the lock
	// straight to us, so the next transition the hook sees may be our own
	// grant. An open session is the sneakier shape of the same hazard for
	// an exclusive section: session entries leave the lock *value* Free,
	// only a fresh SessEnter fires the classic hooks, and a session that
	// is already open can drain without ever showing the hook a foreign
	// grant. Speculating through either window would "commit" a section
	// whose writes the root already suppressed as not-holder (a lost
	// update). Nothing has been sent yet, so take the regular path — after
	// detaching the hook, whose suspend action must not fire inside a
	// regular section. The entry that sends us there may have landed after
	// the hook was armed, in which case it has already suspended insharing
	// and nothing down the regular path would resume it: the section, and
	// every later one, would read copies that no longer receive updates
	// and write stale-plus-one over newer values. Once unregister has
	// returned the hook can no longer fire, so rolled is final.
	if e.armed != nil {
		e.armed()
	}
	foreign, joinable, err := s.look()
	if err != nil {
		return err
	}
	if foreign && !joinable {
		unregister()
		if f.rolled.Load() {
			if err := e.node.ResumeInsharing(gid); err != nil {
				return err
			}
		}
		e.sample(s.k, true)
		return s.regular(ctx, body)
	}

	e.mu.Lock()
	e.stats.Optimistic++
	e.mu.Unlock()
	e.node.Emit(obs.EvSpecStart, gid, int64(l), int64(s.session))
	specStart := e.node.Now()

	if err := e.node.SendSessionRequest(gid, l, s.session); err != nil {
		return err
	}

	// Speculative execution while the request propagates (lines 14-18).
	tx := &Tx{eng: e, gid: gid, speculative: true, saved: make(map[gwc.VarID]int64)}
	bodyErr := body(tx)

	// Line 19: wait until the answer decides our fate — our own grant or
	// admission (commit), or an incompatible entry (the hook has already
	// rolled us back). This wait deliberately ignores ctx (see
	// DoSessionContext).
	if err := s.await(context.Background(), f); err != nil {
		return err
	}
	e.node.Metrics().Hist(obs.HistSpecSection).Record(e.node.Now().Sub(specStart))

	if !f.rolled.Load() {
		// Success: the root let us in with no incompatible section in
		// between; every speculative write reached it after our request
		// on the same FIFO path, so all of them were accepted. Leave and
		// go.
		f.decided.Store(true)
		e.mu.Lock()
		e.stats.Commits++
		e.mu.Unlock()
		e.node.Emit(obs.EvSpecCommit, gid, int64(l), int64(s.session))
		if err := s.leave(); err != nil {
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
	e.node.Emit(obs.EvSpecAbort, gid, int64(l), obs.ReasonLockHeld)
	e.sample(s.k, true)
	restoreStart := e.node.Now()
	if err := e.node.RestoreLocal(gid, tx.saved); err != nil {
		return err
	}
	if err := e.node.ResumeInsharing(gid); err != nil {
		return err
	}
	e.node.Metrics().Hist(obs.HistRollback).Record(e.node.Now().Sub(restoreStart))
	if err := s.await(ctx, nil); err != nil {
		if errors.Is(err, gwc.ErrClosed) {
			return err
		}
		// The rollback already restored local state, so a cancelled
		// re-execution only needs to withdraw the queued request.
		if cerr := e.node.CancelLockRequest(gid, l); cerr != nil {
			return cerr
		}
		return err
	}
	f.decided.Store(true)
	return s.run(body)
}
