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
	"slices"
	"sync"
	"sync/atomic"

	"optsync/internal/gwc"
	"optsync/internal/obs"
)

// ErrNested is returned when a section tries to enter a lock its node is
// already speculating on, acquiring or holding (the paper's line 28:
// "ERROR(Cannot safely nest mutex lock requests)").
var ErrNested = gwc.ErrNested

// errStaleTx is what a Tx answers once the body run it was handed to has
// returned.
var errStaleTx = errors.New("core: transaction used after its section returned (a Tx dies with the body run it was passed to)")

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

// Stats counts engine outcomes. A section's counts appear when it
// returns.
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

	mu    sync.Mutex
	recs  map[lockKey]*lockRec
	stats Stats
}

// NewEngine builds an engine over a GWC node.
func NewEngine(node *gwc.Node, cfg Config) *Engine {
	if cfg.HistoryDecay <= 0 || cfg.HistoryDecay >= 1 {
		cfg.HistoryDecay = 0.95
	}
	if cfg.HistoryThreshold <= 0 {
		cfg.HistoryThreshold = 0.30
	}
	return &Engine{node: node, cfg: cfg, recs: make(map[lockKey]*lockRec)}
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
	if r := e.recs[lockKey{g, l}]; r != nil {
		return r.history
	}
	return 0
}

// lockRec is everything the engine keeps about one lock, made on the
// lock's first section and reused by every later one: the paper's
// compiler lays the same things out statically (the interrupt's flag of
// Figure 5). It is also the section's interrupt — the node calls Fire.
// The one thing a section does not share is its Tx (runBody).
type lockRec struct {
	e *Engine
	k lockKey

	// Guarded by e.mu: the published usage-frequency history, and whether
	// a section is running. busy is the ownership of everything below,
	// from enter to exit.
	history float64
	busy    bool

	// h is the running section's working copy of history and out its
	// outcome; exit publishes both.
	h   float64
	out Stats
	// The speculation's verdict, shared with Fire: rolled once an
	// incompatible section was sequenced ahead of it, decided once the
	// engine has acted on the answer and the interrupt must stay quiet.
	rolled, decided atomic.Bool
}

// enter claims the lock's record for one section, making it on first use.
func (e *Engine) enter(k lockKey) (*lockRec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.recs[k]
	if r == nil {
		r = &lockRec{e: e, k: k}
		e.recs[k] = r
	}
	if r.busy {
		return nil, ErrNested
	}
	r.busy = true
	r.h, r.out = r.history, Stats{}
	return r, nil
}

// exit gives the record back and publishes what the section learned.
func (e *Engine) exit(r *lockRec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r.busy = false
	r.history = r.h
	e.stats.Optimistic += r.out.Optimistic
	e.stats.Commits += r.out.Commits
	e.stats.Rollbacks += r.out.Rollbacks
	e.stats.Regular += r.out.Regular
	e.stats.Leased += r.out.Leased
}

// sample folds one observation into the lock's usage-frequency history
// (inUse: an incompatible section was seen — at entry, by Speculate, or
// by the interrupt, the P9 update) and returns the new estimate. It is
// the one history update.
func (r *lockRec) sample(inUse bool) float64 {
	r.h *= r.e.cfg.HistoryDecay
	if inUse {
		r.h += 1 - r.e.cfg.HistoryDecay
	}
	return r.h
}

// Fire implements gwc.Interrupt (Figure 5): an incompatible section was
// sequenced ahead of the speculation, so its writes were suppressed at
// the root; suspend insharing atomically with the observation.
func (r *lockRec) Fire() gwc.HookAction {
	if r.decided.Load() || r.rolled.Load() {
		return gwc.HookNone
	}
	r.rolled.Store(true)
	return gwc.HookSuspend
}

// runBody hands body a Tx of its own for one run — speculative with an
// empty save-set, or inside a hold, where nothing is saved and every write
// is final — and returns what the run saved. The Tx dies with the run; it
// is the one object the engine allocates per run, so that a body which
// leaks it can reach no later section's save-set.
func (r *lockRec) runBody(body func(tx *Tx) error, speculative bool) ([]gwc.Saved, error) {
	tx := &Tx{rec: r, speculative: speculative}
	tx.saved = tx.inline[:0]
	err := body(tx)
	tx.done = true
	return tx.saved, err
}

// Tx is the engine's view of one critical section. Writes through the
// transaction are tracked so a rollback can restore the prior values.
// Sections run through Do may execute more than once (speculative run
// plus a re-execution after rollback), so bodies must confine their side
// effects to the transaction. A Tx is valid only during the body run it
// was passed to: Read and Write fail once that run has returned.
type Tx struct {
	rec         *lockRec
	speculative bool
	done        bool // the run returned
	// saved is the save-set: each variable the speculative run changed,
	// with its prior value, in first-write order (the paper's saved_
	// copies). Sections write a handful of variables, so it is searched
	// linearly and starts out in inline, inside the Tx's own allocation.
	saved  []gwc.Saved
	inline [4]gwc.Saved
}

// Read returns the local copy of a shared variable. During speculation
// the value may prove invalid, in which case the section is rolled back
// and re-executed with valid data.
func (tx *Tx) Read(v gwc.VarID) (int64, error) {
	if tx.done {
		return 0, errStaleTx
	}
	return tx.rec.e.node.Read(tx.rec.k.g, v)
}

// Write stores a shared value. On the speculative path the first write to
// each variable saves its prior value for rollback before anything is
// altered (Figure 4 lines 14-16).
func (tx *Tx) Write(v gwc.VarID, val int64) error {
	if tx.done {
		return errStaleTx
	}
	node, gid := tx.rec.e.node, tx.rec.k.g
	if tx.speculative && !slices.ContainsFunc(tx.saved, func(sv gwc.Saved) bool { return sv.Var == v }) {
		old, err := node.Read(gid, v)
		if err != nil {
			return err
		}
		tx.saved = append(tx.saved, gwc.Saved{Var: v, Old: old})
	}
	return node.Write(gid, v, val)
}

// section is one critical section's target: a lock's record and the
// session the section runs in. Every critical section carries a session;
// the mutex is session 0, which excludes everything, itself included —
// a fact only the node knows.
type section struct {
	r       *lockRec
	session uint32
}

// await blocks until this node is inside s or, while s speculates, until
// the interrupt rolled the section back; the maintenance tick keeps the
// request alive meanwhile, so one that died with a crashed root reaches
// its successor.
func (s section) await(ctx context.Context, speculating bool) error {
	r := s.r
	n, gid, l := r.e.node, r.k.g, r.k.l
	var rolled *atomic.Bool
	if speculating {
		rolled = &r.rolled
	}
	ok, err := n.WaitEnteredContext(ctx, gid, l, s.session, rolled)
	if err == nil && !ok {
		err = fmt.Errorf("core: node %d closed while awaiting session %d of lock %d: %w", n.ID(), s.session, l, gwc.ErrClosed)
	}
	return err
}

// leave gives the section's hold back; the node drops the interrupt in
// the same hold.
func (s section) leave() error {
	return s.r.e.node.Release(s.r.k.g, s.r.k.l)
}

// run executes body inside a hold this node has — nothing to save, every
// write is final — and leaves.
func (s section) run(body func(tx *Tx) error) error {
	_, bodyErr := s.r.runBody(body, false)
	if err := s.leave(); err != nil {
		return err
	}
	return bodyErr
}

// regular is the conventional blocking enter/run/leave (Figure 4 lines
// 08-12): the local copies or the history indicate usage.
func (s section) regular(ctx context.Context, body func(tx *Tx) error) error {
	r := s.r
	n, k := r.e.node, r.k
	r.out.Regular++
	n.Emit(obs.EvRegular, k.g, int64(k.l), int64(s.session))
	if err := n.EnterSessionContext(ctx, k.g, k.l, s.session); err != nil {
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
	r, err := e.enter(lockKey{gid, l})
	if err != nil {
		return err
	}
	defer e.exit(r)
	s := section{r: r, session: session}

	look, err := e.node.Look(gid, l, session)
	if err != nil {
		return err
	}
	if look.Leased {
		// Leased fast path: the lock is cached here from a previous hold,
		// so entry is immediate and exclusive — no request, no
		// speculation, no rollback risk. Beats even the optimistic path:
		// that one still pays the request round trip before release.
		r.out.Leased++
		return s.run(body)
	}
	if hist := r.sample(look.Foreign); !look.Joinable && (look.Foreign || hist > e.cfg.HistoryThreshold) {
		return s.regular(ctx, body)
	}
	return s.speculate(ctx, body)
}

// speculate sends a non-blocking request and runs body while it
// propagates (Figure 4 lines 13-26).
func (s section) speculate(ctx context.Context, body func(tx *Tx) error) error {
	r := s.r
	e, gid, l := r.e, r.k.g, r.k.l

	// Arm the interrupt and send the request in one hold of the node lock
	// that also looks again: an incompatible entry applied since the
	// caller's look fired no interrupt and never will, so Speculate
	// refuses, with nothing armed and nothing sent, and the section takes
	// the regular path. One applied after it fires the interrupt.
	r.rolled.Store(false)
	r.decided.Store(false)
	specStart := e.node.Now()
	sent, err := e.node.Speculate(gid, l, s.session, r)
	if err != nil {
		return err
	}
	if !sent {
		r.sample(true)
		return s.regular(ctx, body)
	}
	r.out.Optimistic++
	e.node.Emit(obs.EvSpecStart, gid, int64(l), int64(s.session))

	// Speculative execution while the request propagates (lines 14-18).
	saved, bodyErr := r.runBody(body, true)

	// Line 19: wait until the answer decides our fate — our own grant or
	// admission (commit), or an incompatible entry (the interrupt has
	// already rolled us back). This wait deliberately ignores ctx (see
	// DoSessionContext).
	if err := s.await(context.Background(), true); err != nil {
		return err
	}
	e.node.Metrics().Hist(obs.HistSpecSection).Record(e.node.Now().Sub(specStart))

	if !r.rolled.Load() {
		// Success: the root let us in with no incompatible section in
		// between; every speculative write reached it after our request
		// on the same FIFO path, so all of them were accepted. Leave and
		// go.
		r.decided.Store(true)
		r.out.Commits++
		e.node.Emit(obs.EvSpecCommit, gid, int64(l), int64(s.session))
		if err := s.leave(); err != nil {
			return err
		}
		return bodyErr
	}

	// Rollback (lines 22-26): restore saved values locally, resume
	// insharing (replaying the valid data that arrived meanwhile), then
	// wait for our queued request to be granted and re-execute.
	r.out.Rollbacks++
	e.node.Emit(obs.EvSpecAbort, gid, int64(l), obs.ReasonLockHeld)
	r.sample(true)
	restoreStart := e.node.Now()
	if err := e.node.RestoreLocal(gid, saved); err != nil {
		return err
	}
	if err := e.node.ResumeInsharing(gid); err != nil {
		return err
	}
	e.node.Metrics().Hist(obs.HistRollback).Record(e.node.Now().Sub(restoreStart))
	if err := s.await(ctx, false); err != nil {
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
	r.decided.Store(true)
	return s.run(body)
}
