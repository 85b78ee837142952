package gwc

// The optimistic entry (Figure 4 lines 08-14, Figure 5), as the two
// calls the engine of package core makes: Look, on which it chooses its
// path, and Speculate, which arms the interrupt and sends the request.
// Each is one hold of the node lock, so no lock frame can be applied
// between the look and the arm — the window that would otherwise let a
// foreign entry fire no interrupt and the section commit writes the root
// had suppressed.

// Interrupt is a speculating section's end of the paper's interrupt.
// Speculate installs it in the lock's record; it stays there until the
// section leaves the lock or cancels its request.
type Interrupt interface {
	// Fire runs under the node lock, and must not block or call back into
	// the node, whenever a section incompatible with the speculation is
	// applied here: another node's entry into a session the speculation's
	// own does not share. Returning HookSuspend suspends insharing
	// atomically with that observation.
	Fire() HookAction
}

// sawEntry fires the interrupt of the section speculating on the lock
// when node — another node than self — was seen entering a session that
// the speculation's own does not share: the root sequenced an
// incompatible section ahead of it. Caller holds n.mu.
func (g *memberGroup) sawEntry(lk *memberLock, node, self int, session uint32) {
	if lk.spec != nil && node != self && !shares(lk.specSession, session) && lk.spec.Fire() == HookSuspend {
		g.suspended = true
	}
}

// Outlook is what Look saw of a lock.
type Outlook struct {
	// Leased: the caller entered through a live lease (exclusive sections
	// only) and holds the lock now; it must Release it.
	Leased bool
	// Foreign: a section the caller's session does not share is open here.
	Foreign bool
	// Joinable: the caller's own session is open here, so the root
	// admits the join without closing the section.
	Joinable bool
}

// outlook evaluates Foreign and Joinable for a section of the given
// session on lock l. An idle lease this node holds reads as a free lock:
// whoever asks gives it back first (ownRequest). Caller holds n.mu.
func (n *Node) outlook(g *memberGroup, l LockID, session uint32) (foreign, joinable bool) {
	lk := g.locks.peek(l)
	if lk == nil || len(lk.held.in) == 0 || (lk.lease != nil && !lk.lease.held) {
		return false, false
	}
	joinable = shares(lk.held.session, session)
	return !joinable, joinable
}

// Look is the one look a section of the given session (0 = exclusive)
// takes at lock l before choosing its path: it enters through a live
// lease if it can (TryLeaseEnter) and reports what the local copy of the
// open section shows otherwise, all under one hold.
func (n *Node) Look(gid GroupID, l LockID, session uint32) (Outlook, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g, err := n.group(gid)
	if err != nil {
		return Outlook{}, err
	}
	if session == 0 && n.leaseEnter(gid, g, l) {
		return Outlook{Leased: true}, nil
	}
	foreign, joinable := n.outlook(g, l, session)
	return Outlook{Foreign: foreign, Joinable: joinable}, nil
}

// Speculate starts a speculation on lock l under one hold: it looks
// again, and if an incompatible section has become visible (and the
// caller's session is not joinable) it returns false with nothing
// registered and nothing sent — the caller takes the blocking path.
// Otherwise it installs intr as the lock's interrupt, records the
// acquisition, and ships the non-blocking request; pair it with
// WaitEnteredContext. A node that is already inside the lock or acquiring
// it is refused with ErrNested.
func (n *Node) Speculate(gid GroupID, l LockID, session uint32, intr Interrupt) (bool, error) {
	now := n.clock.Now()
	n.mu.Lock()
	g, lk, err := n.ownLock(gid, l)
	if err != nil {
		n.mu.Unlock()
		return false, err
	}
	if foreign, joinable := n.outlook(g, l, session); foreign && !joinable {
		n.mu.Unlock()
		return false, nil
	}
	lk.spec, lk.specSession = intr, session
	msg := n.ownRequest(g, l, lk, session, 0, now)
	root := g.rootID
	n.mu.Unlock()
	err = n.sendOwn(gid, l, root, msg)
	return err == nil, err
}
