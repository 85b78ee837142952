package gwc

import "time"

// Lock leasing and peer-to-peer handoff.
//
// The uncontended lock path costs a three-message root round trip even
// when the same member re-acquires the same lock back to back — latency
// the speculation machinery can overlap but never remove. This file
// removes it in the two regimes that dominate lock traffic:
//
//   - *Leasing* (repeat re-acquire): when an exclusive grant goes out
//     and nobody is queued behind it, the root leases the lock to the
//     winner (TLeaseGrant). A leased member keeps the grant cached
//     across Release/Acquire pairs — re-entry is a purely local
//     decision, zero wire messages — renewing on the adaptive backoff
//     while the lease is in use and returning it (TLeaseRet) when it
//     expires idle or the root demands it back for a waiter.
//
//   - *Handoff* (convoy): when a grant goes out with waiters queued,
//     the root piggybacks a *hint* — the head waiter's identity and
//     request token — on the grant multicast. The releasing holder then
//     hands the lock to that waiter directly (one THandoff frame on the
//     critical path) and tells the root asynchronously with a second
//     THandoff notice, re-sent until a sequenced lock frame proves the
//     root caught up. The root stays the arbiter: it validates the
//     notice against its holder record and the epoch the hint reserved,
//     and every conflict path falls back to the classic queue.
//
// A lease and a hint only cache or pass on the grant the root sequenced
// into the lock variable; that grant is the node's entry in the lock's
// copy (memberLock.held), and the lease's epoch and token are read off
// it, never kept beside it. What a member holds of a lock beyond the
// copy is one record, memberLock.deleg (nil when there is none): the
// lease, the hint, the notice it owes the root, and a direct grant parked
// on its sequence watermark. The maintenance tick drives it in one pass
// after the probe (lockPlane.tickDeleg).
//
// Epoch fencing makes the speculative transfer safe: a handoff reserves
// exactly the grant epoch the root's own next grant would mint
// (holder's entry epoch + 1), so the root can recognise the transfer in
// any frame that quotes it — the notice, the new holder's tagged
// writes, or its release — and a reign change invalidates everything at
// once through the ordinary stale-epoch gate. Leases die with their
// reign: members drop the record on any re-base (dropDelegs), idle
// cached locks reporting as free, and the root's records go down with
// the deposed rootGroup. The root never frees a leased lock on expiry
// alone — only a return, a release, or the rejoin of a crashed
// leaseholder does — so an expired clock can never create two exclusive
// holders.
//
// Both fast paths are off under SetQuorumAcks (leasing): a direct
// transfer would bypass the quorum-ack watermark that durable handoffs
// park on. The public API refuses the option pair outright.
//
// This file holds the design and the node's setting; the decisions are
// made in the two sans-I/O values. The member side — entering through a
// lease, retaining, renewing and returning it, handing a section on,
// parking a direct grant on its watermark — is the lock plane's
// (plane.go), and is enumerated against a lock book in plane_test.go.
// The root side — issuing, extending and recalling leases, reserving
// hints, committing handoffs — is the lock book's (book.go).

// leasing reports whether the lease/handoff fast paths are active. It is
// the one place quorum acks turn them off. Caller holds n.mu.
func (n *Node) leasing() bool { return n.leaseTTL > 0 && !n.quorumAcks }

// SetLeases enables lock leasing and peer handoff with the given lease
// TTL (zero disables). All nodes of a group should agree on the
// setting; it is read on both the member and root paths. Leasing stays
// off while SetQuorumAcks is on — leased re-entries and direct transfers
// would bypass the durability watermark — so the cluster API refuses
// the pair.
func (n *Node) SetLeases(ttl time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaseTTL = ttl
}
