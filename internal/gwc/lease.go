package gwc

import "time"

// Lock leasing.
//
// The uncontended lock path costs a three-message root round trip even
// when the same member re-acquires the same lock back to back — latency
// the speculation machinery can overlap but never remove. A lease
// removes it for repeat re-acquires: when an exclusive grant goes out
// and nobody is queued behind it, the root leases the lock to the winner
// (TLeaseGrant). A leased member keeps the grant cached across
// Release/Acquire pairs — re-entry is a purely local decision, zero wire
// messages — renewing on the adaptive backoff while the lease is in use
// and returning it (TLeaseRet) when it expires idle or the root demands
// it back for a waiter.
//
// A lease only caches the grant the root sequenced into the lock
// variable; that grant is the node's entry in the lock's copy
// (memberLock.held), and the lease's epoch and token are read off it,
// never kept beside it. What a member holds of a lock beyond the copy is
// that lease, one record, memberLock.deleg (nil when there is none). The
// maintenance tick drives it in one pass after the probe
// (lockPlane.tickDeleg). A contended lock changes hands the paper's way
// only: the release (or the lease return) goes to the root, and the
// root's sequenced grant names the next holder, so every hand-over is a
// grant the root sequenced.
//
// Leases die with their reign: members drop the record on any re-base
// (dropDelegs), an election report carries an idle cached entry's
// release (lockPlane.report), and the root's
// records go down with the deposed rootGroup. The root never frees a
// leased lock on expiry alone — only a return, a release, or the rejoin
// of a crashed leaseholder does — so an expired clock can never create
// two exclusive holders.
//
// Leasing is off under SetQuorumAcks (leasing): a leased re-entry would
// bypass the quorum-ack watermark that durable grants park on. The
// public API refuses the option pair outright.
//
// This file holds the design and the node's setting; the decisions are
// made in the two sans-I/O values. The member side — entering through a
// lease, retaining, renewing and returning it — is the lock plane's
// (plane.go), and is enumerated against a lock book in plane_test.go.
// The root side — issuing, extending and recalling leases — is the lock
// book's (book.go).

// leasing reports whether the lease fast path is active. It is the one
// place quorum acks turn it off. Caller holds n.mu.
func (n *Node) leasing() bool { return n.leaseTTL > 0 && !n.quorumAcks }

// SetLeases enables lock leasing with the given lease TTL (zero
// disables). All nodes of a group should agree on the setting; it is read
// on both the member and root paths. Leasing stays off while
// SetQuorumAcks is on — leased re-entries would bypass the durability
// watermark — so the cluster API refuses the pair.
func (n *Node) SetLeases(ttl time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaseTTL = ttl
}
