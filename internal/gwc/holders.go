package gwc

import "slices"

// One lock kind. Every critical section carries a session number: any
// number of holders of the *same* session run concurrently, and
// different sessions exclude each other — group mutual exclusion. The
// mutex is not a second kind of lock but the session that excludes
// itself too: session 0 shares with nothing, so a section in it has at
// most one holder (shares). A readers/writer lock is the two-session
// case — readers enter a shared non-zero session, writers take session 0.
//
// So a lock is one record shape wherever it is kept — the member's copy
// (memberLock.held), the root's books (lockState.held) and a state
// stream (lockSnap.held) are all a holderSet — and the paper's lock
// word and SessionInfo are two projections of it.

// shares reports whether a section of session a and one of session b may
// be open together.
func shares(a, b uint32) bool { return a == b && a != 0 }

// holder is one node's entry in a lock's open section. epoch is the
// grant epoch the entry was announced with, which the holder quotes when
// it leaves so a stale duplicate can never close a later entry; token is
// the acquisition token of the request the entry answers, which the root
// echoes so the requester can tell it from an entry minted for a request
// it has since cancelled (0 where the token died with its reign).
type holder struct {
	node  int
	epoch uint32
	token uint32
}

// holderSet is a lock's open critical section: its session and who is
// inside, in node order. The slice keeps its capacity from one section
// to the next, so opening one allocates nothing.
type holderSet struct {
	session uint32
	in      []holder
}

// open starts an empty section of the given session.
func (s *holderSet) open(session uint32) { s.session, s.in = session, s.in[:0] }

// find returns node's entry, or nil.
func (s *holderSet) find(node int) *holder {
	for i := range s.in {
		if s.in[i].node == node {
			return &s.in[i]
		}
	}
	return nil
}

func (s *holderSet) has(node int) bool { return s.find(node) != nil }

// put records h, replacing its node's earlier entry.
func (s *holderSet) put(h holder) {
	i, found := slices.BinarySearchFunc(s.in, h.node, func(e holder, node int) int { return e.node - node })
	if found {
		s.in[i] = h
		return
	}
	s.in = slices.Insert(s.in, i, h)
}

// drop removes node's entry, if it has one.
func (s *holderSet) drop(node int) {
	s.in = slices.DeleteFunc(s.in, func(e holder) bool { return e.node == node })
}
