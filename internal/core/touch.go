package core

import "math/bits"

// touchSketch is a tiered core's memory of which keys its Gets touched
// lately, and the whole promotion policy: a cold record re-enters PM only
// when its key was already marked before the Get that found it cold. Under
// a skewed read mix most cold reads are tail keys read once; promoting
// those buys a PM write (and, in a full arena, somebody else's demotion)
// for no later hit.
//
// Two generations of one bit per hashed key. Every Get the core serves,
// hot or cold, marks the current generation; after horizon touches the
// generations rotate and the older one is forgotten, so a mark lives for
// one to two horizons of the core's own Gets. Age is counted in touches
// and never read off a clock: the same request sequence gives the same
// answers, which the simulator and the crash sweeps rely on.
//
// The sketch is volatile and advisory. Recovery, replay, the cleaner and
// replication never read it, it is rebuilt empty with the core, and only
// the owning core's goroutine touches it. A colliding hash promotes a key
// on its first touch and a forgotten mark defers one a touch longer: a PM
// write or a cold read more, never a wrong answer.
type touchSketch struct {
	cur, prev []uint64
	touches   int // marks made in cur since the last rotation
	horizon   int // marks per generation
}

// touchBitsPerMark keeps a generation at most one eighth full, which
// bounds the share of never-seen keys that read as seen at about a
// quarter across the two generations (far less under skew, where most
// marks land on bits already set).
const touchBitsPerMark = 8

// newTouchSketch builds a sketch whose generations rotate every horizon
// touches.
func newTouchSketch(horizon int) *touchSketch {
	words := (horizon*touchBitsPerMark + 63) / 64
	return &touchSketch{cur: make([]uint64, words), prev: make([]uint64, words), horizon: horizon}
}

// touch marks key in the current generation and reports whether either
// generation already held it.
func (s *touchSketch) touch(key uint64) bool {
	// A multiply-fold of its own, so sketch cells are independent of both
	// the routing hash and the index hash; the high product word maps it
	// onto the bit array without a power-of-two size.
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 29
	bit, _ := bits.Mul64(h*0xbf58476d1ce4e5b9, uint64(len(s.cur))*64)
	w, m := bit>>6, uint64(1)<<(bit&63)
	seen := (s.cur[w]|s.prev[w])&m != 0
	s.cur[w] |= m
	if s.touches++; s.touches >= s.horizon {
		s.cur, s.prev = s.prev, s.cur
		clear(s.cur)
		s.touches = 0
	}
	return seen
}
