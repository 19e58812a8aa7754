package rpc

import "sync"

// maxPooledPairs is the largest pair slice PutPairs keeps: a scan that
// grew past it does not pin its slice.
const maxPooledPairs = 1024

// pairSlices holds empty scan results for reuse, boxed so that neither
// GetPairs nor PutPairs allocates a header: boxes keeps the empty boxes
// (bufpool does the same for byte buffers).
var (
	pairSlices = sync.Pool{New: func() any { return new([]Pair) }}
	boxes      = sync.Pool{New: func() any { return new([]Pair) }}
)

// GetPairs returns an empty pair slice for a scan's result: one a
// consumer handed back with PutPairs, or nil.
func GetPairs() []Pair {
	bp := pairSlices.Get().(*[]Pair)
	p := *bp
	*bp = nil
	boxes.Put(bp)
	return p[:0]
}

// PutPairs hands back a scan's result once its pairs are dead: the caller
// must not touch p, or the values it names, afterwards. A Response's
// consumer may call it on Pairs or just drop them.
func PutPairs(p []Pair) {
	if cap(p) == 0 || cap(p) > maxPooledPairs {
		return
	}
	clear(p) // the values are the caller's to release, not the pool's to hold
	bp := boxes.Get().(*[]Pair)
	*bp = p[:0]
	pairSlices.Put(bp)
}
