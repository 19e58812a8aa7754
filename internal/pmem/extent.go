package pmem

import (
	"math/bits"
	"sync/atomic"
)

// extentSize is the granularity at which an arena remembers which media
// bytes differ from its base: coarse enough that the bitmap of a 512 MB
// arena is 1 KiB and marking costs a flush one load, fine enough that a
// crash trial copies what it wrote and not the chunk around it.
const extentSize = 64 << 10

// extents is a bitmap with one bit per extentSize bytes of an arena. Bits
// are only ever set; setting is safe from concurrent flushers.
type extents []atomic.Uint64

func newExtents(size int) extents {
	return make(extents, (size/extentSize+63)/64)
}

func (x extents) has(e int) bool { return x[e/64].Load()&(1<<(e%64)) != 0 }

func (x extents) set(e int) {
	w, bit := &x[e/64], uint64(1)<<(e%64)
	for old := w.Load(); old&bit == 0 && !w.CompareAndSwap(old, old|bit); old = w.Load() {
	}
}

// mark sets every extent that [off, off+n) overlaps.
func (x extents) mark(off, n int) {
	if n == 0 {
		return
	}
	for e := off / extentSize; e <= (off+n-1)/extentSize; e++ {
		x.set(e)
	}
}

// countWith returns the number of extents set in x or in o (o may be nil).
func (x extents) countWith(o extents) (n int) {
	for i := range x {
		w := x[i].Load()
		if o != nil {
			w |= o[i].Load()
		}
		n += bits.OnesCount64(w)
	}
	return n
}
