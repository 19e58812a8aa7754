package alloc

import (
	"fmt"

	"flatstore/internal/pmem"
)

// Introspection for invariant checkers (internal/fault): the lazy-persist
// design's central claim is that the volatile bitmaps rebuilt after a
// crash exactly match the set of records reachable from the replayed
// logs, and these accessors expose the allocator's side of that equation.

// AuditBlocks calls fn for every data block currently marked allocated in
// a class-cut chunk's bitmap, with the block's arena offset and its class
// size. Huge spans and raw chunks are not visited. The allocator lock is
// held across the walk, so the caller must not allocate or free from fn.
func (al *Allocator) AuditBlocks(fn func(off int64, classSize int)) {
	al.mu.Lock()
	defer al.mu.Unlock()
	mem := al.arena.Mem()
	for i := 0; i < al.n; i++ {
		st := &al.chunks[i]
		if st.class < 0 {
			continue
		}
		cs := ClassSize(st.class)
		base := al.chunkOff(i)
		for s := 0; s < st.capacity; s++ {
			if mem[base+64+s/8]&(1<<(s%8)) != 0 {
				fn(int64(base+headerReserve+s*cs), cs)
			}
		}
	}
}

// FreeList returns the arena offsets of the chunks currently in the
// global free pool.
func (al *Allocator) FreeList() []int64 {
	al.mu.Lock()
	defer al.mu.Unlock()
	out := make([]int64, 0, len(al.free))
	for _, i := range al.free {
		out = append(out, int64(al.chunkOff(i)))
	}
	return out
}

// RawChunks returns the arena offsets of chunks handed out whole
// (AllocRawChunk or RecoverMarkRawChunk) — the OpLog's segments.
func (al *Allocator) RawChunks() []int64 {
	al.mu.Lock()
	defer al.mu.Unlock()
	var out []int64
	for i := range al.chunks {
		if al.chunks[i].owner == ownerRaw {
			out = append(out, int64(al.chunkOff(i)))
		}
	}
	return out
}

// Audit checks the allocator's bookkeeping against itself and against the
// bitmaps: every chunk is in exactly one place (the free pool, a log, a
// huge span, or one core's class chunks), every class chunk's block count
// is its bitmap's population and its header names its class and owner,
// and every partly free class chunk is reachable by its owner — current
// or in the availability set — so no space is stranded. The caller must
// have quiesced every allocating goroutine. Blocks handed over but not
// yet drained still count as allocated, consistently.
func (al *Allocator) Audit() error {
	al.mu.Lock()
	defer al.mu.Unlock()
	pooled := make([]bool, al.n)
	for _, i := range al.free {
		if pooled[i] {
			return fmt.Errorf("alloc: chunk %d is in the free pool twice", i)
		}
		pooled[i] = true
		if st := al.chunks[i]; st.class >= 0 || st.owner != ownerNone || st.used != 0 || st.hugeLen != 0 {
			return fmt.Errorf("alloc: pooled chunk %d is still in use (%+v)", i, st)
		}
	}
	mem := al.arena.Mem()
	var used [NumClasses]int64
	for i := 0; i < al.n; i++ {
		st := al.chunks[i]
		if st.class < 0 {
			if !pooled[i] && st.owner == ownerNone && st.used == 0 {
				return fmt.Errorf("alloc: chunk %d is neither pooled nor in use (leaked)", i)
			}
			continue
		}
		cs := ClassSize(st.class)
		base := al.chunkOff(i)
		switch {
		case pooled[i]:
			return fmt.Errorf("alloc: class chunk %d is also in the free pool", i)
		case st.owner < 0 || st.owner >= len(al.cores):
			return fmt.Errorf("alloc: class chunk %d has no owning core (%d)", i, st.owner)
		case st.capacity != (pmem.ChunkSize-headerReserve)/cs:
			return fmt.Errorf("alloc: class chunk %d: capacity %d does not fit class %d", i, st.capacity, cs)
		case st.used <= 0 || st.used > st.capacity:
			return fmt.Errorf("alloc: class chunk %d holds %d of %d blocks (empty chunks retire)", i, st.used, st.capacity)
		case al.arena.ReadUint64(base) != classHeader(cs, st.owner):
			return fmt.Errorf("alloc: class chunk %d: header %#x does not name class %d, core %d", i, al.arena.ReadUint64(base), cs, st.owner)
		}
		if marked := countMarked(mem[base+64:], st.capacity); marked != st.used {
			return fmt.Errorf("alloc: class chunk %d counts %d used blocks, bitmap marks %d", i, st.used, marked)
		}
		used[st.class] += int64(st.used)
		owner := al.cores[st.owner]
		current := owner.cur[st.class] == i
		switch {
		case st.listed != 0 && (st.listed > len(owner.avail[st.class]) || owner.avail[st.class][st.listed-1] != i):
			return fmt.Errorf("alloc: class chunk %d: availability position %d is not its own", i, st.listed-1)
		case st.listed != 0 && (current || st.used == st.capacity):
			return fmt.Errorf("alloc: class chunk %d is listed while current or full", i)
		case st.listed == 0 && !current && st.used < st.capacity:
			return fmt.Errorf("alloc: class chunk %d of core %d has free blocks but is neither current nor listed (stranded)", i, st.owner)
		}
	}
	for _, c := range al.cores {
		for class := range c.cur {
			for p, ci := range c.avail[class] {
				if st := al.chunks[ci]; st.owner != c.core || st.class != class || st.listed != p+1 {
					return fmt.Errorf("alloc: core %d lists chunk %d for class %d, but it is %+v", c.core, ci, ClassSize(class), st)
				}
			}
			if ci := c.cur[class]; ci >= 0 && (al.chunks[ci].owner != c.core || al.chunks[ci].class != class) {
				return fmt.Errorf("alloc: core %d allocates class %d from chunk %d, which is %+v", c.core, ClassSize(class), ci, al.chunks[ci])
			}
		}
	}
	for class := range used {
		if got := al.classUsed[class].Load(); got != used[class] {
			return fmt.Errorf("alloc: class %d occupancy counter %d, chunks hold %d", ClassSize(class), got, used[class])
		}
	}
	return nil
}
