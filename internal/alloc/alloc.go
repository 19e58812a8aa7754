// Package alloc implements FlatStore's lazy-persist NVM allocator (§3.2).
//
// The arena is cut into 4 MB chunks. Each in-use chunk is cut into data
// blocks of a single size class; the class is recorded persistently in the
// chunk header when the chunk is cut, but the per-chunk allocation bitmap
// is updated WITHOUT flushing. This removes one flush from every Put: the
// OpLog already records the address of every allocated record, so after a
// crash the bitmaps are reconstructed deterministically by scanning the
// log and calling RecoverMark for every live pointer — the chunk base is
// addr &^ (ChunkSize-1) and the slot is derived from the persisted class.
//
// Chunks are partitioned to server cores (a Hoard-like design): each core
// allocates from privately owned chunks without locking; only grabbing a
// fresh chunk from the global pool takes a mutex. A class chunk has exactly
// one owning core from cut to retire — the owner is persisted beside the
// class in the chunk header, so it survives a crash — and only the owner
// touches its bitmap and block count. Per class, a core allocates from one
// current chunk; when that fills it moves to the FULLEST chunk it owns
// that has a free block (its availability set) and cuts a fresh chunk only
// when the set is empty, so sparse chunks drain to empty and return to the
// pool: space follows the live data, not the number of operations. A free
// from any other goroutine is handed to the owner (FreeRemote, Drain).
// Allocations larger than the maximum class take one or more contiguous
// whole chunks.
package alloc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"flatstore/internal/pmem"
)

const (
	// headerReserve is the space reserved at the start of every chunk
	// for the persistent header and bitmap. 64 B of header plus a
	// ≤2046 B bitmap (minimum class 256 B) fit comfortably.
	headerReserve = 4096

	// MinClass is the smallest data-block class. The engine stores
	// records ≤256 B inline in the OpLog, so the allocator never sees
	// smaller requests (the paper dismisses the low 8 bits of Ptr for
	// the same reason).
	MinClass = 256
	// MaxClass is the largest within-chunk class; larger allocations
	// take whole chunks.
	MaxClass = 1 << 20

	// Chunk header magic values (persisted).
	magicFree  = 0
	magicClass = 0xF1A7_0000_0000_0000 // bits 32–47: owning core; low 32 bits: class size
	magicHuge  = 0x46A7_0000_0000_0000 // low 32 bits hold the chunk count
	magicMask  = 0xFFFF_0000_0000_0000

	ownerShift = 32
	ownerMask  = 0xFFFF

	// chunkState.owner values that name no core.
	ownerNone = -1 // free chunk, or a huge span (freeHuge is serialised by al.mu)
	ownerRaw  = -2 // whole chunk handed to the OpLog
)

// classHeader is the persisted first word of a class chunk: the cutting
// size and the owning core in one 8-byte (failure-atomic) store.
func classHeader(classSize, owner int) uint64 {
	return magicClass | uint64(owner)<<ownerShift | uint64(classSize)
}

// ErrOutOfMemory is returned when no chunk can satisfy an allocation.
var ErrOutOfMemory = errors.New("alloc: out of NVM space")

// NumClasses is the number of within-chunk size classes
// (256 B, 512 B, … 1 MB).
const NumClasses = 13

// classIndex returns the class index for a payload size, or -1 if the
// request needs whole chunks.
func classIndex(size int) int {
	if size <= 0 {
		panic(fmt.Sprintf("alloc: non-positive size %d", size))
	}
	if size > MaxClass {
		return -1
	}
	c := MinClass
	for i := 0; i < NumClasses; i++ {
		if size <= c {
			return i
		}
		c <<= 1
	}
	return -1
}

// ClassSize returns the block size of class index i.
func ClassSize(i int) int { return MinClass << i }

// chunkState is the DRAM bookkeeping for one chunk.
type chunkState struct {
	class    int // class index, -1 when free, raw or huge
	owner    int // owning core of a class chunk, else ownerNone / ownerRaw
	used     int // allocated blocks (1 on every chunk of a live huge span)
	capacity int // total blocks
	nextHint int // bitmap word where the last search succeeded
	hugeLen  int // >0: first chunk of a huge allocation spanning hugeLen chunks
	listed   int // 1 + position in the owner's availability set, 0 when not in it
}

// Allocator manages a contiguous range of chunks in an arena.
type Allocator struct {
	arena *pmem.Arena
	base  int // first managed byte (chunk-aligned)
	n     int // managed chunks

	mu       sync.Mutex
	free     []int  // free chunk indices (LIFO)
	reserve  int    // free chunks only AllocSurvivorChunk may take (Reserve)
	inPool   []bool // popFreeRun scratch, one flag per chunk (all false between calls)
	chunks   []chunkState
	recStats RecoveryStats // integrity events since BeginRecovery

	// classUsed mirrors the per-chunk used counts aggregated by class.
	// chunkState.used is owner-core-private (mutated without al.mu), so a
	// live occupancy snapshot cannot read it; these atomics are the
	// race-clean aggregate, maintained at every alloc/free/recover-mark.
	classUsed [NumClasses]atomic.Int64

	cores []*CoreAlloc
}

// New creates an allocator over chunks [firstChunk, firstChunk+nchunks) of
// the arena, with one private allocation context per core.
func New(arena *pmem.Arena, firstChunk, nchunks, ncores int) *Allocator {
	if ncores <= 0 || ncores > ownerMask+1 {
		panic("alloc: core count must be in [1, 65536] (the chunk header names the owner in 16 bits)")
	}
	if (firstChunk+nchunks)*pmem.ChunkSize > arena.Size() {
		panic("alloc: chunk range exceeds arena")
	}
	al := &Allocator{
		arena:  arena,
		base:   firstChunk * pmem.ChunkSize,
		n:      nchunks,
		chunks: make([]chunkState, nchunks),
		inPool: make([]bool, nchunks),
	}
	for i := range al.chunks {
		al.chunks[i] = chunkState{class: -1, owner: ownerNone}
		al.free = append(al.free, nchunks-1-i) // pop from the front of the range first
	}
	for c := 0; c < ncores; c++ {
		ca := &CoreAlloc{al: al, core: c}
		for i := range ca.cur {
			ca.cur[i] = -1
		}
		al.cores = append(al.cores, ca)
	}
	return al
}

// Core returns core c's private allocation context.
func (al *Allocator) Core(c int) *CoreAlloc { return al.cores[c] }

// FreeChunks returns the number of chunks in the global free pool.
func (al *Allocator) FreeChunks() int {
	al.mu.Lock()
	defer al.mu.Unlock()
	return len(al.free)
}

// Reserve holds the last n free chunks back for AllocSurvivorChunk: every
// other allocation reports out-of-space while the pool is at n. A log
// cleaner frees chunks by first writing their live entries into a fresh
// one, so a foreground that could take the last chunk would leave the
// store full with space to give.
func (al *Allocator) Reserve(n int) {
	al.mu.Lock()
	al.reserve = n
	al.mu.Unlock()
}

// WritableChunks returns the free chunks outside the reserve — what the
// foreground can still take.
func (al *Allocator) WritableChunks() int {
	al.mu.Lock()
	defer al.mu.Unlock()
	return max(len(al.free)-al.reserve, 0)
}

// chunkOff returns the byte offset of chunk i in the arena.
func (al *Allocator) chunkOff(i int) int { return al.base + i*pmem.ChunkSize }

// chunkIndex returns the chunk index containing arena offset off.
func (al *Allocator) chunkIndex(off int64) int {
	return (int(off) - al.base) / pmem.ChunkSize
}

// popFree removes a free chunk from the pool; only a survivor chunk may be
// one of the reserved ones.
func (al *Allocator) popFree(survivor bool) (int, bool) {
	al.mu.Lock()
	defer al.mu.Unlock()
	if len(al.free) == 0 || (!survivor && len(al.free) <= al.reserve) {
		return 0, false
	}
	i := al.free[len(al.free)-1]
	al.free = al.free[:len(al.free)-1]
	return i, true
}

// ClassOccupancy is one size class's live footprint.
type ClassOccupancy struct {
	Chunks     int // chunks cut to this class
	UsedBlocks int // allocated blocks across them
	CapBlocks  int // total block slots across them
}

// Occupancy is a moment-in-time view of how the managed chunks are used.
type Occupancy struct {
	Classes [NumClasses]ClassOccupancy
	Raw     int // raw whole chunks (log segments)
	Huge    int // chunks consumed by huge (multi-chunk) allocations
	Free    int // chunks in the free pool
}

// Occupancy snapshots the allocator's chunk usage under its lock (reader
// path only; the per-op allocation fast path never takes al.mu).
func (al *Allocator) Occupancy() Occupancy {
	var o Occupancy
	al.mu.Lock()
	defer al.mu.Unlock()
	o.Free = len(al.free)
	for i := range al.chunks {
		c := &al.chunks[i]
		switch {
		case c.class >= 0:
			cl := &o.Classes[c.class]
			cl.Chunks++
			cl.CapBlocks += c.capacity
		case c.owner == ownerRaw:
			o.Raw++
		case c.hugeLen > 0:
			o.Huge += c.hugeLen
		}
	}
	for i := range o.Classes {
		o.Classes[i].UsedBlocks = int(al.classUsed[i].Load())
	}
	return o
}

// popFreeRun removes a run of n contiguous free chunks from the pool,
// leaving the reserve.
func (al *Allocator) popFreeRun(n int) (int, bool) {
	al.mu.Lock()
	defer al.mu.Unlock()
	if len(al.free)-n < al.reserve {
		return 0, false
	}
	for _, i := range al.free {
		al.inPool[i] = true
	}
	start, run := -1, 0
	for i := 0; i < al.n && start < 0; i++ {
		if !al.inPool[i] {
			run = 0
		} else if run++; run == n {
			start = i - n + 1
		}
	}
	kept := al.free[:0]
	for _, i := range al.free {
		al.inPool[i] = false
		if start < 0 || i < start || i >= start+n {
			kept = append(kept, i)
		}
	}
	al.free = kept
	return start, start >= 0
}

// AllocRawChunk hands out one whole free chunk (used by the OpLog for log
// segments). The chunk header is NOT touched: the caller owns all 4 MB.
func (al *Allocator) AllocRawChunk() (off int64, err error) {
	return al.allocRaw(false)
}

// AllocSurvivorChunk is AllocRawChunk for a log cleaner's survivor chunk:
// it may take the chunks Reserve holds back.
func (al *Allocator) AllocSurvivorChunk() (off int64, err error) {
	return al.allocRaw(true)
}

func (al *Allocator) allocRaw(survivor bool) (int64, error) {
	i, ok := al.popFree(survivor)
	if !ok {
		return 0, ErrOutOfMemory
	}
	al.mu.Lock()
	al.chunks[i] = chunkState{class: -1, owner: ownerRaw}
	al.mu.Unlock()
	return int64(al.chunkOff(i)), nil
}

// FreeRawChunk returns a raw chunk to the pool, clearing its first word.
// Raw chunks are log segments whose header magic would otherwise persist
// after the free: a later salvage recovery scanning for orphaned log
// chunks must not mistake a freed (possibly reused and stale) segment for
// one holding acknowledged data.
func (al *Allocator) FreeRawChunk(off int64, f *pmem.Flusher) {
	i := al.chunkIndex(off)
	f.PersistUint64(int(off), magicFree)
	al.mu.Lock()
	al.chunks[i] = chunkState{class: -1, owner: ownerNone}
	al.free = append(al.free, i)
	al.mu.Unlock()
}

// CoreAlloc is one core's private allocation context. Alloc, Free and
// Drain are not safe for concurrent use (each server core owns exactly
// one); other goroutines release blocks through Allocator.FreeRemote.
type CoreAlloc struct {
	al   *Allocator
	core int
	// cur is the chunk each class allocates from, -1 if none. avail is the
	// class's availability set: every other chunk this core owns that has
	// both live and free blocks. An owned chunk in neither is full.
	cur   [NumClasses]int
	avail [NumClasses][]int

	// Frees handed over by goroutines that do not own the chunk. The two
	// slices swap in Drain, so a steady stream of hand-overs allocates
	// nothing; handN is the owner's lock-free "anything queued?" check.
	handMu    sync.Mutex
	handQ     []handedFree
	handSpare []handedFree
	handN     atomic.Int32
}

// handedFree is one block released by a goroutine that does not own its
// chunk, waiting for the owner to apply it.
type handedFree struct {
	off  int64
	size int
}

// cut takes a free chunk, assigns it the class and this core as owner,
// and persists the header.
func (c *CoreAlloc) cut(class int, f *pmem.Flusher) (int, error) {
	i, ok := c.al.popFree(false)
	if !ok {
		return 0, ErrOutOfMemory
	}
	cs := ClassSize(class)
	off := c.al.chunkOff(i)
	capacity := (pmem.ChunkSize - headerReserve) / cs
	// Persist the cutting size at the head of the chunk (§3.2): this is
	// the only flushed allocator metadata on the allocation path.
	f.PersistUint64(off, classHeader(cs, c.core))
	// The bitmap starts zeroed in a fresh arena; after runtime reuse it
	// may hold stale bits in the cache view, so clear it (no flush —
	// recovery rebuilds it anyway).
	clear(c.al.arena.Mem()[off+64 : off+64+bitmapWords(capacity)*8])
	c.al.mu.Lock()
	c.al.chunks[i] = chunkState{class: class, owner: c.core, capacity: capacity}
	c.al.mu.Unlock()
	return i, nil
}

// bitmapWords is the number of 64-bit words the allocation bitmap of a
// chunk with the given block count spans.
func bitmapWords(capacity int) int { return (capacity + 63) / 64 }

// countMarked is the number of set bits among the first capacity slots of
// a chunk's bitmap.
func countMarked(bm []byte, capacity int) int {
	n := 0
	for s := 0; s < capacity; s++ {
		if bm[s/8]&(1<<(s%8)) != 0 {
			n++
		}
	}
	return n
}

// list adds chunk ci to the class's availability set.
func (c *CoreAlloc) list(class, ci int) {
	c.avail[class] = append(c.avail[class], ci)
	c.al.chunks[ci].listed = len(c.avail[class])
}

// unlist removes chunk ci from the class's availability set.
func (c *CoreAlloc) unlist(class, ci int) {
	set := c.avail[class]
	p, last := c.al.chunks[ci].listed-1, set[len(set)-1]
	set[p] = last
	c.al.chunks[last].listed = p + 1
	c.al.chunks[ci].listed = 0
	c.avail[class] = set[:len(set)-1]
}

// nextChunk chooses where the class allocates once its current chunk is
// full (or gone): the fullest chunk in the availability set, so that the
// sparse ones keep draining towards empty and return to the pool (Hoard's
// emptiness order); a fresh chunk is cut only when the core owns no free
// block of the class at all. The scan is linear in the set, and runs once
// per chunk-fill rather than once per block.
func (c *CoreAlloc) nextChunk(class int, f *pmem.Flusher) (int, error) {
	// Handed-over frees may have opened blocks in owned chunks — the
	// current one included — or returned whole chunks to the pool.
	c.Drain(f)
	chunks := c.al.chunks
	if ci := c.cur[class]; ci >= 0 && chunks[ci].used < chunks[ci].capacity {
		return ci, nil
	}
	best := -1
	for _, ci := range c.avail[class] {
		if best < 0 || chunks[ci].used > chunks[best].used {
			best = ci
		}
	}
	if best < 0 {
		return c.cut(class, f)
	}
	c.unlist(class, best)
	return best, nil
}

// Alloc returns the arena offset of a block that can hold size bytes.
// Small requests are rounded up to a class; requests beyond MaxClass take
// whole chunks. The returned offset is always ≥256-byte aligned, so it can
// be packed into a 40-bit OpLog pointer. f persists the chunk header when
// a fresh chunk is cut; the bitmap update itself is NOT persisted (that is
// the point of the lazy-persist design).
func (c *CoreAlloc) Alloc(size int, f *pmem.Flusher) (int64, error) {
	class := classIndex(size)
	if class < 0 {
		return c.allocHuge(size, f)
	}
	ci := c.cur[class]
	if ci < 0 || c.al.chunks[ci].used == c.al.chunks[ci].capacity {
		var err error
		if ci, err = c.nextChunk(class, f); err != nil {
			return 0, err
		}
		c.cur[class] = ci
	}
	off := c.allocInChunk(ci)
	c.al.classUsed[class].Add(1)
	return off, nil
}

// allocInChunk finds a clear bitmap bit in chunk ci, which must not be
// full, sets it, and returns the block's arena offset. The bitmap is
// searched a 64-bit word at a time from where the last search succeeded:
// a reused chunk's free blocks are wherever its dead records were.
func (c *CoreAlloc) allocInChunk(ci int) int64 {
	st := &c.al.chunks[ci]
	cs := ClassSize(st.class)
	base := c.al.chunkOff(ci)
	bm := c.al.arena.Mem()[base+64 : base+headerReserve]
	nwords := bitmapWords(st.capacity)
	for n, w := 0, st.nextHint; n < nwords; n, w = n+1, w+1 {
		if w == nwords {
			w = 0
		}
		word := binary.LittleEndian.Uint64(bm[w*8:])
		bit := bits.TrailingZeros64(^word)
		// Bits past capacity in the last word are never set, so a lowest
		// clear bit beyond it means every real block of the word is taken.
		if slot := w*64 + bit; bit < 64 && slot < st.capacity {
			bm[slot/8] |= 1 << (slot % 8) // no flush: lazy persist
			st.used++
			st.nextHint = w
			return int64(base + headerReserve + slot*cs)
		}
	}
	panic(fmt.Sprintf("alloc: chunk %d counts %d of %d blocks used but its bitmap has no clear bit", ci, st.used, st.capacity))
}

// allocHuge allocates ⌈size/ChunkSize⌉ contiguous chunks.
func (c *CoreAlloc) allocHuge(size int, f *pmem.Flusher) (int64, error) {
	n := (size + headerReserve + pmem.ChunkSize - 1) / pmem.ChunkSize
	start, ok := c.al.popFreeRun(n)
	if !ok {
		return 0, ErrOutOfMemory
	}
	off := c.al.chunkOff(start)
	f.PersistUint64(off, magicHuge|uint64(n))
	c.al.mu.Lock()
	for j := start; j < start+n; j++ {
		c.al.chunks[j] = chunkState{class: -1, owner: ownerNone, used: 1}
	}
	c.al.chunks[start].hugeLen = n
	c.al.mu.Unlock()
	return int64(off + headerReserve), nil
}

// Free releases a previously allocated block. It must be called with the
// same size the block was allocated with. The bitmap update is volatile,
// like the allocation itself. A block in a chunk another core owns is
// handed to that core (see FreeRemote). A retired chunk that regains a
// free block joins the availability set; an empty chunk returns to the
// global pool, which persists the cleared header magic via f so a later
// clean-shutdown recovery cannot resurrect it.
func (c *CoreAlloc) Free(off int64, size int, f *pmem.Flusher) {
	class := classIndex(size)
	if class < 0 {
		c.al.freeHuge(off, f)
		return
	}
	ci, st := c.al.blockChunk(off, size, class)
	if st.owner != c.core {
		c.al.handOver(st.owner, off, size)
		return
	}
	cs := ClassSize(class)
	base := c.al.chunkOff(ci)
	slot := (int(off) - base - headerReserve) / cs
	if slot < 0 || slot >= st.capacity {
		panic(fmt.Sprintf("alloc: Free(%d) outside chunk %d data area", off, ci))
	}
	mem := c.al.arena.Mem()
	byteIdx := base + 64 + slot/8
	mask := byte(1 << (slot % 8))
	if mem[byteIdx]&mask == 0 {
		panic(fmt.Sprintf("alloc: double free of block at %d", off))
	}
	mem[byteIdx] &^= mask
	st.used--
	c.al.classUsed[class].Add(-1)
	switch {
	case st.used == 0:
		c.retire(ci, f)
	case st.used == st.capacity-1 && c.cur[class] != ci:
		c.list(class, ci) // was full: it has a block to offer again
	}
}

// retire returns the now-empty chunk ci to the global pool: clear the
// persisted class so crash recovery sees it as free, and drop it from
// this core's bookkeeping.
func (c *CoreAlloc) retire(ci int, f *pmem.Flusher) {
	st := &c.al.chunks[ci]
	f.PersistUint64(c.al.chunkOff(ci), magicFree)
	if c.cur[st.class] == ci {
		c.cur[st.class] = -1
	} else {
		c.unlist(st.class, ci) // not current and not full, so listed
	}
	c.al.mu.Lock()
	*st = chunkState{class: -1, owner: ownerNone}
	c.al.free = append(c.al.free, ci)
	c.al.mu.Unlock()
}

// FreeRemote releases a block on behalf of a goroutine that does not own
// the block's chunk — another core after a restart with a different core
// count, the checkpointer, the log cleaner. The block is queued for the
// owning core, which applies the free at its next Drain: the bitmap and
// the block count stay single-writer. Huge spans have no owner and are
// released on the spot, through f.
func (al *Allocator) FreeRemote(off int64, size int, f *pmem.Flusher) {
	class := classIndex(size)
	if class < 0 {
		al.freeHuge(off, f)
		return
	}
	_, st := al.blockChunk(off, size, class)
	al.handOver(st.owner, off, size)
}

// blockChunk returns the chunk holding the live block at off, which must
// be cut to the block's class. The block is live, so the chunk cannot be
// retired or re-cut under the caller: its class and owner are stable to
// read without the lock, from any goroutine.
func (al *Allocator) blockChunk(off int64, size, class int) (int, *chunkState) {
	ci := al.chunkIndex(off)
	st := &al.chunks[ci]
	if st.class != class {
		panic(fmt.Sprintf("alloc: freeing %d bytes at %d: chunk %d is not cut to that class", size, off, ci))
	}
	return ci, st
}

func (al *Allocator) handOver(owner int, off int64, size int) {
	o := al.cores[owner]
	o.handMu.Lock()
	o.handQ = append(o.handQ, handedFree{off, size})
	o.handMu.Unlock()
	o.handN.Add(1)
}

// Drain applies the frees other goroutines handed to this core. With none
// queued it is one inlined atomic load, so the owner can call it from its
// polling loop.
func (c *CoreAlloc) Drain(f *pmem.Flusher) {
	if c.handN.Load() != 0 {
		c.drain(f)
	}
}

func (c *CoreAlloc) drain(f *pmem.Flusher) {
	c.handMu.Lock()
	q := c.handQ
	c.handQ = c.handSpare[:0]
	c.handMu.Unlock()
	c.handN.Add(int32(-len(q)))
	for _, h := range q {
		c.Free(h.off, h.size, f)
	}
	c.handSpare = q
}

func (al *Allocator) freeHuge(off int64, f *pmem.Flusher) {
	start := al.chunkIndex(off - headerReserve)
	al.mu.Lock()
	defer al.mu.Unlock()
	n := al.chunks[start].hugeLen
	if n == 0 {
		panic(fmt.Sprintf("alloc: freeHuge(%d) is not a huge allocation", off))
	}
	f.PersistUint64(al.chunkOff(start), magicFree)
	for j := start; j < start+n; j++ {
		al.chunks[j] = chunkState{class: -1, owner: ownerNone}
		al.free = append(al.free, j)
	}
}

// UsedBlocks reports the allocated block count of the chunk containing
// off. Intended for tests.
func (al *Allocator) UsedBlocks(off int64) int {
	al.mu.Lock()
	defer al.mu.Unlock()
	return al.chunks[al.chunkIndex(off)].used
}
