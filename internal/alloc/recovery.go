package alloc

import "flatstore/internal/pmem"

// RecoveryStats counts integrity events observed while rebuilding the
// allocator. Historically a corrupt or torn chunk header was silently
// treated as free space; now every such event is counted so salvage can
// report it instead of swallowing it.
type RecoveryStats struct {
	// CorruptHeaders is the number of chunk headers that were unreadable
	// at BeginRecovery (bad magic payload, impossible class size, huge
	// span running past the arena) and were therefore treated as free.
	CorruptHeaders int
	// DanglingPtrs is the number of RecoverMark calls whose pointer did
	// not resolve to a valid block (out of the managed range, chunk not
	// cut, slot out of range or misaligned).
	DanglingPtrs int
}

// RecoveryStats returns the counters accumulated since BeginRecovery.
func (al *Allocator) RecoveryStats() RecoveryStats {
	al.mu.Lock()
	defer al.mu.Unlock()
	return al.recStats
}

// MarkResult classifies a RecoverMark outcome.
type MarkResult int

const (
	// MarkLive: the block was newly marked allocated.
	MarkLive MarkResult = iota
	// MarkDuplicate: the block was already marked (duplicate log entries
	// for the same pointer are normal — e.g. a survivor chunk plus the
	// original batch).
	MarkDuplicate
	// MarkDangling: the pointer did not resolve to a valid block. The
	// record it claimed to reference cannot be trusted.
	MarkDangling
)

// headerClass resolves a class-size payload read from a persisted chunk
// header to its class index, or -1 when the payload is not a valid class
// size. Unlike classIndex it never panics: the payload comes off media
// and may have rotted into anything, including zero.
func headerClass(cs int) int {
	if cs <= 0 || cs > MaxClass {
		return -1
	}
	class := classIndex(cs)
	if class < 0 || ClassSize(class) != cs {
		return -1
	}
	return class
}

// chunkIndexBounded is the defensive chunkIndex used on pointers
// reconstructed from possibly-corrupt media: it reports ok=false instead
// of indexing out of range.
func (al *Allocator) chunkIndexBounded(off int64) (int, bool) {
	if off < int64(al.base) {
		return 0, false
	}
	i := (int(off) - al.base) / pmem.ChunkSize
	if i >= al.n {
		return 0, false
	}
	return i, true
}

// headerClassOwner resolves a persisted class-chunk header word to its
// class index (-1 when the size payload is invalid) and owning core. An
// owner this allocator has no context for — the arena was reopened with
// fewer cores, or the owner bits rotted — is folded onto a core that
// exists: whichever core owns the chunk, frees from the others are handed
// over, so the choice only has to be deterministic.
func (al *Allocator) headerClassOwner(magic uint64) (class, owner int) {
	owner = int(magic>>ownerShift&ownerMask) % len(al.cores)
	return headerClass(int(magic &^ (magicMask | ownerMask<<ownerShift))), owner
}

// BeginRecovery prepares the allocator for post-crash reconstruction: it
// reads the persisted chunk headers (class cuts, their owners and huge
// spans survive a crash because they are flushed when written), zeroes
// every bitmap, and empties the free pool. The caller then invokes
// RecoverMark for each valid pointer discovered in the OpLog and finally
// FinishRecovery.
func (al *Allocator) BeginRecovery() {
	al.mu.Lock()
	defer al.mu.Unlock()
	al.loadHeaders(false)
}

// loadHeaders rebuilds the per-chunk DRAM state from the persisted chunk
// headers. With trustBitmaps (clean shutdown) the flushed bitmaps give
// each class chunk's block count, huge spans are live, and the raw chunks
// re-marked beforehand are kept; without it every bitmap is zeroed for
// RecoverMark to fill in. Unreadable headers are counted and their chunks
// treated as free. Caller holds al.mu.
func (al *Allocator) loadHeaders(trustBitmaps bool) {
	al.free = al.free[:0]
	al.recStats = RecoveryStats{}
	for i := range al.classUsed {
		al.classUsed[i].Store(0)
	}
	mem := al.arena.Mem()
	for i := 0; i < al.n; i++ {
		if trustBitmaps && al.chunks[i].owner == ownerRaw {
			continue // raw log chunk re-marked by RecoverMarkRawChunk
		}
		al.chunks[i] = chunkState{class: -1, owner: ownerNone}
		off := al.chunkOff(i)
		magic := al.arena.ReadUint64(off)
		switch magic & magicMask {
		case magicClass & magicMask:
			class, owner := al.headerClassOwner(magic)
			if class < 0 {
				// Corrupt or torn header: treated as free, but COUNTED —
				// every pointer into this chunk will surface as dangling
				// and its key will be quarantined, so reuse is safe.
				al.recStats.CorruptHeaders++
				continue
			}
			st := &al.chunks[i]
			*st = chunkState{class: class, owner: owner, capacity: (pmem.ChunkSize - headerReserve) / ClassSize(class)}
			bm := mem[off+64 : off+64+bitmapWords(st.capacity)*8]
			if !trustBitmaps {
				clear(bm)
				continue
			}
			st.used = countMarked(bm, st.capacity)
			al.classUsed[class].Add(int64(st.used))
		case magicHuge & magicMask:
			// A huge span: remember its extent and skip the member
			// chunks, whose leading bytes are payload, not headers.
			n := int(magic &^ magicMask)
			if n <= 0 || i+n > al.n {
				al.recStats.CorruptHeaders++
				continue
			}
			used := 0
			if trustBitmaps {
				used = 1
			}
			for j := i; j < i+n; j++ {
				al.chunks[j] = chunkState{class: -1, owner: ownerNone, used: used}
			}
			al.chunks[i].hugeLen = n
			i += n - 1
		}
	}
}

// BlockAllocated reports whether the DRAM state records a live block of
// the given size at off: the chunk is cut to the matching class and the
// slot's bitmap bit is set, or the offset is a recorded in-use huge span.
// Callers use it to validate pointers taken from persisted descriptors
// before freeing them — after media rot, a descriptor can outlive the
// accounting that backs it, and freeing through a rotted header would
// corrupt (or panic on) another chunk's bookkeeping.
func (al *Allocator) BlockAllocated(off int64, size int) bool {
	if size <= 0 {
		return false
	}
	class := classIndex(size)
	al.mu.Lock()
	defer al.mu.Unlock()
	if class < 0 {
		i, ok := al.chunkIndexBounded(off - headerReserve)
		if !ok || int(off-headerReserve) != al.chunkOff(i) {
			return false
		}
		return al.chunks[i].hugeLen > 0
	}
	ci, ok := al.chunkIndexBounded(off)
	if !ok {
		return false
	}
	st := al.chunks[ci]
	if st.class != class {
		return false
	}
	cs := ClassSize(class)
	base := al.chunkOff(ci)
	rel := int(off) - base - headerReserve
	if rel < 0 || rel%cs != 0 || rel/cs >= st.capacity {
		return false
	}
	slot := rel / cs
	return al.arena.Mem()[base+64+slot/8]&(1<<(slot%8)) != 0
}

// RecoverMark re-marks the block at off (allocated with the given size) as
// live. It derives the chunk and slot exactly as described in §3.2: the
// chunk base is off &^ (ChunkSize-1) and the slot follows from the
// persisted class size. The pointer comes from a replayed log entry and
// may reference media that has since rotted: every failure to resolve it
// is reported as MarkDangling (and counted) instead of being marked —
// the caller decides whether to quarantine the key.
func (al *Allocator) RecoverMark(off int64, size int) MarkResult {
	if size <= 0 {
		return al.dangling() // length decoded from rotted media
	}
	if classIndex(size) < 0 {
		return al.recoverMarkHuge(off)
	}
	ci, ok := al.chunkIndexBounded(off)
	if !ok {
		return al.dangling()
	}
	st := &al.chunks[ci]
	if st.class < 0 {
		// The pointer references a chunk whose header says it is not
		// cut — a stale log entry, or a chunk whose header rotted.
		return al.dangling()
	}
	cs := ClassSize(st.class)
	base := al.chunkOff(ci)
	rel := int(off) - base - headerReserve
	slot := rel / cs
	if rel < 0 || rel%cs != 0 || slot >= st.capacity {
		return al.dangling()
	}
	mem := al.arena.Mem()
	byteIdx := base + 64 + slot/8
	mask := byte(1 << (slot % 8))
	if mem[byteIdx]&mask != 0 {
		return MarkDuplicate // duplicate log entries are fine
	}
	mem[byteIdx] |= mask
	st.used++
	al.classUsed[st.class].Add(1)
	return MarkLive
}

func (al *Allocator) dangling() MarkResult {
	al.mu.Lock()
	al.recStats.DanglingPtrs++
	al.mu.Unlock()
	return MarkDangling
}

// RecoverMarkRawChunk re-marks a whole chunk as in use by a raw-chunk
// owner (the OpLog's segments). Call between BeginRecovery and
// FinishRecovery, or before RecoverFromCleanShutdown. Reports false when
// off is outside the managed range (a corrupt chain pointer).
func (al *Allocator) RecoverMarkRawChunk(off int64) bool {
	al.mu.Lock()
	defer al.mu.Unlock()
	i, ok := al.chunkIndexBounded(off)
	if !ok {
		return false
	}
	al.chunks[i] = chunkState{class: -1, owner: ownerRaw, used: 1}
	return true
}

// RecoverUnmarkRawChunk reverses RecoverMarkRawChunk for a chunk that
// salvage decided to drop (a log chunk past a truncation point). The
// chunk is NOT pushed to the free pool here — FinishRecovery pools every
// unowned, unused chunk, and pushing it twice would hand the same chunk
// to two owners.
func (al *Allocator) RecoverUnmarkRawChunk(off int64) {
	al.mu.Lock()
	defer al.mu.Unlock()
	if i, ok := al.chunkIndexBounded(off); ok {
		al.chunks[i] = chunkState{class: -1, owner: ownerNone}
	}
}

func (al *Allocator) recoverMarkHuge(off int64) MarkResult {
	start, ok := al.chunkIndexBounded(off - headerReserve)
	if !ok || int(off-headerReserve) != al.chunkOff(start) {
		// Huge payloads start exactly headerReserve into their first
		// chunk; anything else is a rotted pointer.
		return al.dangling()
	}
	st := &al.chunks[start]
	if st.hugeLen <= 0 {
		return al.dangling() // not a huge span recorded by BeginRecovery
	}
	if st.used != 0 {
		return MarkDuplicate
	}
	for j := start; j < start+st.hugeLen; j++ {
		al.chunks[j].used = 1
	}
	return MarkLive
}

// FinishRecovery rebuilds the free pool and every core's availability
// sets: each partly filled class chunk is listed with the core its header
// names, so the cores resume exactly the chunks they were filling and a
// chunk is never allocated from by one core while another frees into it.
// Chunks that were cut but hold no live blocks are released (their
// persisted class is cleared).
func (al *Allocator) FinishRecovery() {
	al.mu.Lock()
	defer al.mu.Unlock()
	al.finishRecovery()
}

func (al *Allocator) finishRecovery() {
	f := al.arena.NewFlusher()
	defer f.FlushEvents()
	for _, c := range al.cores {
		for class := range c.cur {
			c.cur[class] = -1
			c.avail[class] = c.avail[class][:0]
		}
	}
	for i := 0; i < al.n; i++ {
		st := &al.chunks[i]
		switch {
		case st.hugeLen > 0 && st.used == 0:
			// Dead huge span: release every member chunk.
			f.PersistUint64(al.chunkOff(i), magicFree)
			n := st.hugeLen
			for j := i; j < i+n; j++ {
				al.chunks[j] = chunkState{class: -1, owner: ownerNone}
				al.free = append(al.free, j)
			}
			i += n - 1
		case st.hugeLen > 0:
			i += st.hugeLen - 1 // live huge span: keep, skip members
		case st.class >= 0 && st.used == 0:
			f.PersistUint64(al.chunkOff(i), magicFree)
			*st = chunkState{class: -1, owner: ownerNone}
			al.free = append(al.free, i)
		case st.class >= 0:
			// No current chunk is chosen here: the owner's first Alloc of
			// the class takes the fullest listed chunk.
			if st.used < st.capacity {
				al.cores[st.owner].list(st.class, i)
			}
		case st.owner == ownerNone && st.used == 0:
			al.free = append(al.free, i)
		}
	}
}

// FlushBitmaps persists every in-use chunk's header and bitmap — the
// normal-shutdown path (§3.5), after which recovery can load bitmaps
// directly instead of replaying the log.
func (al *Allocator) FlushBitmaps(f *pmem.Flusher) {
	al.mu.Lock()
	defer al.mu.Unlock()
	for i, st := range al.chunks {
		if st.class < 0 {
			continue
		}
		cs := ClassSize(st.class)
		blocks := (pmem.ChunkSize - headerReserve) / cs
		f.Flush(al.chunkOff(i), 64+(blocks+7)/8)
	}
	f.Fence()
}

// RecoverFromCleanShutdown rebuilds DRAM state by trusting the persisted
// bitmaps (valid only after FlushBitmaps + a clean shutdown flag), then
// pools and lists the chunks exactly as FinishRecovery does.
func (al *Allocator) RecoverFromCleanShutdown() {
	al.mu.Lock()
	defer al.mu.Unlock()
	al.loadHeaders(true)
	al.finishRecovery()
}
