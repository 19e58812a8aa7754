package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flatstore/internal/pmem"
)

func newTestAlloc(t *testing.T, nchunks, ncores int) (*Allocator, *pmem.Arena, *pmem.Flusher) {
	t.Helper()
	a := pmem.New(nchunks * pmem.ChunkSize)
	al := New(a, 0, nchunks, ncores)
	return al, a, a.NewFlusher()
}

func TestClassIndex(t *testing.T) {
	cases := []struct {
		size, want int
	}{
		{1, 0}, {255, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{4096, 4}, {1 << 20, 12}, {1<<20 + 1, -1}, {64 << 20, -1},
	}
	for _, c := range cases {
		if got := classIndex(c.size); got != c.want {
			t.Errorf("classIndex(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if ClassSize(0) != 256 || ClassSize(12) != 1<<20 {
		t.Error("ClassSize endpoints wrong")
	}
}

func TestClassIndexPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	classIndex(0)
}

func TestAllocAlignmentAndPtrPacking(t *testing.T) {
	al, _, f := newTestAlloc(t, 8, 1)
	ca := al.Core(0)
	for _, size := range []int{1, 100, 256, 300, 1000, 4096, 100000} {
		off, err := ca.Alloc(size, f)
		if err != nil {
			t.Fatal(err)
		}
		if off%256 != 0 {
			t.Errorf("Alloc(%d) = %d, not 256-aligned", size, off)
		}
		// Must be packable into a 40-bit pointer (addr >> 8).
		if off>>8 >= 1<<40 {
			t.Errorf("Alloc(%d) = %d exceeds 40-bit ptr range", size, off)
		}
	}
}

func TestAllocDistinctBlocks(t *testing.T) {
	al, _, f := newTestAlloc(t, 2, 1)
	ca := al.Core(0)
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		off, err := ca.Alloc(300, f)
		if err != nil {
			t.Fatal(err)
		}
		if seen[off] {
			t.Fatalf("block %d handed out twice", off)
		}
		seen[off] = true
	}
}

func TestCutPersistsHeaderButNotBitmap(t *testing.T) {
	al, arena, f := newTestAlloc(t, 2, 1)
	ca := al.Core(0)
	off, err := ca.Alloc(300, f)
	if err != nil {
		t.Fatal(err)
	}
	chunkBase := off &^ (pmem.ChunkSize - 1)
	// Header (class) must be persistent.
	if !arena.IsPersisted(int(chunkBase), 8) {
		t.Error("chunk class header not flushed at cut time")
	}
	// Bitmap must NOT have been flushed (lazy persist).
	after := arena.Crash()
	if after.Mem()[chunkBase+64] != 0 {
		t.Error("bitmap flushed eagerly; lazy-persist design violated")
	}
}

func TestFreeAndReuse(t *testing.T) {
	al, _, f := newTestAlloc(t, 2, 1)
	ca := al.Core(0)
	off1, _ := ca.Alloc(500, f)
	ca.Free(off1, 500, f)
	off2, _ := ca.Alloc(500, f)
	if off1 != off2 {
		t.Errorf("freed block not reused: %d then %d", off1, off2)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	al, _, f := newTestAlloc(t, 2, 1)
	ca := al.Core(0)
	off, _ := ca.Alloc(500, f)
	ca.Free(off, 500, f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	ca.Free(off, 500, f)
}

func TestEmptyChunkRetired(t *testing.T) {
	al, _, f := newTestAlloc(t, 2, 1)
	ca := al.Core(0)
	before := al.FreeChunks()
	off, _ := ca.Alloc(300, f)
	if al.FreeChunks() != before-1 {
		t.Fatal("cut did not consume a chunk")
	}
	ca.Free(off, 300, f)
	if al.FreeChunks() != before {
		t.Error("empty chunk not returned to pool")
	}
}

func TestChunkExhaustion(t *testing.T) {
	al, _, f := newTestAlloc(t, 1, 1)
	ca := al.Core(0)
	var err error
	for i := 0; i < 1<<20; i++ {
		if _, err = ca.Alloc(1<<20, f); err != nil {
			break
		}
	}
	if err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestChunkFullRollsToNext(t *testing.T) {
	al, _, f := newTestAlloc(t, 3, 1)
	ca := al.Core(0)
	perChunk := (pmem.ChunkSize - headerReserve) / 256
	seen := map[int64]bool{}
	for i := 0; i < perChunk+10; i++ {
		off, err := ca.Alloc(256, f)
		if err != nil {
			t.Fatal(err)
		}
		if seen[off] {
			t.Fatal("duplicate block across chunk roll")
		}
		seen[off] = true
	}
}

func TestHugeAllocFree(t *testing.T) {
	al, _, f := newTestAlloc(t, 8, 1)
	ca := al.Core(0)
	before := al.FreeChunks()
	off, err := ca.Alloc(6<<20, f) // needs 2 chunks
	if err != nil {
		t.Fatal(err)
	}
	if al.FreeChunks() != before-2 {
		t.Errorf("huge alloc consumed %d chunks, want 2", before-al.FreeChunks())
	}
	ca.Free(off, 6<<20, f)
	if al.FreeChunks() != before {
		t.Error("huge free did not return chunks")
	}
}

func TestRawChunk(t *testing.T) {
	al, _, f := newTestAlloc(t, 4, 1)
	off, err := al.AllocRawChunk()
	if err != nil {
		t.Fatal(err)
	}
	if off%pmem.ChunkSize != 0 {
		t.Errorf("raw chunk at %d not chunk-aligned", off)
	}
	before := al.FreeChunks()
	al.FreeRawChunk(off, f)
	if al.FreeChunks() != before+1 {
		t.Error("raw chunk not returned")
	}
}

func TestPerCoreIsolation(t *testing.T) {
	al, _, f := newTestAlloc(t, 4, 2)
	off0, _ := al.Core(0).Alloc(300, f)
	off1, _ := al.Core(1).Alloc(300, f)
	// Different cores cut different chunks.
	if off0&^(pmem.ChunkSize-1) == off1&^(pmem.ChunkSize-1) {
		t.Error("two cores share a chunk")
	}
}

func TestCrashRecoveryRebuildsBitmaps(t *testing.T) {
	al, arena, f := newTestAlloc(t, 4, 1)
	ca := al.Core(0)
	live, _ := ca.Alloc(500, f)
	dead, _ := ca.Alloc(500, f)
	_ = dead // allocated but (conceptually) superseded: no log pointer
	keepHuge, _ := ca.Alloc(5<<20, f)

	crashed := arena.Crash()
	al2 := New(crashed, 0, 4, 1)
	al2.BeginRecovery()
	al2.RecoverMark(live, 500)
	al2.RecoverMark(keepHuge, 5<<20)
	al2.FinishRecovery()

	// The live block must still be considered allocated: a new alloc
	// must not hand it out again.
	ca2 := al2.Core(0)
	for i := 0; i < 100; i++ {
		off, err := ca2.Alloc(500, f)
		if err != nil {
			t.Fatal(err)
		}
		if off == live {
			t.Fatal("recovery lost a live block: it was re-allocated")
		}
		if off == dead {
			break // dead block correctly recycled
		}
	}
	// Huge span survives; its chunks are not in the free pool.
	// 4 chunks total: 1 cut for 512 B class, 2 huge, 1 free before the
	// new allocations above.
	if got, err := ca2.Alloc(5<<20, f); err == nil {
		start := got &^ (pmem.ChunkSize - 1)
		if start == keepHuge-headerReserve {
			t.Fatal("recovered huge span re-allocated")
		}
	}
}

func TestCrashRecoveryFreesUnreferencedChunks(t *testing.T) {
	al, arena, f := newTestAlloc(t, 4, 1)
	ca := al.Core(0)
	ca.Alloc(500, f) // cut a chunk, but no RecoverMark will reference it
	ca.Alloc(5<<20, f)

	crashed := arena.Crash()
	al2 := New(crashed, 0, 4, 1)
	al2.BeginRecovery()
	al2.FinishRecovery()
	if got := al2.FreeChunks(); got != 4 {
		t.Errorf("FreeChunks = %d after recovery with empty log, want 4", got)
	}
}

func TestCleanShutdownRecovery(t *testing.T) {
	al, arena, f := newTestAlloc(t, 4, 1)
	ca := al.Core(0)
	live, _ := ca.Alloc(500, f)
	al.FlushBitmaps(f)

	re := arena.Crash() // clean shutdown: bitmaps were flushed first
	al2 := New(re, 0, 4, 1)
	al2.RecoverFromCleanShutdown()
	ca2 := al2.Core(0)
	for i := 0; i < 10; i++ {
		off, err := ca2.Alloc(500, f)
		if err != nil {
			t.Fatal(err)
		}
		if off == live {
			t.Fatal("clean-shutdown recovery re-allocated a live block")
		}
	}
}

func TestUsedBlocks(t *testing.T) {
	al, _, f := newTestAlloc(t, 2, 1)
	ca := al.Core(0)
	off, _ := ca.Alloc(300, f)
	ca.Alloc(300, f)
	if got := al.UsedBlocks(off); got != 2 {
		t.Errorf("UsedBlocks = %d, want 2", got)
	}
}

// Property: any interleaving of allocs and frees never hands out
// overlapping live blocks, and alloc sizes are respected.
func TestQuickNoOverlappingLiveBlocks(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := pmem.New(4 * pmem.ChunkSize)
		al := New(a, 0, 4, 1)
		f := a.NewFlusher()
		ca := al.Core(0)
		type blk struct {
			off  int64
			size int
		}
		var live []blk
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				ca.Free(live[j].off, live[j].size, f)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := 1 + rng.Intn(8192)
			off, err := ca.Alloc(size, f)
			if err != nil {
				continue
			}
			for _, b := range live {
				if off < b.off+int64(b.size) && b.off < off+int64(size) {
					return false // overlap
				}
			}
			live = append(live, blk{off, size})
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: crash recovery with the full live set re-marked yields an
// allocator that never re-allocates a live block.
func TestQuickRecoveryPreservesLiveSet(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := pmem.New(4 * pmem.ChunkSize)
		al := New(a, 0, 4, 1)
		f := a.NewFlusher()
		ca := al.Core(0)
		type blk struct {
			off  int64
			size int
		}
		var live []blk
		for i := 0; i < 100; i++ {
			size := 1 + rng.Intn(2048)
			off, err := ca.Alloc(size, f)
			if err != nil {
				break
			}
			if rng.Intn(4) == 0 {
				ca.Free(off, size, f)
			} else {
				live = append(live, blk{off, size})
			}
		}
		crashed := a.Crash()
		al2 := New(crashed, 0, 4, 1)
		al2.BeginRecovery()
		for _, b := range live {
			al2.RecoverMark(b.off, b.size)
		}
		al2.FinishRecovery()
		ca2 := al2.Core(0)
		f2 := crashed.NewFlusher()
		for i := 0; i < 200; i++ {
			size := 1 + rng.Intn(2048)
			off, err := ca2.Alloc(size, f2)
			if err != nil {
				break
			}
			for _, b := range live {
				if off < b.off+int64(b.size) && b.off < off+int64(size) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestReserve: the reserved chunks are out of reach of every allocation but
// a survivor chunk's.
func TestReserve(t *testing.T) {
	al, _, f := newTestAlloc(t, 4, 1)
	al.Reserve(1)
	for al.FreeChunks() > 1 {
		if _, err := al.AllocRawChunk(); err != nil {
			t.Fatalf("AllocRawChunk with %d chunks free: %v", al.FreeChunks(), err)
		}
	}
	if al.WritableChunks() != 0 {
		t.Fatalf("WritableChunks = %d with only the reserve left", al.WritableChunks())
	}
	if _, err := al.AllocRawChunk(); err == nil {
		t.Error("AllocRawChunk took the reserved chunk")
	}
	if _, err := al.Core(0).Alloc(300, f); err == nil {
		t.Error("a class chunk was cut from the reserve")
	}
	if _, err := al.Core(0).Alloc(pmem.ChunkSize, f); err == nil {
		t.Error("a huge allocation took the reserve")
	}
	off, err := al.AllocSurvivorChunk()
	if err != nil {
		t.Fatalf("AllocSurvivorChunk with the reserve free: %v", err)
	}
	al.FreeRawChunk(off, f)
	if al.FreeChunks() != 1 {
		t.Errorf("%d chunks free after the survivor chunk came back", al.FreeChunks())
	}
}
