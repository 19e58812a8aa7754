package alloc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flatstore/internal/pmem"
)

// block is one live allocation in a test's model of the allocator.
type block struct {
	off  int64
	size int
	core int // the core that allocated it
}

func classChunks(al *Allocator) int {
	n := 0
	for _, cl := range al.Occupancy().Classes {
		n += cl.Chunks
	}
	return n
}

func mustAudit(t *testing.T, al *Allocator) {
	t.Helper()
	if err := al.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocReuseModel drives random Alloc/Free of mixed classes from two
// cores — including frees issued by the core that does not own the chunk,
// and frees that arrive through FreeRemote — against an in-memory model:
// no block is handed out while live, the self-audit stays clean, and the
// per-class occupancy equals the model.
func TestAllocReuseModel(t *testing.T) {
	sizes := []int{200, 300, 1000, 5000, 60_000, 300_000, 700_000, 5 << 20}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			al, _, f := newTestAlloc(t, 64, 2)
			var live []block
			held := map[int64]bool{}
			for step := 0; step < 20_000; step++ {
				if len(live) > 0 && (rng.Intn(100) < 48 || len(live) > 600) {
					j := rng.Intn(len(live))
					b := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					delete(held, b.off)
					switch rng.Intn(4) {
					case 0:
						al.Core(1-b.core).Free(b.off, b.size, f) // not the owner: handed over
					case 1:
						al.FreeRemote(b.off, b.size, f)
					default:
						al.Core(b.core).Free(b.off, b.size, f)
					}
				} else {
					b := block{size: sizes[rng.Intn(len(sizes))], core: rng.Intn(2)}
					off, err := al.Core(b.core).Alloc(b.size, f)
					if err == ErrOutOfMemory {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if held[off] {
						t.Fatalf("step %d: block %d handed out while live", step, off)
					}
					b.off = off
					held[off] = true
					live = append(live, b)
				}
				if step%500 != 0 {
					continue
				}
				// Hand-overs still count as allocated until their owner
				// drains them; settle before comparing with the model.
				al.Core(0).Drain(f)
				al.Core(1).Drain(f)
				mustAudit(t, al)
				var want [NumClasses]int
				for _, b := range live {
					if ci := classIndex(b.size); ci >= 0 {
						want[ci]++
					}
				}
				for ci, cl := range al.Occupancy().Classes {
					if cl.UsedBlocks != want[ci] {
						t.Fatalf("step %d: class %d holds %d blocks, model %d", step, ClassSize(ci), cl.UsedBlocks, want[ci])
					}
				}
				marked := 0
				al.AuditBlocks(func(off int64, _ int) {
					marked++
					if !held[off] {
						t.Fatalf("step %d: bitmap marks %d, which the model freed", step, off)
					}
				})
				for _, b := range live {
					if classIndex(b.size) < 0 {
						marked++ // huge spans have no bitmap
					}
				}
				if marked != len(live) {
					t.Fatalf("step %d: %d blocks marked, model has %d", step, marked, len(live))
				}
			}
			// Everything freed: every chunk is back in the pool.
			for _, b := range live {
				al.Core(b.core).Free(b.off, b.size, f)
			}
			al.Core(0).Drain(f)
			al.Core(1).Drain(f)
			mustAudit(t, al)
			if got := al.FreeChunks(); got != 64 {
				t.Fatalf("FreeChunks = %d after freeing everything, want 64", got)
			}
		})
	}
}

// TestReuseSteadyStateBound overwrites a fixed live set many times
// (allocate the new copy, then free the old one, as a Put does) with a
// skewed choice of what to overwrite, on two cores. The class chunks held
// must follow the live data: at most ⌈live/capacity⌉ + cores + 1, and no
// more after 50 rounds than after 10. Cutting a fresh chunk whenever the
// current one fills, as the allocator once did, leaves every chunk that
// still holds one cold block pinned and fails both.
func TestReuseSteadyStateBound(t *testing.T) {
	const (
		cores    = 2
		perCore  = 2500
		size     = 4000 // 4 KiB class: 1023 blocks a chunk
		capacity = (pmem.ChunkSize - headerReserve) / 4096
	)
	al, _, f := newTestAlloc(t, 64, cores)
	rng := rand.New(rand.NewSource(7))
	var live [cores][]int64
	for c := range live {
		for k := 0; k < perCore; k++ {
			off, err := al.Core(c).Alloc(size, f)
			if err != nil {
				t.Fatal(err)
			}
			live[c] = append(live[c], off)
		}
	}
	bound := (cores*perCore+capacity-1)/capacity + cores + 1
	at10 := 0
	for round := 1; round <= 50; round++ {
		for n := 0; n < cores*perCore; n++ {
			c := n % cores
			// 80 % of the overwrites hit a fifth of the keys.
			k := rng.Intn(perCore / 5)
			if rng.Intn(5) == 0 {
				k = rng.Intn(perCore)
			}
			off, err := al.Core(c).Alloc(size, f)
			if err != nil {
				t.Fatal(err)
			}
			al.Core(c).Free(live[c][k], size, f)
			live[c][k] = off
		}
		got := classChunks(al)
		if got > bound {
			t.Fatalf("round %d: %d class chunks for %d live blocks of %d a chunk, bound %d", round, got, cores*perCore, capacity, bound)
		}
		if round == 10 {
			at10 = got
		}
	}
	if got := classChunks(al); got != at10 {
		t.Fatalf("class chunks grew with the number of overwrites: %d after 10 rounds, %d after 50", at10, got)
	}
	mustAudit(t, al)
}

// TestAllocReuseNoHeapAllocs pins the hot path's allocation budget: in
// steady state — chunks filling, retired chunks being re-listed and
// reused, every fourth free arriving through the hand-over queue — Alloc,
// Free, FreeRemote and Drain allocate nothing on the Go heap.
func TestAllocReuseNoHeapAllocs(t *testing.T) {
	al, _, f := newTestAlloc(t, 32, 2)
	ca := al.Core(0)
	rng := rand.New(rand.NewSource(3))
	live := make([]int64, 3000)
	step := func() {
		k := rng.Intn(len(live))
		off, err := ca.Alloc(4000, f)
		if err != nil {
			t.Fatal(err)
		}
		if old := live[k]; old != 0 && k%4 == 0 {
			al.FreeRemote(old, 4000, f)
			ca.Drain(f)
		} else if old != 0 {
			ca.Free(old, 4000, f)
		}
		live[k] = off
	}
	for n := 0; n < 20_000; n++ {
		step() // fill, then warm the availability set and the queue
	}
	if n := testing.AllocsPerRun(20_000, step); n != 0 {
		t.Fatalf("steady-state Alloc/Free: %v heap allocations per op, want 0", n)
	}
	mustAudit(t, al)
}

// recoverImage builds an arena in which each of two cores owns three
// partly filled chunks in each of two classes, and returns the live
// blocks. Each core's chunks of a class are adjacent, so handing chunks
// to cores round-robin in address order gives a core the other's chunks.
func recoverImage(t *testing.T) (*Allocator, *pmem.Arena, *pmem.Flusher, []block) {
	t.Helper()
	al, arena, f := newTestAlloc(t, 32, 2)
	rng := rand.New(rand.NewSource(11))
	var all []block
	for _, size := range []int{4000, 60_000} {
		capacity := (pmem.ChunkSize - headerReserve) / ClassSize(classIndex(size))
		var byCore [2][]block
		for c := 0; c < 2; c++ {
			for n := 0; n < 3*capacity; n++ {
				off, err := al.Core(c).Alloc(size, f)
				if err != nil {
					t.Fatal(err)
				}
				byCore[c] = append(byCore[c], block{off, size, c})
			}
		}
		// Free about a third of every chunk, never a whole one.
		for c := range byCore {
			for n, b := range byCore[c] {
				if n%capacity != 0 && rng.Intn(3) == 0 {
					al.Core(c).Free(b.off, b.size, f)
				} else {
					all = append(all, b)
				}
			}
		}
	}
	mustAudit(t, al)
	return al, arena, f, all
}

// reopen rebuilds an allocator over the image by the log-replay path
// (clean == false: bitmaps are rebuilt from the live pointers) or the
// clean-shutdown path (bitmaps were flushed and are trusted).
func reopen(t *testing.T, al *Allocator, arena *pmem.Arena, f *pmem.Flusher, live []block, clean bool, ncores int) *Allocator {
	t.Helper()
	if clean {
		al.FlushBitmaps(f)
	}
	re := New(arena.Crash(), 0, 32, ncores)
	if clean {
		re.RecoverFromCleanShutdown()
	} else {
		re.BeginRecovery()
		for _, b := range live {
			if got := re.RecoverMark(b.off, b.size); got != MarkLive {
				t.Fatalf("RecoverMark(%d) = %v", b.off, got)
			}
		}
		re.FinishRecovery()
	}
	mustAudit(t, re)
	return re
}

// TestRecoverReusesPartlyFilledChunks reopens an image with several partly
// filled chunks per (core, class) by both recovery paths. Every core must
// get back exactly the chunks it was filling — all of them, not one per
// class — so new allocations land in existing chunks and the free pool
// does not shrink until those are full; then both cores churn their own
// blocks concurrently, which the race detector fails if a chunk was
// handed to a core other than the one whose blocks it holds.
func TestRecoverReusesPartlyFilledChunks(t *testing.T) {
	for _, clean := range []bool{false, true} {
		t.Run(fmt.Sprintf("clean=%v", clean), func(t *testing.T) {
			al, arena, f, live := recoverImage(t)
			re := reopen(t, al, arena, f, live, clean, 2)

			// What each core owned before the crash, and how much room
			// those chunks have left.
			chunkOwner := map[int64]int{}
			room := map[[2]int]int{} // (core, class) → free blocks in its chunks
			for _, b := range live {
				ch := b.off &^ (pmem.ChunkSize - 1)
				class := classIndex(b.size)
				if _, seen := chunkOwner[ch]; !seen {
					chunkOwner[ch] = b.core
					room[[2]int{b.core, class}] += (pmem.ChunkSize - headerReserve) / ClassSize(class)
				}
				room[[2]int{b.core, class}]--
			}
			pool := re.FreeChunks()
			byCore := [2][]block{}
			for _, b := range live {
				byCore[b.core] = append(byCore[b.core], b)
			}
			f2 := re.arena.NewFlusher()
			for key, n := range room {
				c, size := key[0], ClassSize(key[1])
				for ; n > 0; n-- {
					off, err := re.Core(c).Alloc(size, f2)
					if err != nil {
						t.Fatal(err)
					}
					if owner, ok := chunkOwner[off&^(pmem.ChunkSize-1)]; !ok || owner != c {
						t.Fatalf("core %d allocated %d in a chunk it did not own before the restart (owner %d, known %v)", c, off, owner, ok)
					}
					byCore[c] = append(byCore[c], block{off, size, c})
				}
				if got := re.FreeChunks(); got != pool {
					t.Fatalf("core %d class %d: free pool went %d → %d before the recovered chunks were full", c, size, pool, got)
				}
			}
			// Every recovered chunk is full now: one more block needs a cut.
			off, err := re.Core(0).Alloc(4000, f2)
			if err != nil {
				t.Fatal(err)
			}
			byCore[0] = append(byCore[0], block{off, 4000, 0})
			if got := re.FreeChunks(); got != pool-1 {
				t.Fatalf("free pool %d → %d: the first allocation past the recovered chunks must cut exactly one", pool, got)
			}
			mustAudit(t, re)

			churn(t, re, byCore, false)
		})
	}
}

// TestRecoverHandsOverForeignFrees reopens the two-core image with three
// cores' worth of contexts and has every goroutine free the OTHER core's
// blocks while allocating its own: each such free reaches the owner's
// queue instead of the chunk, so the run is race-free and the books
// balance once the owners drain.
func TestRecoverHandsOverForeignFrees(t *testing.T) {
	al, arena, f, live := recoverImage(t)
	re := reopen(t, al, arena, f, live, false, 3)
	byCore := [2][]block{}
	for _, b := range live {
		byCore[b.core] = append(byCore[b.core], b)
	}
	churn(t, re, byCore, true)
}

// churn runs one goroutine per core, each freeing blocks and allocating
// replacements through its own context: its own blocks, or with swap the
// other core's (every free is then a hand-over). Afterwards the audit
// must be clean and the occupancy must equal what is left.
func churn(t *testing.T, al *Allocator, byCore [2][]block, swap bool) {
	t.Helper()
	var wg sync.WaitGroup
	left := [2]int{}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ca, f := al.Core(c), al.arena.NewFlusher()
			victims := byCore[c]
			if swap {
				victims = byCore[1-c]
			}
			rng := rand.New(rand.NewSource(int64(c)))
			var mine []block
			for _, b := range victims {
				ca.Free(b.off, b.size, f)
				if rng.Intn(2) == 0 {
					off, err := ca.Alloc(b.size, f)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, block{off, b.size, c})
				}
				ca.Drain(f)
			}
			left[c] = len(mine)
		}(c)
	}
	wg.Wait()
	f := al.arena.NewFlusher()
	al.Core(0).Drain(f)
	al.Core(1).Drain(f)
	mustAudit(t, al)
	used := 0
	for _, cl := range al.Occupancy().Classes {
		used += cl.UsedBlocks
	}
	if want := left[0] + left[1]; used != want {
		t.Fatalf("after the churn %d blocks are allocated, %d are live", used, want)
	}
}
