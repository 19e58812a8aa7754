package fault_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/fault"
	"flatstore/internal/pmem"
)

// val builds a deterministic value so oracle comparison is byte-exact.
func val(key uint64, step, size int) []byte {
	out := make([]byte, size)
	seed := key*2654435761 + uint64(step)*40503
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 56)
	}
	return out
}

// TestSweepPutOverwriteDelete crashes a base-mode store at every persist
// point of a put/overwrite/delete script, with inline and out-of-place
// values, deletes of present and re-created keys.
func TestSweepPutOverwriteDelete(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModeNone, ArenaChunks: 6}
	var script []fault.Op
	for k := uint64(1); k <= 6; k++ {
		script = append(script, fault.Put(k, val(k, 0, 40)))
	}
	script = append(script,
		fault.Put(1, val(1, 1, 400)), // inline → out-of-place
		fault.Put(2, val(2, 1, 60)),
		fault.Delete(3),
		fault.Put(7, val(7, 0, 700)), // out-of-place from birth
		fault.Delete(1),              // delete an out-of-place value
		fault.Put(3, val(3, 2, 50)),  // re-create a deleted key
		fault.Put(7, val(7, 1, 30)),  // out-of-place → inline
		fault.Delete(4),
	)
	fault.NewHarness(cfg, nil, script).Sweep(t, false)
}

// TestSweepPipelinedHB sweeps the grouped-batching path (publish, steal,
// batch append, completion) instead of the base path.
func TestSweepPipelinedHB(t *testing.T) {
	cfg := core.Config{Cores: 3, Mode: batch.ModePipelinedHB, ArenaChunks: 6}
	var script []fault.Op
	for k := uint64(10); k < 18; k++ {
		script = append(script, fault.Put(k, val(k, 0, 80)))
	}
	script = append(script,
		fault.Put(10, val(10, 1, 300)),
		fault.Delete(11),
		fault.Put(12, val(12, 1, 120)),
		fault.Delete(10),
		fault.Put(11, val(11, 2, 90)),
	)
	fault.NewHarness(cfg, nil, script).Sweep(t, false)
}

// TestSweepCheckpoint crashes inside runtime checkpoints: mid-blob,
// between the descriptor's two word updates, and around the free of the
// previous checkpoint block.
func TestSweepCheckpoint(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 7}
	var script []fault.Op
	for k := uint64(20); k < 26; k++ {
		script = append(script, fault.Put(k, val(k, 0, 64)))
	}
	script = append(script,
		fault.Checkpoint(),
		fault.Put(20, val(20, 1, 350)),
		fault.Delete(21),
		fault.Checkpoint(), // frees the first checkpoint's block
		fault.Put(26, val(26, 0, 48)),
		fault.Checkpoint(),
	)
	fault.NewHarness(cfg, nil, script).Sweep(t, false)
}

// TestSweepMasstree sweeps the shared-ordered-index configuration
// (FlatStore-M): recovery rebuilds one tree from all logs.
func TestSweepMasstree(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB,
		Index: core.IndexMasstree, ArenaChunks: 6}
	var script []fault.Op
	for k := uint64(30); k < 38; k++ {
		script = append(script, fault.Put(k, val(k, 0, 70)))
	}
	script = append(script,
		fault.Delete(33),
		fault.Put(31, val(31, 1, 500)),
		fault.Delete(36),
		fault.Put(33, val(33, 2, 44)),
	)
	fault.NewHarness(cfg, nil, script).Sweep(t, false)
}

// gcPrelude fills a two-core, one-group store so that each core's first log
// chunk is closed and mostly dead, yet still holds live entries (GC must
// relocate them) and stale Puts of later-deleted keys (tombstone-guard
// coverage). The harness lets a key's owning core lead its batch, so each
// log holds its own core's keys. It runs once; every trial reopens the
// resulting clean image.
func gcPrelude() []fault.Op {
	var ops []fault.Op
	// Cold keys: live out-of-place values whose entries stay in the first
	// chunk of their core's log.
	for k := uint64(1); k <= 120; k++ {
		ops = append(ops, fault.Put(k, val(k, 0, 400)))
	}
	// Churn fills both first chunks past capacity (a 250 B put is a 320 B
	// batch of one: ≈13.1k a chunk) and rolls both logs; every churn entry
	// left in a first chunk is dead.
	perCore := [2]int{}
	for k := uint64(1000); k < 1080; k++ {
		perCore[core.RouteKey(k, 2)]++
	}
	rounds := 13_200/min(perCore[0], perCore[1]) + 3
	for r := 0; r < rounds; r++ {
		for k := uint64(1000); k < 1080; k++ {
			ops = append(ops, fault.Put(k, val(k, r, 250)))
		}
	}
	// Tombstones in the tail chunks guard stale Puts back in the first ones.
	for k := uint64(1); k <= 10; k++ {
		ops = append(ops, fault.Delete(k))
	}
	return ops
}

// TestSweepGCUnderLoad crashes at every persist point, and every torn
// prefix of every flush, of a GC-under-load script whose first pass takes
// two victims from two different logs with live entries in both: one
// survivor-chunk write, journal, link, CAS repoint, then unlink and free of
// the first victim, unlink and free of the second, and the journal clear —
// interleaved with foreground writes and a checkpoint. In particular the
// store is cut between the two unlinks, where the second victim still sits
// in its chain beside the survivor that already holds its live entries.
func TestSweepGCUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("GC sweep replays a large prelude image per trial")
	}
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 8,
		GC: core.GCConfig{DeadRatio: 0.5}}
	script := []fault.Op{
		fault.Put(1000, val(1000, 999, 24)),
		fault.GC(), // both first chunks in one pass: survivors + stale puts of deleted keys
		// Over 1 KiB, so the record's flush is torn in two places, not at
		// every word: the records are not what is swept.
		fault.Put(11, val(11, 1, 1200)),
		fault.Delete(12),
		fault.GC(),
		fault.Checkpoint(),
		fault.GC(),
	}
	h := fault.NewHarness(cfg, gcPrelude(), script)

	// The script must do what the comments say, or the sweep proves nothing.
	var victims [2]int64
	if err := h.Observe(func(i int, st *core.Store) {
		switch i {
		case -1:
			for c := range victims {
				chain := st.Core(c).Log().Chunks()
				if len(chain) != 2 {
					t.Fatalf("core %d's log has %d chunks after the prelude, want one closed and the tail", c, len(chain))
				}
				victims[c] = chain[0]
			}
			live := map[int64]int{}
			for c := 0; c < 2; c++ {
				st.Core(c).Index().Range(func(_ uint64, ref int64, _ uint32) bool {
					live[ref&^(pmem.ChunkSize-1)]++
					return true
				})
			}
			if live[victims[0]] == 0 || live[victims[1]] == 0 {
				t.Fatalf("live entries per closed chunk: %d and %d, want some in both", live[victims[0]], live[victims[1]])
			}
		case 1:
			m := st.Metrics()
			if m.GCPasses != 1 || m.GCCleaned != 2 || m.GCRelocated == 0 {
				t.Fatalf("first GC op: %d passes freed %d chunks and relocated %d entries, want one pass over both closed chunks",
					m.GCPasses, m.GCCleaned, m.GCRelocated)
			}
			if st.Core(0).Log().Contains(victims[0]) || st.Core(1).Log().Contains(victims[1]) {
				t.Fatal("a victim is still linked after the pass")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	// What a crash left of the pass, as recovery found it: both victims
	// linked, the second alone, or neither.
	linked := map[[2]bool]int{}
	h.Recovered = func(st *core.Store) {
		linked[[2]bool{st.Core(0).Log().Contains(victims[0]), st.Core(1).Log().Contains(victims[1])}]++
	}
	stats := h.Sweep(t, true)
	if stats.Points < 40 || stats.Torn == 0 {
		t.Fatalf("GC script generated only %d persist points (%d torn trials)", stats.Points, stats.Torn)
	}
	for _, state := range [][2]bool{{true, true}, {false, true}, {false, false}} {
		if linked[state] == 0 {
			t.Errorf("no crash left the victims linked as %v (seen: %v): the window is not swept", state, linked)
		}
	}
	if n := linked[[2]bool{true, false}]; n != 0 {
		t.Errorf("%d crashes left the second victim unlinked before the first", n)
	}
}

// TestSweepTornFlushes re-sweeps two workloads applying 8-byte-granular
// partial flushes at every multi-word flush point before crashing.
func TestSweepTornFlushes(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModeNone, ArenaChunks: 6}
	script := []fault.Op{
		fault.Put(1, val(1, 0, 100)),
		fault.Put(2, val(2, 0, 420)),
		fault.Put(1, val(1, 1, 64)),
		fault.Checkpoint(),
		fault.Delete(2),
		fault.Put(3, val(3, 0, 200)),
	}
	stats := fault.NewHarness(cfg, nil, script).Sweep(t, true)
	if stats.Torn == 0 {
		t.Fatal("no torn-flush trials ran")
	}
}

// randomScript derives a reproducible workload from a seed.
func randomScript(seed int64, n int) []fault.Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []fault.Op
	for i := 0; i < n; i++ {
		key := uint64(1 + rng.Intn(12))
		switch rng.Intn(10) {
		case 0:
			ops = append(ops, fault.Delete(key))
		case 1:
			ops = append(ops, fault.Checkpoint())
		case 2:
			ops = append(ops, fault.GC())
		default:
			size := 1 + rng.Intn(500)
			ops = append(ops, fault.Put(key, val(key, i, size)))
		}
	}
	return ops
}

// TestSweepRandomized sweeps every crash point of seeded random scripts —
// the shapes the hand-written workloads did not think of.
func TestSweepRandomized(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 7}
			fault.NewHarness(cfg, nil, randomScript(seed, 18)).Sweep(t, false)
		})
	}
}

// FuzzCrashPoint drives a single randomized trial per fuzz input: the
// seed picks the script, point selects the crash site, tornHalf tears
// the flush there. The fuzzer explores (workload, crash point) pairs no
// fixed sweep enumerates.
func FuzzCrashPoint(f *testing.F) {
	f.Add(int64(7), uint16(3), false)
	f.Add(int64(11), uint16(40), true)
	f.Add(int64(99), uint16(200), false)
	f.Fuzz(func(t *testing.T, seed int64, point uint16, tornHalf bool) {
		cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 7}
		h := fault.NewHarness(cfg, nil, randomScript(seed, 14))
		total, points, err := h.CountPoints()
		if err != nil {
			t.Fatal(err)
		}
		if total == 0 {
			t.Skip("script generated no persist points")
		}
		n := uint64(point)%total + 1
		tear := -1
		if tornHalf {
			if pi := points[n-1]; pi.Kind == pmem.PointFlush && pi.N > 8 {
				tear = (pi.N / 2) &^ 7
			}
		}
		if _, err := h.RunPoint(n, tear); err != nil {
			t.Fatalf("seed %d point %d tear %d: %v", seed, n, tear, err)
		}
	})
}

// TestSweepChunkReuse crashes at every persist point of a script that
// makes each of two cores (a) allocate from a chunk it got back through
// clean recovery's availability set, (b) re-list a retired full chunk by
// freeing into it and allocate from it once the current chunk fills, and
// (c) empty a listed chunk so it retires to the pool. Values take the
// 1 MiB class (3 blocks a chunk), so a handful of puts fills a chunk.
// After every crash the usual invariants hold — no live pointer into a
// free chunk, no block marked or referenced twice, the allocator's audit
// clean — and again after the second crash.
func TestSweepChunkReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("chunk-reuse sweep writes 600 KB records in every trial")
	}
	const cores, big = 2, 600_000
	// keys[c][i] is the i-th key that routes to core c.
	var keys [cores][]uint64
	for k := uint64(1); len(keys[0]) < 12 || len(keys[1]) < 12; k++ {
		c := core.RouteKey(k, cores)
		keys[c] = append(keys[c], k)
	}
	both := func(f func(c int) fault.Op) []fault.Op {
		return []fault.Op{f(0), f(1)}
	}
	put := func(i, step int) []fault.Op {
		return both(func(c int) fault.Op { return fault.Put(keys[c][i], val(keys[c][i], step, big)) })
	}
	del := func(i int) []fault.Op {
		return both(func(c int) fault.Op { return fault.Delete(keys[c][i]) })
	}
	cat := func(parts ...[]fault.Op) (out []fault.Op) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Per core: chunk X = {0,1,2} full; 3 cuts Y; overwriting 0 frees into
	// X (listed, 2/3) and fills Y with 3, 0', 4. Closed cleanly.
	prelude := cat(put(0, 0), put(1, 0), put(2, 0), put(3, 0), put(0, 1), put(4, 0))
	script := cat(
		put(5, 0),            // ops 0-1: lands in recovered X — no cut
		put(6, 0),            // ops 2-3: X full, nothing listed — cuts Z
		del(3),               // ops 4-5: frees into full, retired Y — listed
		put(7, 0), put(8, 0), // ops 6-9: Z full
		put(9, 0),              // ops 10-11: Z full — reuses Y, no cut
		del(1), del(2), del(5), // ops 12-17: X listed, then empty — retires
		[]fault.Op{fault.Checkpoint()},
		put(10, 0), // cuts again from the pool X returned to
	)
	cfg := core.Config{Cores: cores, Mode: batch.ModePipelinedHB, ArenaChunks: 13}
	h := fault.NewHarness(cfg, prelude, script)

	// The script must do what the comments say, or the sweep proves nothing.
	pool := map[int]int{}
	if err := h.Observe(func(i int, st *core.Store) { pool[i] = st.Allocator().FreeChunks() }); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		op, delta int
		what      string
	}{
		{1, 0, "first puts after the clean reopen reuse the recovered chunks"},
		{3, -2, "the next puts cut one fresh chunk per core"},
		{11, -2, "puts after the current chunk filled reuse the re-listed chunks"},
		{17, 0, "emptying the listed chunks returns both to the pool"},
	} {
		if got := pool[want.op] - pool[-1]; got != want.delta {
			t.Fatalf("after op %d the free pool moved by %d, want %d: %s", want.op, got, want.delta, want.what)
		}
	}
	stats := h.Sweep(t, false)
	if stats.Points < 60 {
		t.Fatalf("chunk-reuse script generated only %d persist points", stats.Points)
	}
}
