package fault

// Engine-level crash sweeps for the one-persist-point append: a log chunk
// reused after cleaning, roll's crash windows, and the remnant of a torn
// batch. The oplog package sweeps the same shapes against the log alone;
// here the whole recovery (replay, allocator rebuild, double crash) runs.

import (
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
)

// recorder builds a prelude by running it: ops are executed on a scratch
// store as they are recorded, so "put until the log rolls" can be written
// as a loop on the store's state instead of as arithmetic on entry sizes.
// The harness replays the recorded list, deterministically, into the same
// states.
type recorder struct {
	t   *testing.T
	tr  *trial
	ops []Op
}

func newRecorder(t *testing.T, cfg core.Config) *recorder {
	t.Helper()
	cfg.Arena = pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &recorder{t: t, tr: newTrialOn(st, histcheck.New(nil))}
}

func (r *recorder) do(op Op) {
	r.t.Helper()
	if err := r.tr.exec(op); err != nil {
		r.t.Fatalf("prelude op %d (%v): %v", len(r.ops), op.Kind, err)
	}
	r.ops = append(r.ops, op)
}

// room is the unwritten space of core c's tail chunk.
func (r *recorder) room(c int) int {
	l := r.tr.st.Core(c).Log()
	return pmem.ChunkSize - int(l.Tail()-l.TailChunk())
}

// keysFor returns n keys, from base up, that route to core c of 2.
func keysFor(c, n int, base uint64) (keys []uint64) {
	for k := base; len(keys) < n; k++ {
		if core.RouteKey(k, 2) == c {
			keys = append(keys, k)
		}
	}
	return keys
}

func logTailCfg() core.Config {
	// ModeNone: every core appends its own ops to its own log, one batch
	// per op, so the test decides which log grows.
	return core.Config{Cores: 2, Mode: batch.ModeNone, ArenaChunks: 6, GC: core.GCConfig{DeadRatio: 0.5}}
}

// fillTail puts keys round-robin on core c until its tail chunk has less
// than 256 B left: at most one more small batch fits before the log rolls.
func (r *recorder) fillTail(c int, keys []uint64, step int) {
	for i := 0; r.room(c) >= 256; i++ {
		size := 250
		if r.room(c) < 1024 {
			size = 8 // approach the end in 64-byte steps
		}
		r.do(Put(keys[i%len(keys)], mval(keys[i%len(keys)], step+i, size)))
	}
}

// reusePrelude leaves core 0's first log chunk X free after a life full of
// Puts for keys (A) that were since deleted, with their tombstones
// reclaimed too: were recovery ever to deliver one of X's old entries, a
// deleted key would come back, and Check reports it. Core roller's tail
// chunk is left nearly full, so its log is the next to roll. It returns
// the ops and X.
func reusePrelude(t *testing.T, roller int) ([]Op, int64) {
	r := newRecorder(t, logTailCfg())
	log0 := r.tr.st.Core(0).Log()
	a, b, c := keysFor(0, 100, 1000), keysFor(0, 100, 5000), keysFor(0, 10, 9000)
	x := log0.TailChunk()

	// X: A's Puts, then a few of C's to push the log over into Y.
	for i := 0; r.room(0) > 64<<10; i++ {
		r.do(Put(a[i%len(a)], mval(a[i%len(a)], i, 250)))
	}
	for i := 0; log0.TailChunk() == x; i++ {
		r.do(Put(c[i%len(c)], mval(c[i%len(c)], i, 250)))
	}
	y := log0.TailChunk()
	// Y: A's tombstones and B's churn, until the log rolls into Z; then
	// the newest value of every B and C key lands in Z, so Y is all dead.
	for _, k := range a {
		r.do(Delete(k))
	}
	for i := 0; log0.TailChunk() == y; i++ {
		r.do(Put(b[i%len(b)], mval(b[i%len(b)], i, 250)))
	}
	for i, k := range append(append([]uint64(nil), b...), c...) {
		r.do(Put(k, mval(k, 1<<20+i, 250)))
	}
	// The cleaner frees X (nothing live), which releases A's tombstones in
	// Y, then Y (nothing live either). No survivor chunk is written.
	for i := 0; log0.Contains(x) || log0.Contains(y); i++ {
		if i == 4 {
			t.Fatal("cleaner did not free both closed chunks in 4 passes")
		}
		r.do(GC())
	}
	if got := log0.Chunks(); len(got) != 1 {
		t.Fatalf("core 0's chain is %#x after cleaning, want the tail chunk alone", got)
	}
	if roller == 0 {
		r.fillTail(0, b, 2<<20)
	} else {
		r.fillTail(1, keysFor(1, 50, 20000), 0)
	}
	return r.ops, x
}

// TestSweepLogChunkReuse crashes at every persist point, and every 8-byte
// torn prefix of every flush, of a script in which a log rolls into the
// physical chunk the cleaner freed — the log that filled it, and the other
// core's — and writes its first batches there. The chunk's previous life
// lies intact behind the new tail. No entry of it is ever delivered (a
// deleted key would reappear), the allocator's audit is clean, and the
// same holds after the second crash. (Two logs whose counters stand at the
// same value when one takes over the other's chunk are swept at the log
// level, in oplog's TestChunkReuseNeverReplaysPreviousLife.)
func TestSweepLogChunkReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("log-chunk-reuse sweep replays a 12 MB log prelude")
	}
	cfg := logTailCfg()
	for roller := 0; roller < 2; roller++ {
		name := []string{"same-core", "other-core"}[roller]
		t.Run(name, func(t *testing.T) {
			prelude, x := reusePrelude(t, roller)

			// Which free chunks would be handed out before X after the
			// clean reopen? Each is burnt by one out-of-place put of its
			// own size class (a class chunk cut) on the core that does
			// not roll.
			burns := -1
			if err := NewHarness(cfg, prelude, nil).Observe(func(_ int, st *core.Store) {
				free := st.Allocator().FreeList()
				for i, off := range free {
					if off == x {
						burns = len(free) - 1 - i
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if burns < 0 || burns > 4 {
				t.Fatalf("chunk %#x is not in the free pool after the prelude (or %d chunks are ahead of it)", x, burns)
			}

			var script []Op
			for i, k := range keysFor(1-roller, burns, 30000) {
				// Over 1 KiB, so the record's flush is torn in two places,
				// not at every word: the records are not what is swept.
				script = append(script, Put(k, mval(k, 0, 1200<<i)))
			}
			rollAt := len(script)
			keys := keysFor(roller, 4, 40000)
			for i, k := range keys {
				script = append(script, Put(k, mval(k, 0, 24+i%3*40)))
			}
			script = append(script, Delete(keys[0]), Put(keys[1], mval(keys[1], 1, 9)))

			h := NewHarness(cfg, prelude, script)
			rolledInto := int64(-1)
			if err := h.Observe(func(i int, st *core.Store) {
				if l := st.Core(roller).Log(); i >= rollAt && rolledInto < 0 && len(l.Chunks()) == 2 {
					rolledInto = l.TailChunk()
					if i > len(script)-4 {
						t.Fatalf("log rolled only at script op %d of %d: the first batches of the new life are not swept", i, len(script))
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if rolledInto != x {
				t.Fatalf("core %d's log rolled into %#x, not the freed chunk %#x", roller, rolledInto, x)
			}
			if stats := h.Sweep(t, true); stats.Torn == 0 {
				t.Fatal("no torn-flush trials ran")
			}
		})
	}
}

// TestSweepRollWindows crashes between each of roll's persists — end
// marker, new chunk header, link, metadata slot — at every torn prefix of
// them, and before and inside the first batch in the new chunk. The new
// chunk is either not linked yet (then it is free again) or the tail,
// empty or not: Check finds every raw chunk in exactly one chain, none
// leaked, and nothing acknowledged missing.
func TestSweepRollWindows(t *testing.T) {
	r := newRecorder(t, logTailCfg())
	keys := keysFor(0, 40, 100)
	r.fillTail(0, keys, 0)
	script := []Op{
		Put(keys[0], mval(keys[0], 1<<20, 30)),
		Put(keys[1], mval(keys[1], 1<<20, 100)),
		Put(keys[2], mval(keys[2], 1<<20, 300)),
		Delete(keys[3]),
	}
	h := NewHarness(logTailCfg(), r.ops, script)
	chain := map[int]int{}
	if err := h.Observe(func(i int, st *core.Store) { chain[i] = len(st.Core(0).Log().Chunks()) }); err != nil {
		t.Fatal(err)
	}
	if chain[-1] != 1 || chain[1] != 2 {
		t.Fatalf("chain lengths %v: the log must roll inside the first two script ops", chain)
	}
	h.Sweep(t, true)
}

// TestTornBatchRemnantRecovery tears a long batch, recovers, appends a
// shorter batch over its start, crashes and recovers: exactly the
// acknowledged set each time, although the long batch's remnant — value
// bytes shaped like this chunk's trailers — lies behind the short one.
func TestTornBatchRemnantRecovery(t *testing.T) {
	cfg := core.Config{Cores: 1, Mode: batch.ModeNone, ArenaChunks: 5}
	long := make([]byte, 256)
	for keep := 8; keep < 16+256+16; keep += 24 {
		arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
		cfg.Arena = arena
		st, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTrialOn(st, histcheck.New(nil))
		if err := tr.exec(Put(1, mval(1, 0, 60))); err != nil {
			t.Fatal(err)
		}
		// Trailer-shaped words of the tail chunk's own generation, with
		// start offsets that step through the batch's own lines.
		l := st.Core(0).Log()
		gen := arena.ReadUint64(int(l.TailChunk())+16) & oplog.VersionMask
		for i := 0; i+16 <= len(long); i += 16 {
			w0 := uint64(oplog.OpEnd) | 1<<2 | gen<<3 | uint64(48+i)<<24
			w1 := uint64(l.Tail()-l.TailChunk()+int64(i)/64*64)<<32 | 0x5eed
			for j := 0; j < 8; j++ {
				long[i+j], long[i+8+j] = byte(w0>>(8*j)), byte(w1>>(8*j))
			}
		}
		in := Attach(arena)
		in.Record()
		in.TearAt(1, keep) // the long batch's flush is the put's first point
		if !in.Run(func() { _ = tr.exec(Put(2, long)) }) {
			t.Fatal("armed crash not reached")
		}
		in.Detach()
		if pi := in.Recorded()[0]; pi.Kind != pmem.PointFlush || pi.N < 16+256+16 {
			t.Fatalf("first persist point of the put is %+v, not the batch flush", pi)
		}

		cfg.Arena = arena.Crash()
		tr.h.Crash()
		re, err := core.Open(cfg)
		if err != nil {
			t.Fatalf("keep %d: recovery: %v", keep, err)
		}
		if err := Check(re, tr.h); err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		if _, ok, _ := readVerified(re, 2); ok {
			t.Fatalf("keep %d: a torn batch was delivered", keep)
		}
		tr2 := newTrialOn(re, tr.h)
		if err := tr2.exec(Put(3, []byte("short"))); err != nil {
			t.Fatal(err)
		}
		cfg.Arena = re.Arena().Crash()
		tr.h.Crash()
		re2, err := core.Open(cfg)
		if err != nil {
			t.Fatalf("keep %d: second recovery: %v", keep, err)
		}
		if err := Check(re2, tr.h); err != nil {
			t.Fatalf("keep %d: after the short batch: %v", keep, err)
		}
	}
}
