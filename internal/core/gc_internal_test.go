package core

import (
	"bytes"
	"slices"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
)

// regSnapshot copies every core's tombstone-guard registry.
func regSnapshot(st *Store) map[uint64]keyMeta {
	out := map[uint64]keyMeta{}
	for _, c := range st.cores {
		c.idxMu.Lock()
		for k, m := range c.reg {
			out[k] = m
		}
		c.idxMu.Unlock()
	}
	return out
}

func regEqual(a, b map[uint64]keyMeta) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCleanOnceIdempotentOnSurvivorFailure pins the cleaner's commit-point
// contract for a pass over two victims: a CleanOnce that fails to place its
// survivor chunk (out of space) must leave the registry, the journal slot,
// both chains and both victims byte-identical, so the same pass can be
// retried. The broken version decremented tombstone-guard counts during
// classification; each failed retry then double-decremented them, a
// tombstone was reclaimed while older Puts of its key were still in the
// log, and the next crash recovery resurrected the deleted key.
func TestCleanOnceIdempotentOnSurvivorFailure(t *testing.T) {
	cfg := Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 12,
		GC: GCConfig{DeadRatio: 0.3}}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	cl := st.Connect()
	// Interleave never-overwritten keys with overwrite churn so every
	// chunk holds live entries: any pass needs a survivor chunk, and a
	// chunk-pool exhaustion therefore fails every CleanOnce. Two closed
	// chunks, each nearly all dead: the pass takes both.
	filler := make([]byte, 200)
	unique := uint64(10_000)
	log := st.cores[0].log
	for len(log.Chunks()) < 3 {
		for k := uint64(0); k < 250; k++ {
			if err := cl.Put(1000+k, filler); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Put(unique, []byte("keep")); err != nil {
			t.Fatal(err)
		}
		unique++
	}
	// Late deletes: tombstones land in the tail chunk while stale Puts of
	// the same keys sit in both closed chunks, so the registry carries
	// guard counts the failed clean must not disturb.
	for k := uint64(1000); k < 1010; k++ {
		if _, err := cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	st.Stop()

	before := regSnapshot(st)
	if len(before) == 0 {
		t.Fatal("workload built no tombstone guards; test would assert nothing")
	}
	chain := log.Chunks()
	closed := chain[:2]
	image := func() (img [][]byte) {
		for _, ch := range closed {
			img = append(img, append([]byte(nil), st.arena.Mem()[ch:ch+pmem.ChunkSize]...))
		}
		return img
	}
	victimsBefore := image()

	// Exhaust the chunk pool so WriteSurvivorChunk cannot allocate.
	var hoard []int64
	for {
		off, err := st.al.AllocRawChunk()
		if err != nil {
			break
		}
		hoard = append(hoard, off)
	}
	cleaner := st.NewCleaner(0)
	if v, _ := cleaner.pickVictims(); len(v) != 2 {
		t.Fatalf("the pass would take %d victims, want both closed chunks", len(v))
	}
	for attempt := 0; attempt < 3; attempt++ {
		cleaner.CleanOnce()
		if got := cleaner.Stats(); got != (CleanerStats{}) {
			t.Fatalf("attempt %d: clean claimed progress with an empty chunk pool: %+v", attempt, got)
		}
		if after := regSnapshot(st); !regEqual(before, after) {
			t.Fatalf("attempt %d: failed CleanOnce mutated the registry (%d -> %d guards)",
				attempt, len(before), len(after))
		}
		if v := st.JournalSlot(0); v != 0 {
			t.Fatalf("attempt %d: failed CleanOnce left journal slot set: %#x", attempt, v)
		}
		if got := log.Chunks(); !slices.Equal(got, chain) {
			t.Fatalf("attempt %d: failed CleanOnce changed the chain: %#x -> %#x", attempt, chain, got)
		}
		for i, img := range image() {
			if !bytes.Equal(img, victimsBefore[i]) {
				t.Fatalf("attempt %d: failed CleanOnce wrote into victim %#x", attempt, closed[i])
			}
		}
	}

	// Space returns; the retried pass must now clean both victims.
	f := st.arena.NewFlusher()
	for _, off := range hoard {
		st.al.FreeRawChunk(off, f)
	}
	cleaner.CleanOnce()
	if got := cleaner.Stats(); got.Passes != 1 || got.Cleaned != 2 || got.Relocated == 0 {
		t.Fatalf("retried pass after the chunk pool was refilled: %+v, want both victims in one pass", got)
	}
	if log.Contains(closed[0]) || log.Contains(closed[1]) {
		t.Fatalf("victims still linked after the retried pass: chain %#x", log.Chunks())
	}

	// Crash: the retried clean must not have corrupted guard state —
	// deleted keys stay dead, never-overwritten keys stay live.
	cfg2 := cfg
	cfg2.Arena = st.arena.Crash()
	re, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	cl2 := re.Connect()
	for k := uint64(1000); k < 1010; k++ {
		if _, ok, _ := cl2.Get(k); ok {
			t.Fatalf("deleted key %d resurrected after failed-then-retried GC", k)
		}
	}
	for k := uint64(10_000); k < unique; k++ {
		v, ok, _ := cl2.Get(k)
		if !ok || string(v) != "keep" {
			t.Fatalf("live key %d lost after failed-then-retried GC", k)
		}
	}
}

// TestPickVictims drives the victim picker over synthetic usage tables: which
// closed chunks one pass takes, and in which order, is a function of the
// table alone. Live bytes are given in percent of a whole chunk.
func TestPickVictims(t *testing.T) {
	const pct = oplog.SurvivorCapacity / 100
	type chunk struct {
		n, owner        int
		written, liveAt int64 // percent of a chunk written, and still live
	}
	full := func(n int, live int64) chunk { return chunk{n: n, written: 100, liveAt: live} }
	cases := []struct {
		name     string
		lowSpace bool
		tiered   bool
		chunks   []chunk
		want     []int // chunk numbers, in pass order
	}{
		{name: "an all-dead chunk is freed alone, at once",
			chunks: []chunk{full(4, 30), full(5, 0)}, want: []int{5}},
		{name: "one candidate with live data waits",
			chunks: []chunk{full(4, 30)}},
		{name: "two whose survivor stays a candidate run",
			chunks: []chunk{full(4, 25), full(5, 20)}, want: []int{5, 4}},
		{name: "two that would leave a 68%-full survivor wait",
			chunks: []chunk{full(4, 34), full(5, 34)}},
		{name: "... also with a third that still fits",
			chunks: []chunk{full(4, 34), full(5, 34), full(6, 20)}},
		{name: "... until a third no longer fits",
			chunks: []chunk{full(4, 34), full(5, 34), full(6, 40)}, want: []int{4, 5}},
		{name: "a chunk over the bar is no candidate",
			chunks: []chunk{full(4, 20), full(5, 60)}},
		{name: "under-filled all-live survivors are candidates",
			chunks: []chunk{{n: 4, written: 20, liveAt: 20}, {n: 5, written: 25, liveAt: 25}}, want: []int{4, 5}},
		{name: "low space: any pass with a net gain runs",
			lowSpace: true, chunks: []chunk{full(4, 34), full(5, 34)}, want: []int{4, 5}},
		{name: "low space: the bar drops to 5% reclaimable",
			lowSpace: true, chunks: []chunk{full(4, 20), full(5, 60), full(6, 96)}, want: []int{4, 5}},
		{name: "low space: one victim with live data is still no gain",
			lowSpace: true, chunks: []chunk{full(4, 20), full(5, 96)}},
		{name: "equal live bytes order by chunk offset",
			chunks: []chunk{full(9, 30), full(5, 30), full(7, 30), full(11, 20)}, want: []int{11, 5, 7}},
		{name: "all-dead chunks ride along with a pass that runs",
			chunks: []chunk{full(4, 25), full(5, 0), full(6, 20), full(7, 0)}, want: []int{5, 7, 6, 4}},
		{name: "another group's chunks are not this cleaner's",
			chunks: []chunk{full(4, 0), {n: 5, owner: 1, written: 100}}, want: []int{4}},
		{name: "a pass scans at most four chunks' worth of entries",
			chunks: []chunk{full(4, 0), full(5, 0), full(6, 0), full(7, 0), full(8, 0), full(9, 0)}, want: []int{4, 5, 6, 7}},
		{name: "demotion pressure: the one dirtiest chunk, whatever its live bytes",
			tiered: true, chunks: []chunk{full(4, 60), {n: 5, written: 40, liveAt: 30}, full(6, 90)}, want: []int{4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cores: 2, GroupSize: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 16,
				GC: GCConfig{DeadRatio: 0.5, MinFreeChunks: 2}}
			if tc.lowSpace {
				cfg.GC.MinFreeChunks = 1 << 10
			}
			if tc.tiered {
				cfg.Tier = TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10}
			}
			st, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The tail chunk is never a victim, however dead.
			tail := st.cores[0].log.TailChunk()
			st.usage.account(tail, 0, 100*pct)
			st.usage.markDead(tail, 100*pct)
			for _, c := range tc.chunks {
				st.usage.account(int64(c.n)*pmem.ChunkSize, c.owner, int(c.written*pct))
				st.usage.markDead(int64(c.n)*pmem.ChunkSize, int((c.written-c.liveAt)*pct))
			}
			victims, demote := st.newCleaner(0).pickVictims()
			var got []int
			for _, v := range victims {
				got = append(got, int(v.chunk/pmem.ChunkSize))
			}
			if !slices.Equal(got, tc.want) || demote != tc.tiered {
				t.Fatalf("pass takes chunks %v (demote %v), want %v (demote %v)", got, demote, tc.want, tc.tiered)
			}
		})
	}
}
