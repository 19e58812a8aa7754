package core_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/workload"
)

// fillGarbage overwrites a small key set many times so early log chunks
// fill with dead entries.
func fillGarbage(t *testing.T, cl *core.Client, keys, rounds int, val []byte) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			if err := cl.Put(uint64(k), val); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCleanerReclaimsChunks(t *testing.T) {
	cfg := core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 24,
		GC: core.GCConfig{DeadRatio: 0.5},
	}
	st, cl := newRunning(t, cfg)
	// ~150 B inline values: each Put appends ~168 B; 50k puts ≈ 8 MB of
	// log across 2 cores → several chunks, mostly garbage.
	val := make([]byte, 150)
	fillGarbage(t, cl, 200, 250, val)
	st.Stop()

	free0 := st.Allocator().FreeChunks()
	cleaner := st.NewCleaner(0)
	total := 0
	for i := 0; i < 100; i++ {
		n := cleaner.CleanOnce()
		if n == 0 {
			break
		}
		total += n
	}
	if cleaner.Stats().Cleaned == 0 {
		t.Fatal("cleaner found no victims despite heavy overwrites")
	}
	if st.Allocator().FreeChunks() <= free0 {
		t.Errorf("no chunks freed: %d -> %d", free0, st.Allocator().FreeChunks())
	}
	// Data intact after cleaning.
	st.Run()
	cl2 := st.Connect()
	for k := 0; k < 200; k++ {
		v, ok, _ := cl2.Get(uint64(k))
		if !ok || len(v) != 150 {
			t.Fatalf("key %d lost after GC: %v %v", k, len(v), ok)
		}
	}
}

func TestCleanerPreservesDataUnderLoad(t *testing.T) {
	cfg := core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 24,
		GC: core.GCConfig{Enabled: true, DeadRatio: 0.3},
	}
	_, cl := newRunning(t, cfg) // Run starts cleaners too
	val := make([]byte, 120)
	for r := 0; r < 300; r++ {
		for k := 0; k < 100; k++ {
			if err := cl.Put(uint64(k), append(val, byte(r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < 100; k++ {
		v, ok, _ := cl.Get(uint64(k))
		if !ok || len(v) != 121 || v[120] != byte(299%256) {
			t.Fatalf("key %d corrupted under concurrent GC", k)
		}
	}
}

func TestGCSurvivesCrash(t *testing.T) {
	cfg := core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 24,
		GC: core.GCConfig{DeadRatio: 0.3},
	}
	st, cl := newRunning(t, cfg)
	val := make([]byte, 150)
	fillGarbage(t, cl, 150, 500, val)
	st.Stop()
	cleaner := st.NewCleaner(0)
	for i := 0; i < 50 && cleaner.CleanOnce() > 0; i++ {
	}
	if cleaner.Stats().Cleaned == 0 {
		t.Fatal("no chunks cleaned despite multi-chunk garbage")
	}
	// Crash after cleaning: relocated entries must be found via the
	// survivor chunks.
	cfg2 := cfg
	cfg2.Arena = st.Arena().Crash()
	re, err := core.Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	cl2 := re.Connect()
	for k := 0; k < 150; k++ {
		v, ok, _ := cl2.Get(uint64(k))
		if !ok || len(v) != 150 {
			t.Fatalf("key %d lost after GC+crash", k)
		}
	}
}

func TestTombstoneNotReclaimedEarly(t *testing.T) {
	// A tombstone whose older Put entries still exist in the log must
	// survive GC, or a crash would resurrect the key (§3.4).
	cfg := core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 24,
		GC: core.GCConfig{DeadRatio: 0.01}}
	st, cl := newRunning(t, cfg)
	// Keys 0..N written once (their Puts sit in early chunks), then
	// deleted much later (tombstones in late chunks), with filler in
	// between so Put and tombstone are in different chunks.
	for k := 0; k < 50; k++ {
		cl.Put(uint64(k), []byte("victim"))
	}
	filler := make([]byte, 200)
	for i := 0; i < 30_000; i++ {
		cl.Put(uint64(1000+i%500), filler)
	}
	for k := 0; k < 50; k++ {
		cl.Delete(uint64(k))
	}
	st.Stop()
	cleaner := st.NewCleaner(0)
	for i := 0; i < 100 && cleaner.CleanOnce() > 0; i++ {
	}
	// Crash: no deleted key may come back.
	cfg2 := cfg
	cfg2.Arena = st.Arena().Crash()
	re, err := core.Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	cl2 := re.Connect()
	for k := 0; k < 50; k++ {
		if _, ok, _ := cl2.Get(uint64(k)); ok {
			t.Fatalf("key %d resurrected: tombstone reclaimed too early", k)
		}
	}
}

func TestGCUnderSpacePressure(t *testing.T) {
	// With a small arena and heavy overwrites, the engine only survives
	// if the cleaner keeps reclaiming. This exercises the MinFreeChunks
	// trigger end to end.
	cfg := core.Config{
		Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 10,
		GC: core.GCConfig{Enabled: true, DeadRatio: 0.6, MinFreeChunks: 3},
	}
	_, cl := newRunning(t, cfg)
	val := make([]byte, 200)
	// ~100k puts × ~220 B ≈ 22 MB of log traffic through a 40 MB arena.
	for r := 0; r < 1000; r++ {
		for k := 0; k < 100; k++ {
			err := cl.Put(uint64(k), val)
			// A transient out-of-space is acceptable when the cleaner
			// goroutine is starved (e.g. under the race detector); only a
			// cleaner that never catches up is a failure.
			for deadline := time.Now().Add(10 * time.Second); err != nil && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				err = cl.Put(uint64(k), val)
			}
			if err != nil {
				t.Fatalf("round %d: %v (GC failed to keep up)", r, err)
			}
		}
	}
	for k := 0; k < 100; k++ {
		if _, ok, _ := cl.Get(uint64(k)); !ok {
			t.Fatalf("key %d lost under space pressure", k)
		}
	}
}

func TestGCWithMasstreeIndex(t *testing.T) {
	// The cleaner's CAS relocation must work against the shared ordered
	// index too (FlatStore-M).
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, Index: core.IndexMasstree,
		ArenaChunks: 24, GC: core.GCConfig{DeadRatio: 0.3}}
	st, cl := newRunning(t, cfg)
	val := make([]byte, 150)
	fillGarbage(t, cl, 200, 400, val)
	st.Stop()
	cleaned := 0
	for g := range st.Groups() {
		cleaner := st.NewCleaner(g)
		for i := 0; i < 50 && cleaner.CleanOnce() > 0; i++ {
		}
		cleaned += int(cleaner.Stats().Cleaned)
	}
	if cleaned == 0 {
		t.Fatal("cleaner reclaimed nothing under masstree")
	}
	st.Run()
	cl2 := st.Connect()
	// Point lookups and ordered scans both survive relocation.
	for k := 0; k < 200; k += 17 {
		if _, ok, _ := cl2.Get(uint64(k)); !ok {
			t.Fatalf("key %d lost after GC on masstree", k)
		}
	}
	pairs, err := cl2.Scan(0, 199, 0)
	if err != nil || len(pairs) != 200 {
		t.Fatalf("scan after GC: %d pairs, err %v", len(pairs), err)
	}
	for i, p := range pairs {
		if p.Key != uint64(i) {
			t.Fatalf("scan order broken at %d: %d", i, p.Key)
		}
	}
}

func TestEverythingAtOnce(t *testing.T) {
	// Soak: random puts/gets/deletes with GC running, then a runtime
	// checkpoint, more traffic, a crash, and full verification against
	// a model — the whole engine in one scenario.
	cfg := core.Config{Cores: 3, Mode: batch.ModePipelinedHB, ArenaChunks: 32,
		GC: core.GCConfig{Enabled: true, DeadRatio: 0.4}}
	st, cl := newRunning(t, cfg)
	rng := rand.New(rand.NewSource(99))
	model := map[uint64][]byte{}
	step := func(n int) {
		for i := 0; i < n; i++ {
			key := uint64(rng.Intn(400))
			switch rng.Intn(5) {
			case 0, 1, 2:
				val := make([]byte, 1+rng.Intn(500))
				rng.Read(val)
				if err := cl.Put(key, val); err != nil {
					t.Fatal(err)
				}
				model[key] = val
			case 3:
				got, ok, _ := cl.Get(key)
				want, wok := model[key]
				if ok != wok || (ok && !bytes.Equal(got, want)) {
					t.Fatalf("live mismatch on key %d", key)
				}
			case 4:
				cl.Delete(key)
				delete(model, key)
			}
		}
	}
	step(4000)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step(4000)

	re, cl2 := crashAndReopen(t, st, cfg)
	if re.Len() != len(model) {
		t.Fatalf("recovered %d keys, model has %d", re.Len(), len(model))
	}
	for k, want := range model {
		got, ok, _ := cl2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("post-crash mismatch on key %d", k)
		}
	}
}

// TestSpaceFollowsLiveData drives a small store through the shape that used
// to wedge it: inline values, zipfian 0.99 over a key space whose live set
// stays under a fifth of the arena, so every chunk closes holding a tail of
// cold entries that never die. Cleaning one victim into one fresh survivor
// freed nothing net and left a chunk nobody came back for; the log's
// footprint was then the bytes ever written, and the arena filled around a
// few chunks of live data. Four arenas' worth of puts must all succeed, and
// the chunks in use must follow the live bytes: what they need when every
// closed chunk is kept at GC.DeadRatio's bar, plus the tails, the candidates
// waiting for a pass worth running, and a survivor in flight.
func TestSpaceFollowsLiveData(t *testing.T) {
	const (
		chunks    = 16
		keys      = 40_000
		valueSize = 240
		entrySize = oplog.HeaderSize + valueSize
		slack     = 2 /* tails */ + 4 /* waiting: a pass scans four chunks' worth */ + 1 /* survivor */
	)
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: chunks,
		GC: core.GCConfig{Enabled: true}}
	st, cl := newRunning(t, cfg)
	gen := workload.YCSB(1, keys, 0.99, valueSize, 0)
	val := make([]byte, valueSize)
	seen := make([]bool, keys)
	reqs := make([]rpc.Request, 256)
	liveKeys, peak := 0, 0
	for written := 0; written < 4*chunks*pmem.ChunkSize; written += len(reqs) * entrySize {
		for i := range reqs {
			k := gen.NextKey()
			if !seen[k] {
				seen[k] = true
				liveKeys++
			}
			reqs[i] = rpc.Request{Op: rpc.OpPut, Key: k, Value: val}
		}
		for _, r := range cl.Batch(reqs) {
			if r.Status != rpc.StatusOK {
				t.Fatalf("put refused after %d MiB of puts with %d KiB live: the arena filled around its garbage",
					written>>20, liveKeys*entrySize>>10)
			}
		}
		// Every closed chunk left alone is at least 1 − DeadRatio live.
		need := float64(liveKeys*entrySize) / ((1 - st.Config().GC.DeadRatio) * oplog.SurvivorCapacity)
		used := chunks - 1 - st.Allocator().FreeChunks()
		if used > int(need)+1+slack {
			t.Fatalf("%d chunks in use for %.1f chunks of live data after %d MiB of puts (bound: +%d)",
				used, need, written>>20, slack)
		}
		peak = max(peak, used)
	}
	m := st.Metrics()
	t.Logf("%d KiB live; peak %d chunks in use; %d passes freed %d chunks, %d entries relocated, %d dropped",
		liveKeys*entrySize>>10, peak, m.GCPasses, m.GCCleaned, m.GCRelocated, m.GCDropped)
}

// TestCleanerAllocations pins what the cleaner may allocate. Its loop polls
// CleanOnce some twenty thousand times a second while idle, so a poll that
// finds no pass worth running — here with two candidates waiting, which it
// has to sort and weigh — allocates nothing; and a pass relocates tens of
// thousands of entries, so beyond its warmed-up scratch it allocates a
// handful of objects (the survivor's offsets, a scan buffer and a closure
// per victim), never one per entry.
func TestCleanerAllocations(t *testing.T) {
	cfg := core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 16,
		GC: core.GCConfig{DeadRatio: 0.5}}
	st, cl := newRunning(t, cfg)
	// Two never-overwritten keys in every five puts: each chunk closes 40 %
	// live, so two fill a survivor to 80 % and a third no longer fits. Six
	// closed chunks make two such passes and leave two candidates waiting.
	val := make([]byte, 200)
	reqs := make([]rpc.Request, 250)
	unique := uint64(1 << 32)
	for len(st.Core(0).Log().Chunks()) < 7 {
		for i := range reqs {
			key := uint64(i)
			if i%5 < 2 {
				key, unique = unique, unique+1
			}
			reqs[i] = rpc.Request{Op: rpc.OpPut, Key: key, Value: val}
		}
		for _, r := range cl.Batch(reqs) {
			if r.Status != rpc.StatusOK {
				t.Fatal("fill put refused")
			}
		}
	}
	st.Stop()

	cleaner := st.NewCleaner(0)
	// AllocsPerRun's warm-up call runs the first pass, which grows the
	// scratch; the measured call runs the second.
	perPass := testing.AllocsPerRun(1, func() { cleaner.CleanOnce() })
	s := cleaner.Stats()
	if s.Passes != 2 || s.Cleaned != 4 || s.Relocated < 10_000 {
		t.Fatalf("two CleanOnce calls: %+v, want two passes of two victims each", s)
	}
	if perPass > 32 {
		t.Errorf("a pass that relocated %d entries allocated %.0f objects", s.Relocated/2, perPass)
	}
	idle := testing.AllocsPerRun(100, func() {
		if cleaner.CleanOnce() != 0 {
			t.Fatal("a pass ran although the two candidates left would not fill a survivor")
		}
	})
	if idle != 0 {
		t.Errorf("an idle CleanOnce allocated %.0f objects", idle)
	}
}

// TestCleanerMemoryFollowsRelocated pins what a pass holds: the entries it
// relocates, not the entries it scans. Four closed chunks about 94 % dead
// make one pass that scans some 78 000 entries and relocates a sixteenth of
// them; the fresh cleaner's first pass grows its scratch from nothing, and
// what it allocates stays within twice the relocated entries' bytes plus a
// constant. A pass that decoded every scanned entry into its scratch
// allocated more than ten times that.
func TestCleanerMemoryFollowsRelocated(t *testing.T) {
	cfg := core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 16,
		GC: core.GCConfig{DeadRatio: 0.5}}
	st, cl := newRunning(t, cfg)
	// One never-overwritten key in every sixteen puts; the rest overwrite
	// a hot set whose last copies sit in the tail chunk.
	val := make([]byte, 200)
	reqs := make([]rpc.Request, 256)
	unique := uint64(1 << 32)
	for len(st.Core(0).Log().Chunks()) < 5 {
		for i := range reqs {
			key := uint64(i)
			if i%16 == 0 {
				key, unique = unique, unique+1
			}
			reqs[i] = rpc.Request{Op: rpc.OpPut, Key: key, Value: val}
		}
		for _, r := range cl.Batch(reqs) {
			if r.Status != rpc.StatusOK {
				t.Fatal("fill put refused")
			}
		}
	}
	st.Stop()

	cleaner := st.NewCleaner(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scanned := cleaner.CleanOnce()
	runtime.ReadMemStats(&after)
	s := cleaner.Stats()
	if s.Passes != 1 || s.Cleaned != 4 || uint64(scanned) != s.Relocated+s.Dropped {
		t.Fatalf("one pass over four closed chunks: %+v, %d entries scanned", s, scanned)
	}
	if s.Relocated*10 > uint64(scanned) {
		t.Fatalf("the victims were %d of %d entries live, want at most 10 %%", s.Relocated, scanned)
	}
	entry := oplog.Entry{Op: oplog.OpPut, Inline: true, Value: val}
	relocatedBytes := s.Relocated * uint64(entry.EncodedSize())
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*relocatedBytes+256<<10 {
		t.Errorf("a pass that scanned %d entries and relocated %d (%d B) allocated %d B",
			scanned, s.Relocated, relocatedBytes, grew)
	}
}

// TestCleanerCannotBeStarved fills a store, with nobody cleaning, until the
// foreground is refused — every closed chunk 40 % live, so no chunk can be
// freed without first writing a survivor. The allocator holds one chunk back
// for exactly that (a cleaner group's reserve): the pass still runs, frees
// two chunks for the one it took, and the foreground writes again. Without
// the reserve the refused put had taken the last chunk, and the store was
// full for good with 60 % of its log reclaimable.
func TestCleanerCannotBeStarved(t *testing.T) {
	st, err := core.New(core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 8,
		GC: core.GCConfig{Enabled: true, DeadRatio: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	// No Run: the test is the core's loop, and the cleaner.
	c := st.Core(0)
	val := make([]byte, 200)
	put := func(key uint64) uint8 {
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: key, Value: val}, 0)
		c.TryLead()
		c.DrainCompleted()
		out := c.TakeResponses()
		if len(out) != 1 {
			t.Fatalf("put of key %d: %d responses", key, len(out))
		}
		return out[0].Resp.Status
	}
	unique := uint64(1 << 32)
	fill := func() (puts int) {
		for ; ; puts++ {
			key := uint64(puts % 250)
			if puts%5 < 2 {
				key, unique = unique, unique+1
			}
			if put(key) != rpc.StatusOK {
				return puts
			}
		}
	}
	if n := fill(); n < 80_000 {
		t.Fatalf("the arena took only %d puts", n)
	}
	if free := st.Allocator().FreeChunks(); free != 1 {
		t.Fatalf("%d chunks free when the foreground was refused, want the cleaner's one", free)
	}
	cleaner := st.NewCleaner(0)
	if cleaner.CleanOnce() == 0 {
		t.Fatal("no pass ran on a full store whose closed chunks are 60 % dead")
	}
	if s := cleaner.Stats(); s.Cleaned < 2 || st.Allocator().FreeChunks() < 2 {
		t.Fatalf("the pass freed %d chunks and left %d free: no net gain", s.Cleaned, st.Allocator().FreeChunks())
	}
	if n := fill(); n < 10_000 {
		t.Fatalf("after the pass the store took only %d more puts", n)
	}
}
