package fault

// End-to-end tiered-capacity acceptance test: a 16 MiB arena absorbs a
// dataset more than four times its size because GC demotes cold chunks
// to segment files, crashes mid-demotion (segment durable, PM not yet
// repointed — the worst interleaving), recovers, and every single
// acknowledged write is audited byte-exact. CI runs this under the race
// detector.

import (
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/index"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/tier"
)

// e2eBoom is the crash sentinel the mid-demotion tier hook panics with.
type e2eBoom struct{}

// e2e drives one store: put-with-GC-retry, every attempt recorded in the
// trial's history, and byte accounting of the distinct keys acknowledged.
type e2e struct {
	t     *testing.T
	tr    *trial
	bytes int64
}

func (e *e2e) gc() {
	for _, cl := range e.tr.cleaners {
		cl.CleanOnce()
	}
	for i := 0; i < e.tr.st.Cores(); i++ {
		e.tr.st.Core(i).DrainCompleted()
	}
}

// put stores key → val, running GC (which demotes under tier pressure)
// and retrying when the arena is full: a refused attempt wrote nothing.
func (e *e2e) put(key uint64, val []byte) {
	e.t.Helper()
	for attempt := 0; ; attempt++ {
		o := e.tr.h.Put(key, val)
		resp, err := e.tr.call(rpc.Request{Op: rpc.OpPut, Key: key, Value: val})
		if err != nil {
			e.t.Fatal(err)
		}
		if resp.Status == rpc.StatusOK {
			o.Ack()
			return
		}
		o.Fail()
		if attempt >= 8 {
			e.t.Fatalf("put key %#x: status %d after %d GC retries (free=%d chunks)",
				key, resp.Status, attempt, len(e.tr.st.Allocator().FreeList()))
		}
		e.gc() // out of space: reclaim-by-demotion must free a chunk
	}
}

// fill pushes keys [lo, hi) into the store, GC-ing proactively so the
// arena never wedges; every ~50th value is out-of-place to keep the
// demotion free-queue path hot at scale.
func (e *e2e) fill(lo, hi uint64) {
	for k := lo; k < hi; k++ {
		size := 250
		if k%50 == 0 {
			size = 400
		}
		e.put(k, mval(k, 0, size))
		e.bytes += int64(size) + 16
		if k%1000 == 0 && len(e.tr.st.Allocator().FreeList()) < 2 {
			e.gc()
		}
	}
}

// coldKeys counts the keys the index holds and how many of them are cold.
func coldKeys(st *core.Store) (cold, all int) {
	refs := indexRefs(st)
	for _, ref := range refs {
		if index.Cold(ref) {
			cold++
		}
	}
	return cold, len(refs)
}

// TestTieredCapacityE2E is the acceptance battery: fill past arena
// capacity (demotion is the only way forward), crash mid-demotion at
// the moment the segment is durable but the index still points at PM,
// recover, audit everything, then keep filling to ≥ 4× capacity while
// overwriting cold keys until segments compact, crash once more (a plain
// power cut), recover and audit again — finishing with the full invariant
// check.
func TestTieredCapacityE2E(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		Cores: 1, Mode: batch.ModeNone, ArenaChunks: 4,
		GC:   core.GCConfig{DeadRatio: 0.5},
		Tier: core.TierConfig{Dir: dir, DemoteFreeChunks: 2, CompactRatio: 0.5},
	}
	arenaSize := int64(cfg.ArenaChunks) * pmem.ChunkSize
	arena := pmem.New(int(arenaSize))
	cfg.Arena = arena
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &e2e{t: t, tr: newTrialOn(st, histcheck.New(nil))}

	// Phase A: two arena's worth of data — far past PM capacity, so GC
	// demotion must already have kicked in for these puts to be acked.
	const batch1 = 130_000
	e.fill(1, batch1)
	if s := st.Tier().Stats(); s.Demoted == 0 || s.Segments == 0 {
		t.Fatalf("filled %d MiB without demoting: %+v", e.bytes>>20, s)
	}

	// Phase B: crash the NEXT demotion after its segment is fully
	// durable (dir synced) but before the demote CAS repoints anything.
	// Recovery then sees every demoted key twice — PM entry and cold
	// copy at the same version — and must serve the PM one.
	st.Tier().SetHook(func(p tier.Point) error {
		if p.Stage == tier.StageDirSynced {
			panic(e2eBoom{})
		}
		return nil
	})
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(e2eBoom); ok {
					c = true
					return
				}
				panic(r)
			}
		}()
		e.fill(batch1, batch1+60_000)
		return false
	}()
	if !crashed {
		t.Fatal("60k more puts never triggered a demotion")
	}
	// A store's tier counters start at zero when it opens: the run's
	// totals are summed over its incarnations, each read before its crash.
	var demoted, compactions uint64
	tally := func(s *core.Store) {
		ts := s.Tier().Stats()
		demoted += ts.Demoted
		compactions += ts.Compactions
	}
	tally(st)
	st.Tier().Close() // power cut: only disk files and the media view survive

	cfg2 := cfg
	cfg2.Arena = arena.Crash()
	e.tr.h.Crash()
	re, err := core.Open(cfg2)
	if err != nil {
		t.Fatalf("recovery after mid-demotion crash: %v", err)
	}
	if err := Check(re, e.tr.h); err != nil {
		t.Fatalf("invariants after mid-demotion crash: %v", err)
	}
	cold, keys := coldKeys(re)
	t.Logf("after crash 1: %d keys audited (%d cold), %d MiB acked into a %d MiB arena",
		keys, cold, e.bytes>>20, arenaSize>>20)
	if cold == 0 {
		t.Fatal("no key recovered into the cold tier")
	}

	// Phase C: keep going on the recovered store until the acknowledged
	// dataset exceeds 4× the arena, with a compaction pass mixed in. Each
	// round first overwrites the next band of the earliest keys, long since
	// demoted: their records die in the oldest segments, which pass
	// CompactRatio, so the final crash recovers over compacted segments.
	e.tr = newTrialOn(re, e.tr.h)
	band := uint64(1)
	for k := uint64(batch1 + 60_000); e.bytes < 4*arenaSize; k += 10_000 {
		for end := band + 2_500; band < end; band++ {
			e.put(band, mval(band, 1, 250))
		}
		e.fill(k, k+10_000)
		if _, err := re.TierCompactOnce(); err != nil {
			t.Fatalf("compaction under load: %v", err)
		}
	}
	if e.bytes < 4*arenaSize {
		t.Fatalf("dataset %d bytes < 4× arena %d", e.bytes, 4*arenaSize)
	}

	// Final power cut + audit of every write ever acknowledged.
	tally(re)
	re.Tier().Close()
	cfg3 := cfg
	cfg3.Arena = re.Arena().Crash()
	e.tr.h.Crash()
	re2, err := core.Open(cfg3)
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	if err := Check(re2, e.tr.h); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	cold, keys = coldKeys(re2)
	tally(re2)
	ts := re2.Tier().Stats()
	t.Logf("final: %d keys (%d cold), %d MiB acked (%.1f× arena), tier: %d segs, %d records; over the run: demoted %d, compactions %d",
		keys, cold, e.bytes>>20, float64(e.bytes)/float64(arenaSize), ts.Segments, ts.Records, demoted, compactions)
	if demoted == 0 {
		t.Fatal("no record was demoted over the whole run")
	}
	if compactions == 0 {
		t.Fatal("no segment was compacted over the whole run")
	}
	if cold < keys/2 {
		t.Fatalf("only %d of %d keys cold — tiering did not absorb the overflow", cold, keys)
	}
}
