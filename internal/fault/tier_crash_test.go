package fault_test

import (
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/fault"
)

// tierCfg is the one-core tiered configuration the tier crash sweeps run
// under. DemoteFreeChunks is set far above the arena size so demotion
// pressure is always on: every GC pass demotes its victim's live records
// to the disk tier instead of relocating them. CompactRatio is set to 1%
// so a scripted TierCompact finds a victim as soon as a handful of cold
// records die (promotion, overwrite, delete).
func tierCfg(dir string) core.Config {
	return core.Config{
		Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 9,
		GC:   core.GCConfig{DeadRatio: 0.5},
		Tier: core.TierConfig{Dir: dir, DemoteFreeChunks: 1 << 10, CompactRatio: 0.01},
	}
}

// tierPrelude closes chunk 1 holding ~135 live records — mostly inline
// (the common demotion shape) plus a band of out-of-place values (whose
// demotion must also free their allocator blocks) — under a churn load
// that makes every other chunk-1 entry dead. Keys 116..120 are deleted at
// the end so the sweep also crosses the tombstone-retention guard while a
// segment may still hold their stale puts.
func tierPrelude() []fault.Op {
	var ops []fault.Op
	for k := uint64(1); k <= 120; k++ {
		ops = append(ops, fault.Put(k, val(k, 0, 200))) // inline, 216 B entries
	}
	for k := uint64(200); k <= 219; k++ {
		ops = append(ops, fault.Put(k, val(k, 0, 400))) // out-of-place
	}
	// ≈16k × 272 B churn entries fill chunk 1 past 4 MiB and roll the
	// tail into chunk 2; every churn entry left in chunk 1 is stale.
	for r := 0; r < 200; r++ {
		for k := uint64(1000); k < 1080; k++ {
			ops = append(ops, fault.Put(k, val(k, r, 250)))
		}
	}
	for k := uint64(116); k <= 120; k++ {
		ops = append(ops, fault.Delete(k))
	}
	return ops
}

// mustPromote runs h's script once with no fault injected and fails unless
// a Get promoted a cold record: promotion is a policy decision, and a script
// the policy leaves cold would sweep every point but the promotion append's.
func mustPromote(t *testing.T, h *fault.Harness) {
	t.Helper()
	var promoted uint64
	err := h.Observe(func(_ int, st *core.Store) { promoted = st.Tier().Stats().Promoted })
	if err != nil {
		t.Fatal(err)
	}
	if promoted == 0 {
		t.Fatal("the script's un-crashed run promoted nothing: the sweep never visits the promotion append")
	}
}

// TestSweepTierDemotion crashes at every persist-ordering point of a full
// demote/promote/compact lifecycle: the GC demotion's segment write (tmp
// write, fsync, rename, directory sync) interleaved with the PM journal /
// link / CAS / unlink protocol, a cold Get's promotion append, an
// overwrite and a delete of cold keys, a tier compaction (second segment
// write plus victim removal), and a checkpoint that persists cold refs.
// Torn trials additionally truncate the in-flight tmp segment at its
// write point. After every crash the invariant checker proves each
// acknowledged record readable from exactly one tier — never zero — and
// the double-crash pass proves recovery's own tier repairs durable.
func TestSweepTierDemotion(t *testing.T) {
	if testing.Short() {
		t.Skip("tier sweep replays a large prelude image per trial")
	}
	script := []fault.Op{
		fault.Put(9001, val(9001, 0, 200)),
		fault.Get(3),                 // hot read: the touch sketch marks the key
		fault.Get(25),                // and this one
		fault.GC(),                   // demotes every live chunk-1 record to segment files
		fault.Get(3),                 // cold hit on a marked key → promotion back to PM
		fault.Put(7, val(7, 1, 180)), // overwrite a cold key
		fault.Delete(11),             // delete a cold key
		fault.Get(7),                 // hot again after the overwrite
		fault.TierCompact(),          // ≥3 dead of ~135 → rewrite + remove victim
		fault.Get(25),                // marked key promotes out of the compacted segment
		fault.Checkpoint(),           // checkpoint now persists cold refs
	}
	h := fault.NewHarness(tierCfg(t.TempDir()), tierPrelude(), script)
	mustPromote(t, h)
	_, pts, err := h.CountPoints()
	if err != nil {
		t.Fatal(err)
	}
	tierPts := 0
	for _, pi := range pts {
		if pi.Kind == fault.PointTier {
			tierPts++
		}
	}
	if tierPts < 8 {
		t.Fatalf("script generated only %d disk persist points — demotion or compaction never ran", tierPts)
	}
	stats := h.Sweep(t, true)
	if stats.Points < 30 {
		t.Fatalf("tier script generated only %d persist points", stats.Points)
	}
	if stats.Torn == 0 {
		t.Fatal("tear sweep ran no torn trials")
	}
}

// TestSweepTierColdStart sweeps a store whose trials BEGIN with cold
// data: the prelude itself demotes, so every trial reopens a clean image
// whose checkpoint already carries cold refs into copied segment files.
// The script then crashes promotion, cold overwrite, cold delete, and
// compaction without a demotion in sight — isolating the
// already-tiered recovery paths.
func TestSweepTierColdStart(t *testing.T) {
	prelude := append(tierPrelude(), fault.GC())
	script := []fault.Op{
		fault.Get(5),                 // first touch: served from disk, stays cold
		fault.Get(5),                 // second touch → promotion
		fault.Put(9, val(9, 1, 100)), // overwrite cold
		fault.Delete(13),             // delete cold
		fault.TierCompact(),
		fault.Checkpoint(),
	}
	h := fault.NewHarness(tierCfg(t.TempDir()), prelude, script)
	mustPromote(t, h)
	stats := h.Sweep(t, true)
	if stats.Points < 10 {
		t.Fatalf("cold-start script generated only %d persist points", stats.Points)
	}
}
