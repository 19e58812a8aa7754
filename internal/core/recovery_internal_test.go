package core

import (
	"errors"
	"slices"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
)

// keysOwnedBy returns n keys from base up that core owns.
func keysOwnedBy(st *Store, core, n int, base uint64) []uint64 {
	var keys []uint64
	for k := base; len(keys) < n; k++ {
		if st.CoreOf(k) == core {
			keys = append(keys, k)
		}
	}
	return keys
}

// putLedBy puts key with leader leading the batch, so the entry lands in
// the leader's log whichever core owns the key.
func (d *stepper) putLedBy(t *testing.T, leader int, key uint64, val []byte) {
	t.Helper()
	d.nextID++
	tc := d.st.cores[d.st.CoreOf(key)]
	tc.Submit(rpc.Request{ID: d.nextID, Op: rpc.OpPut, Key: key, Value: val}, 0)
	if d.st.cores[leader].TryLead() == 0 {
		t.Fatalf("core %d led nothing", leader)
	}
	for spins := 0; spins < 1<<10; spins++ {
		for _, o := range tc.TakeResponses() {
			if o.Resp.ID == d.nextID && o.Resp.Status == rpc.StatusOK {
				return
			}
		}
		tc.DrainCompleted()
	}
	t.Fatalf("put of key %#x led by core %d never completed", key, leader)
}

// getValue reads key through the index the way a Get does.
func getValue(st *Store, key uint64) (val []byte, ok bool) {
	c := st.cores[st.CoreOf(key)]
	ref, _, found := c.idx.Get(key)
	if !found {
		return nil, false
	}
	v, ok, _ := c.readEntry(key, ref)
	return v, ok
}

// TestRecoverSalvageDropsLaterChunks rots a batch in the first chunk of a
// three-chunk log. Salvage cuts the log there and drops the two later
// chunks: they go back to the free pool with their log magic cleared, and
// their verified entries become trusted quarantine candidates. A key whose
// only write was in a dropped chunk is quarantined; one whose dropped write
// a kept write in the other core's log covers is not, and serves the kept
// value.
func TestRecoverSalvageDropsLaterChunks(t *testing.T) {
	cfg := Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 12}
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	defer arena.Release()
	cfg.Arena = arena
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &stepper{st: st}
	keys := keysOwnedBy(st, 0, 203, 1)
	early, lost, covered, churn := keys[0], keys[1], keys[2], keys[3:]
	d.put(t, early, 0, 40)
	log := st.cores[0].log
	for step := 1; len(log.Chunks()) < 3; step++ {
		for _, k := range churn {
			d.put(t, k, step, 200)
		}
	}
	d.put(t, lost, 0, 40)
	d.put(t, covered, 0, 40)
	d.putLedBy(t, 1, covered, []byte("kept in core 1's log"))
	chunks := slices.Clone(log.Chunks())
	for _, c := range st.cores {
		c.log.PersistWitness(c.f)
	}

	// Rot a batch in the middle of the first chunk.
	var rot int64
	if err := log.Scan(func(off int64, _ oplog.Entry) bool {
		if rot == 0 && off >= chunks[0]+pmem.ChunkSize/2 {
			rot = off
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	cut := arena.Crash()
	defer cut.Release()
	cut.Corrupt(int(rot)+9, 1, func(b []byte) { b[0] ^= 0x10 })

	cfg.Arena, cfg.Salvage = cut, true
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := re.SalvageReport()
	if rep == nil || len(rep.Cores) != 1 || rep.Cores[0].Core != 0 {
		t.Fatalf("salvage report %+v, want core 0 repaired", rep)
	}
	if cs := rep.Cores[0]; chunkOf(cs.TruncatedAt) != chunks[0] || cs.ChunksDropped != 2 {
		t.Fatalf("core 0 cut at %#x with %d chunks dropped, want a cut in chunk %#x dropping 2", cs.TruncatedAt, cs.ChunksDropped, chunks[0])
	}
	if got := re.Integrity().ChunksDropped; got != 2 {
		t.Errorf("integrity counts %d chunks dropped, want 2", got)
	}
	free := re.al.FreeList()
	for _, ch := range chunks[1:] {
		if !slices.Contains(free, ch) {
			t.Errorf("dropped chunk %#x is not in the free pool %v", ch, free)
		}
		if oplog.ValidChunkHeader(cut, ch) {
			t.Errorf("dropped chunk %#x still carries its log magic", ch)
		}
	}
	if !re.cores[0].Quarantined(lost) {
		t.Errorf("key %#x, written only in a dropped chunk, is not quarantined", lost)
	}
	if re.cores[0].Quarantined(covered) {
		t.Errorf("key %#x is quarantined although a kept write covers its dropped one", covered)
	}
	if v, ok := getValue(re, covered); !ok || string(v) != "kept in core 1's log" {
		t.Errorf("covered key reads %q, %v", v, ok)
	}
	if v, ok := getValue(re, early); !ok || len(v) != 40 || re.cores[0].Quarantined(early) {
		t.Errorf("key %#x, written before the rot, reads %q, %v", early, v, ok)
	}
}

// TestRecoverColdRescueOfRottedRecord crashes a tiered store after a
// runtime checkpoint and a cleaning pass that demoted the checkpointed
// record of an overwritten key. The checkpoint seeds the key's PM ref,
// which beats the same-version cold copy in replay; that PM copy then
// fails verification (rot at rest), and the cold copy, which verifies,
// takes its place: the open succeeds and the key serves its value from
// the tier.
func TestRecoverColdRescueOfRottedRecord(t *testing.T) {
	cfg := Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 8,
		GC:   GCConfig{DeadRatio: 0.3},
		Tier: TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10}}
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	defer arena.Release()
	cfg.Arena = arena
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &stepper{st: st}
	const key = 10_000
	for keep := uint64(key); len(st.cores[0].log.Chunks()) < 3; keep++ {
		for k := uint64(0); k < 250; k++ {
			d.put(t, 1000+k, int(keep), 200)
		}
		// Overwritten once, so the registry keeps its version.
		d.put(t, keep, 0, 24)
		d.put(t, keep, 1, 24)
	}
	want, _ := getValue(st, key)
	want = slices.Clone(want)
	seededRef, _, _ := st.cores[0].idx.Get(key)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.NewCleaner(0).CleanOnce()
	if ref, _, _ := st.cores[0].idx.Get(key); !index.Cold(ref) {
		t.Fatalf("cleaning pass left key %d at %#x, want it demoted", key, ref)
	}
	st.tier.Close()

	cut := arena.Crash()
	defer cut.Release()
	cut.Corrupt(int(seededRef), 16, func(b []byte) {
		for i := range b {
			b[i] ^= 0xff
		}
	})
	cfg.Arena = cut
	re, err := Open(cfg)
	if errors.Is(err, ErrCorruptMedia) {
		t.Fatalf("the rotted record was not rescued from its cold copy: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer re.tier.Close()
	if ref, _, _ := re.cores[0].idx.Get(key); !index.Cold(ref) {
		t.Fatalf("key %d recovered at %#x, want its cold copy", key, ref)
	}
	if v, ok := getValue(re, key); !ok || string(v) != string(want) {
		t.Fatalf("rescued key reads %q, %v; want %q", v, ok, want)
	}
	if re.cores[0].Quarantined(key) || re.Integrity().Quarantined != 0 {
		t.Fatal("a rescued key was quarantined")
	}
}

// TestRecoverCheckpointMarkDangles rots the allocator header of the chunk
// holding a runtime checkpoint's blob. The blob's checksum still holds, so
// the crash open seeds from it, but the blob's allocator mark dangles: the
// descriptor is dropped so that no later Checkpoint frees through the
// rotted accounting, the header counts as corrupt, and the recovered store
// serves every key and takes a new checkpoint.
func TestRecoverCheckpointMarkDangles(t *testing.T) {
	cfg := goldenCfg(t)
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	defer arena.Release()
	cfg.Arena = arena
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &stepper{st: st}
	goldenBase(t, st, d)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	goldenLater(t, d)
	want := map[uint64]string{}
	st.rangeIndex(func(key uint64, _ int64, _ uint32) {
		v, _ := getValue(st, key)
		want[key] = string(v)
	})
	ptr, _ := st.CheckpointDesc()

	cut := arena.Crash()
	defer cut.Release()
	// A class size no class has: the header reads as corrupt.
	hdr := int(chunkOf(ptr))
	cut.Corrupt(hdr, 4, func(b []byte) { clear(b); b[0] = 3 })
	cfg.Arena = cut
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p, n := re.CheckpointDesc(); p != 0 || n != 0 {
		t.Fatalf("descriptor (%#x, %d) kept over a dangling blob", p, n)
	}
	if in := re.Integrity(); in.CorruptHeaders != 1 || in.DanglingPtrs == 0 {
		t.Errorf("integrity %+v, want the corrupt header and the dangling blob counted", in)
	}
	if re.Len() != len(want) {
		t.Errorf("recovered %d keys, want %d", re.Len(), len(want))
	}
	for key, w := range want {
		if v, ok := getValue(re, key); !ok || string(v) != w {
			t.Fatalf("key %#x reads %q, %v; want %q", key, v, ok, w)
		}
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}
