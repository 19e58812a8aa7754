package fault

// Media-fault (bit rot) tests: unlike the crash-point sweeps, which stop
// the engine mid-persist, these corrupt bytes that were ALREADY durably
// persisted and then reopen the store in salvage mode. The contract under
// test (the integrity tentpole): recovery never panics, never serves
// fabricated data, and any loss is loud — quarantined, reported, or a
// typed error.

import (
	"bytes"
	"os"
	"runtime/debug"
	"slices"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/rpc"
)

// mval builds a deterministic value (mirrors the external test helper;
// this file lives inside the package to reach the trial machinery).
func mval(key uint64, step, size int) []byte {
	out := make([]byte, size)
	seed := key*2654435761 + uint64(step)*40503
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 56)
	}
	return out
}

func mediaCfg() core.Config {
	return core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 6}
}

// mediaWorkload mixes inline and out-of-place values, overwrites,
// deletes, and a mid-stream checkpoint, so the populated arena carries
// every kind of state recovery trusts: log batches, records, checkpoint
// blob, allocator bitmaps, superblock metadata.
func mediaWorkload() []Op {
	var ops []Op
	for k := uint64(1); k <= 24; k++ {
		size := 16 + int(k*13)%300 // 16..~300 B, inline and out-of-place
		ops = append(ops, Put(k, mval(k, 0, size)))
	}
	for k := uint64(1); k <= 8; k++ {
		ops = append(ops, Put(k, mval(k, 1, 350-int(k)*20)))
	}
	ops = append(ops, Delete(3), Delete(10), Checkpoint())
	for k := uint64(25); k <= 30; k++ {
		ops = append(ops, Put(k, mval(k, 0, 128)))
	}
	ops = append(ops, Put(5, mval(5, 2, 40)), Delete(26))
	return ops
}

// mediaImages runs the workload once and captures the image as the power
// cut found it under load, the same image with every log witnessed, a
// cleanly-closed image, and the workload's history. The sweeps flip bytes of
// the witnessed image: corruption at rest, in a store that ran long enough
// for a Stop or a scrub pass to have persisted the witnesses. (Rot in a
// batch nothing witnesses yet is TestSalvageLogTailFlip's business.)
func mediaImages(t *testing.T) (underLoad, crashed, clean []byte, h *histcheck.History) {
	t.Helper()
	cfg := mediaCfg()
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	cfg.Arena = arena
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrialOn(st, histcheck.New(nil))
	for i, op := range mediaWorkload() {
		if err := tr.exec(op); err != nil {
			t.Fatalf("workload op %d: %v", i, err)
		}
	}
	image := func() []byte {
		var buf bytes.Buffer
		if _, err := arena.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	underLoad = image()
	f := arena.NewFlusher()
	for i := 0; i < st.Cores(); i++ {
		st.Core(i).Log().PersistWitness(f)
	}
	crashed = image()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return underLoad, crashed, image(), tr.h
}

// flipTrial reopens img with bit (off%8) of byte off flipped at rest.
// Opening must never panic; a typed error is a legal (loud) outcome;
// success must satisfy the salvage contract, with or without salvage.
func flipTrial(t *testing.T, img []byte, off int, salvage bool, h *histcheck.History) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("flip byte %#x (salvage=%v): recovery panicked: %v\n%s", off, salvage, r, debug.Stack())
		}
	}()
	arena, err := pmem.ReadArena(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	// ReadArena leaves cache == media (a reboot), so corrupting both
	// views is exactly an at-rest flip followed by power-up.
	arena.Corrupt(off, 1, func(b []byte) { b[0] ^= 1 << (off % 8) })
	cfg := mediaCfg()
	cfg.Arena = arena
	cfg.Salvage = salvage
	st, err := core.Open(cfg)
	if err != nil {
		return // loud typed failure — acceptable; silence is the bug
	}
	// A scrub pass closes the one window recovery leaves open: a clean-
	// shutdown open trusts its checkpoint and never re-verifies log
	// batches, so rot under an inline entry is only caught by scrubbing
	// (or by the read path, which quarantines on first touch).
	st.ScrubOnce()
	if err := CheckSalvage(st, h); err != nil {
		t.Fatalf("flip byte %#x (salvage=%v): %v", off, salvage, err)
	}
}

// sweepOffsets picks the corruption targets: every nonzero media byte
// (zeros dominate the arena and rarely carry meaning), plus a strided
// sample of zero bytes. The full set runs only under FLATSTORE_SOAK=1;
// otherwise the set is strided down to keep the test in CI budget.
func sweepOffsets(t *testing.T, img []byte) []int {
	t.Helper()
	arena, err := pmem.ReadArena(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	mem := arena.Mem()
	var offs []int
	for off, b := range mem {
		if b != 0 || off%8192 == 0 {
			offs = append(offs, off)
		}
	}
	if os.Getenv("FLATSTORE_SOAK") == "1" {
		return offs
	}
	budget := 400
	if testing.Short() {
		budget = 120
	}
	if len(offs) <= budget {
		return offs
	}
	stride := len(offs) / budget
	var out []int
	// Offset the strided walk by a prime so repeated runs with different
	// budgets do not all land on the same bytes.
	for i := 7 % stride; i < len(offs); i += stride {
		out = append(out, offs[i])
	}
	return out
}

// TestMediaFaultSweep is the tentpole acceptance test: flip (a sample of,
// or under FLATSTORE_SOAK=1 every) populated media byte of a crashed
// arena image and salvage-recover. Never a panic, never fabricated data,
// never silent loss. A sparse subset also runs without salvage (errors
// are fine there — panics and garbage are not) and against the cleanly-
// closed image.
func TestMediaFaultSweep(t *testing.T) {
	_, crashed, clean, h := mediaImages(t)
	offs := sweepOffsets(t, crashed)
	t.Logf("sweeping %d byte offsets (%d image bytes)", len(offs), len(crashed))
	for _, off := range offs {
		flipTrial(t, crashed, off, true, h)
	}
	for i, off := range offs {
		if i%8 == 0 {
			flipTrial(t, crashed, off, false, h)
		}
	}
	for i, off := range offs {
		if i%8 == 4 {
			flipTrial(t, clean, off, true, h)
		}
	}
}

// mediaOpen reopens an image through a (possibly corrupting) prepare
// hook, in salvage mode.
func mediaOpen(t *testing.T, img []byte, prepare func(*pmem.Arena)) *core.Store {
	t.Helper()
	arena, err := pmem.ReadArena(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(arena)
	}
	cfg := mediaCfg()
	cfg.Arena = arena.Crash() // at-rest damage, then power-up
	cfg.Salvage = true
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	return st
}

// lastBatches returns the start offsets of the last two batches of core
// 0's log in img and that log's tail. The harness drives one op at a time,
// so every batch holds one entry and entry offsets are batch starts.
func lastBatches(t *testing.T, img []byte) (secondToLast, last, tail int64, lastEntry oplog.Entry) {
	t.Helper()
	probe, err := pmem.ReadArena(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mediaCfg()
	cfg.Arena = probe
	ps, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := ps.Core(0).Log()
	if err := log.Scan(func(off int64, e oplog.Entry) bool {
		secondToLast, last, lastEntry = last, off, e
		lastEntry.Value = append([]byte(nil), e.Value...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if secondToLast == 0 {
		t.Fatal("core 0's log holds fewer than two batches")
	}
	return secondToLast, last, log.Tail(), lastEntry
}

// logDamaged reports whether salvage recovery said anything about a log:
// a cut, a dropped chunk, suspects, or a quarantined key. (The report as a
// whole is never clean on these images: salvage always drops their runtime
// checkpoint.)
func logDamaged(st *core.Store) bool {
	return len(st.SalvageReport().Cores) > 0 || st.Integrity().Quarantined > 0
}

// TestSalvageLogTailFlip rots the newest end of a log at rest, in the
// three positions the witness tells apart. A batch is witnessed by the
// batch after it or by the log's metadata slot; the LAST batch of a log
// that crashed under load has neither, so rot there reads as a torn tail.
// That is the one guarantee the single persist point weakens, and what
// bounds it is how often Stop, Close and the scrubber persist the witness.
func TestSalvageLogTailFlip(t *testing.T) {
	underLoad, witnessed, _, h := mediaImages(t)
	mf := NewMediaFault(1)

	// (i) After Stop or a scrub pass the witness covers the whole log: a
	// flipped bit in its last bytes is loud, as it always was.
	t.Run("witnessed", func(t *testing.T) {
		_, last, tail, e := lastBatches(t, witnessed)
		batchEnd := last + int64(e.EncodedSize()+oplog.TrailerSize)
		for _, off := range []int64{tail - 10, last + 3} {
			st := mediaOpen(t, witnessed, func(a *pmem.Arena) { mf.FlipBit(a, int(off), 3) })
			t.Logf("flip at %#x: %s", off, st.SalvageReport())
			if off >= batchEnd {
				// tail-10 fell into the cacheline padding behind the
				// trailer, which carries nothing: the exact state, with
				// nothing to report, is the right answer.
				if logDamaged(st) {
					t.Fatalf("flip in padding at %#x reported as log damage", off)
				}
				if _, err := audit(st, h.Clone()); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if !logDamaged(st) {
				t.Fatalf("flip at %#x under the witness went unnoticed", off)
			}
			if err := CheckSalvage(st, h); err != nil {
				t.Fatal(err)
			}
		}
	})

	// (ii) No witness, but a valid batch follows: the look-ahead finds it,
	// so the rotted batch is in the middle of the log, not at its end.
	t.Run("second-to-last", func(t *testing.T) {
		secondToLast, _, _, _ := lastBatches(t, underLoad)
		st := mediaOpen(t, underLoad, func(a *pmem.Arena) { mf.FlipBit(a, int(secondToLast)+3, 3) })
		t.Logf("report: %s", st.SalvageReport())
		if !logDamaged(st) {
			t.Fatal("flip in the second-to-last batch went unnoticed")
		}
		if err := CheckSalvage(st, h); err != nil {
			t.Fatal(err)
		}
		// Without salvage the same image must refuse to open.
		arena, err := pmem.ReadArena(bytes.NewReader(underLoad))
		if err != nil {
			t.Fatal(err)
		}
		arena.Corrupt(int(secondToLast)+3, 1, func(b []byte) { b[0] ^= 8 })
		cfg := mediaCfg()
		cfg.Arena = arena
		if _, err := core.Open(cfg); err == nil {
			t.Fatal("strict open accepted rot in the middle of the log")
		}
	})

	// (iii) No witness and nothing after it: the rotted last batch is
	// indistinguishable from a batch the power cut tore. The report may be
	// clean; the state must be the acknowledged history minus exactly that
	// batch — the previous acknowledged state, never garbage.
	t.Run("unwitnessed-last", func(t *testing.T) {
		_, last, _, e := lastBatches(t, underLoad)
		st := mediaOpen(t, underLoad, func(a *pmem.Arena) { mf.FlipBit(a, int(last)+3, 3) })
		t.Logf("lost the last batch (%v of key %d); report: %s", e.Op, e.Key, st.SalvageReport())
		// The last batch is the last write of its key: replay the workload
		// without it (GC and checkpoint steps name key 0, never written).
		ops, rolledBack := mediaWorkload(), map[uint64][]byte{}
		lastWrite := len(ops) - 1
		for ops[lastWrite].Key != e.Key {
			lastWrite--
		}
		for _, op := range slices.Delete(ops, lastWrite, lastWrite+1) {
			delete(rolledBack, op.Key)
			if op.Kind == KPut {
				rolledBack[op.Key] = op.Val
			}
		}
		if _, err := audit(st, histcheck.New(rolledBack)); err != nil {
			t.Fatalf("state is not the acknowledged history minus the last batch: %v", err)
		}
		if err := unfabricated(st, h); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSalvageZeroedCachelineAndStuckRange exercises the coarser media
// fault shapes: a fully zeroed cacheline and an all-ones stuck range in
// the middle of a log chunk.
func TestSalvageZeroedCachelineAndStuckRange(t *testing.T) {
	_, crashed, _, h := mediaImages(t)
	for name, inject := range map[string]func(*MediaFault, *pmem.Arena){
		"zeroline": func(mf *MediaFault, a *pmem.Arena) {
			mf.ZeroCacheline(a, int(pmem.ChunkSize)+640)
		},
		"stuck": func(mf *MediaFault, a *pmem.Arena) {
			mf.StuckRange(a, int(pmem.ChunkSize)+1024, 256, 0xFF)
		},
		"scatter": func(mf *MediaFault, a *pmem.Arena) {
			mf.FlipRandomBits(a, 0, a.Size(), 40)
		},
	} {
		t.Run(name, func(t *testing.T) {
			mf := NewMediaFault(42)
			st := mediaOpen(t, crashed, func(a *pmem.Arena) { inject(mf, a) })
			if err := CheckSalvage(st, h); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointBitFlipSweep flips every byte (strided when short) of the
// persisted checkpoint blob. The CRC must reject the seed and recovery
// must fall back to full log replay, landing on EXACTLY the acknowledged
// state — a rotted checkpoint may cost recovery time, never data.
func TestCheckpointBitFlipSweep(t *testing.T) {
	_, crashed, _, h := mediaImages(t)
	probe, err := pmem.ReadArena(bytes.NewReader(crashed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mediaCfg()
	cfg.Arena = probe
	ps, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ptr, n := ps.CheckpointDesc()
	if ptr == 0 || n == 0 {
		t.Fatal("workload produced no checkpoint")
	}
	stride := 1
	if testing.Short() {
		stride = 16
	}
	for i := 0; i < n; i += stride {
		off := int(ptr) + i
		arena, err := pmem.ReadArena(bytes.NewReader(crashed))
		if err != nil {
			t.Fatal(err)
		}
		arena.Corrupt(off, 1, func(b []byte) { b[0] ^= 1 << (i % 8) })
		cfg := mediaCfg()
		cfg.Arena = arena
		st, err := core.Open(cfg)
		if err != nil {
			t.Fatalf("ckpt byte %d: replay fallback failed: %v", i, err)
		}
		if err := Check(st, h.Clone()); err != nil {
			t.Fatalf("ckpt byte %d: state after fallback: %v", i, err)
		}
	}
}

// getStatus drives a Get through the serving path and returns its status.
func getStatus(t *testing.T, tr *trial, key uint64) (uint8, []byte) {
	t.Helper()
	resp, err := tr.call(rpc.Request{Op: rpc.OpGet, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Status, resp.Value
}

// TestScrubberDetectAndQuarantine rots a live out-of-place record and a
// log region in a RUNNING store: ScrubOnce must find both, quarantine the
// owning keys, and a subsequent Get must answer StatusCorrupt — until an
// overwrite clears the quarantine.
func TestScrubberDetectAndQuarantine(t *testing.T) {
	cfg := mediaCfg()
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	cfg.Arena = arena
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrialOn(st, histcheck.New(nil))
	const kBig, kInline = uint64(7), uint64(9)
	if err := tr.exec(Put(kBig, mval(kBig, 0, 400))); err != nil {
		t.Fatal(err)
	}
	if err := tr.exec(Put(kInline, mval(kInline, 0, 24))); err != nil {
		t.Fatal(err)
	}
	if res := st.ScrubOnce(); !res.Clean() {
		t.Fatalf("clean store scrubbed dirty: %+v", res)
	}

	// Rot the big record's value bytes (online: both views).
	ref, _, ok := st.Core(st.CoreOf(kBig)).Index().Get(kBig)
	if !ok {
		t.Fatal("big key missing")
	}
	e, _, err := oplog.Decode(arena.Mem()[ref:])
	if err != nil || e.Inline {
		t.Fatalf("expected out-of-place entry: %v inline=%v", err, e.Inline)
	}
	arena.Corrupt(int(e.Ptr)+record.HeaderSize+5, 1, func(b []byte) { b[0] ^= 0x10 })

	res := st.ScrubOnce()
	if res.CorruptRecords == 0 || res.KeysQuarantined == 0 {
		t.Fatalf("scrub missed the rotted record: %+v", res)
	}
	if !st.Core(st.CoreOf(kBig)).Quarantined(kBig) {
		t.Fatal("rotted key not quarantined")
	}
	if s, _ := getStatus(t, tr, kBig); s != rpc.StatusCorrupt {
		t.Fatalf("Get of quarantined key: status %v, want StatusCorrupt", s)
	}
	if s, _ := getStatus(t, tr, kInline); s != rpc.StatusOK {
		t.Fatalf("undamaged key: status %v", s)
	}

	// Overwrite heals: the key leaves quarantine with the new value.
	heal := mval(kBig, 1, 64)
	if err := tr.exec(Put(kBig, heal)); err != nil {
		t.Fatal(err)
	}
	if st.Core(st.CoreOf(kBig)).Quarantined(kBig) {
		t.Fatal("overwrite did not clear quarantine")
	}
	if s, v := getStatus(t, tr, kBig); s != rpc.StatusOK || !bytes.Equal(v, heal) {
		t.Fatalf("healed key: status %v", s)
	}

	// Rot the inline key's log entry: trailer verification must flag the
	// region and attribution must quarantine the key.
	ref2, _, ok := st.Core(st.CoreOf(kInline)).Index().Get(kInline)
	if !ok {
		t.Fatal("inline key missing")
	}
	arena.Corrupt(int(ref2)+2, 1, func(b []byte) { b[0] ^= 0x40 })
	res = st.ScrubOnce()
	if res.CorruptRegions == 0 {
		t.Fatalf("scrub missed the rotted log region: %+v", res)
	}
	if !st.Core(st.CoreOf(kInline)).Quarantined(kInline) {
		t.Fatal("key in rotted region not quarantined")
	}

	integ := st.Integrity()
	if integ.ScrubRuns < 3 || integ.ChecksumErrors == 0 || integ.Quarantined == 0 || integ.QuarantineClears == 0 {
		t.Fatalf("integrity counters did not move: %+v", integ)
	}
}

// TestSalvageThenReopen is the durability round trip: salvage a damaged
// image, overwrite one quarantined key, crash AGAIN, reopen — the
// quarantine verdict must hold (no older value resurrects) and the
// overwrite must survive.
func TestSalvageThenReopen(t *testing.T) {
	_, crashed, _, h := mediaImages(t)

	// Rot a value byte of key 5's latest (inline) entry: the batch fails
	// verification, and the suspect decode still carries the true key, so
	// salvage must quarantine exactly that key.
	const healKey = uint64(5)
	st := mediaOpen(t, crashed, func(a *pmem.Arena) {
		probe, err := pmem.ReadArena(bytes.NewReader(crashed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := mediaCfg()
		cfg.Arena = probe
		ps, err := core.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, ok := ps.Core(ps.CoreOf(healKey)).Index().Get(healKey)
		if !ok {
			t.Fatal("victim key missing from probe store")
		}
		if e, _, err := oplog.Decode(probe.Mem()[ref:]); err != nil || !e.Inline {
			t.Fatalf("victim entry not inline: %v", err)
		}
		NewMediaFault(7).FlipBit(a, int(ref)+20, 1)
	})
	if err := CheckSalvage(st, h); err != nil {
		t.Fatal(err)
	}
	var qks []uint64
	for _, op := range mediaWorkload() {
		if st.Core(st.CoreOf(op.Key)).Quarantined(op.Key) {
			qks = append(qks, op.Key)
		}
	}
	if !st.Core(st.CoreOf(healKey)).Quarantined(healKey) {
		t.Fatalf("victim key not quarantined: report %q", st.SalvageReport())
	}

	// Overwrite the victim; it must accept the write.
	tr := newTrialOn(st, h)
	healVal := mval(healKey, 99, 77)
	if err := tr.exec(Put(healKey, healVal)); err != nil {
		t.Fatalf("put to quarantined key: %v", err)
	}
	if st.Core(st.CoreOf(healKey)).Quarantined(healKey) {
		t.Fatal("put did not clear quarantine")
	}

	// Second crash + salvage reopen: quarantined keys must stay lost
	// (tombstones), not resurrect pre-damage values.
	cfg := mediaCfg()
	cfg.Arena = st.Arena().Crash()
	cfg.Salvage = true
	re, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("second salvage open: %v", err)
	}
	for _, k := range qks {
		if k == healKey {
			continue
		}
		c := re.Core(re.CoreOf(k))
		if _, _, ok := c.Index().Get(k); ok && !c.Quarantined(k) {
			t.Fatalf("quarantined key %#x resurrected after reopen", k)
		}
	}
	got, gok, err := readVerified(re, healKey)
	if err != nil || !gok || !bytes.Equal(got, healVal) {
		t.Fatalf("healed key reads wrong after reopen: ok=%v err=%v", gok, err)
	}
	if err := CheckSalvage(re, h); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageBrokenLinkThenStrictReopen breaks a chain at a link, with no
// rotted batch anywhere: salvage keeps the prefix and reports the chain
// truncated, and must leave the prefix a chain of its own. The chunk the
// last kept link named goes back to the allocator, so a link left in place
// would make the next strict Open fail on it — or, once the chunk is some
// other log's, walk into that log.
func TestSalvageBrokenLinkThenStrictReopen(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModeNone, ArenaChunks: 8}
	r := newRecorder(t, cfg)
	log0 := r.tr.st.Core(0).Log()
	keys := keysFor(0, 100, 1000)
	put := func(i int) {
		k := keys[i%len(keys)]
		r.do(Put(k, mval(k, i, 250)))
	}
	n := 0
	for ; len(log0.Chunks()) < 3; n++ {
		put(n)
	}
	for end := n + 10; n < end; n++ {
		put(n)
	}
	chain := log0.Chunks()
	kept, bad := chain[1], chain[2]

	open := func(a *pmem.Arena, salvage bool) (*core.Store, error) {
		c := cfg
		c.Arena, c.Salvage = a.Crash(), salvage
		return core.Open(c)
	}
	media := r.tr.st.Arena().Crash()
	NewMediaFault(1).FlipBit(media, int(bad), 0) // the tail chunk's magic
	if _, err := open(media, false); err == nil {
		t.Fatal("strict open accepted a chain with a bad chunk in it")
	}
	st, err := open(media, true)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	rep := st.SalvageReport()
	if len(rep.Cores) != 1 || !rep.Cores[0].Damage.ChainTruncated || rep.Cores[0].TruncatedAt >= 0 {
		t.Fatalf("report %q: want core 0's chain truncated and no batch cut", rep)
	}
	if err := CheckSalvage(st, r.tr.h); err != nil {
		t.Fatal(err)
	}
	if next := st.Arena().ReadUint64(int(kept) + 8); next != 0 {
		t.Fatalf("last kept chunk %#x still links to %#x after salvage", kept, next)
	}

	// Write on, so the freed chunk can come back, then power-cut and open
	// WITHOUT salvage: the repaired image is an ordinary one.
	tr := newTrialOn(st, r.tr.h)
	afterSalvage := func(i int) (uint64, []byte) { k := keys[i]; return k, mval(k, 1<<20+i, 250) }
	for i := 0; i < 20; i++ {
		if err := tr.exec(Put(afterSalvage(i))); err != nil {
			t.Fatalf("put after salvage: %v", err)
		}
	}
	re, err := open(st.Arena(), false)
	if err != nil {
		t.Fatalf("strict reopen after salvage: %v", err)
	}
	if err := unfabricated(re, r.tr.h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k, v := afterSalvage(i)
		if got, ok, err := readVerified(re, k); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %#x written after salvage reads wrong: ok=%v err=%v", k, ok, err)
		}
	}
}
