package core

import (
	"bytes"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/index"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
)

// tieredCore is a one-core ordered tiered store that is never Run: the
// test submits to the core directly, so every PM event and every tier
// counter between two reads belongs to the ops the test made.
type tieredCore struct {
	t   *testing.T
	cfg Config
	st  *Store
	c   *Core
}

func newTieredCore(t *testing.T) *tieredCore {
	t.Helper()
	cfg := Config{Cores: 1, Mode: batch.ModePipelinedHB, Index: IndexMasstree, ArenaChunks: 9,
		GC:   GCConfig{DeadRatio: 0.5},
		Tier: TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10, CompactRatio: 0.01}}
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &tieredCore{t: t, cfg: cfg}
	h.attach(st)
	t.Cleanup(func() { h.st.tier.Close() })
	return h
}

func (h *tieredCore) attach(st *Store) { h.st, h.c = st, st.cores[0] }

// pval is key's value: size bytes, so 200 rides inline and 400 goes out of
// place.
func pval(key uint64, size int) []byte { return bytes.Repeat([]byte{byte(key)}, size) }

func (h *tieredCore) do(req rpc.Request) rpc.Response {
	h.t.Helper()
	h.c.Submit(req, 0)
	h.c.TryLead()
	h.c.DrainCompleted()
	out := h.c.TakeResponses()
	if len(out) != 1 || out[0].Resp.Status != rpc.StatusOK {
		h.t.Fatalf("op %d on key %d: %+v", req.Op, req.Key, out)
	}
	return out[0].Resp
}

func (h *tieredCore) put(key uint64, val []byte) {
	h.t.Helper()
	h.do(rpc.Request{ID: 1, Op: rpc.OpPut, Key: key, Value: val})
}

// get reads key (200-byte value) through the request path.
func (h *tieredCore) get(key uint64) {
	h.t.Helper()
	if v := h.do(rpc.Request{ID: 1, Op: rpc.OpGet, Key: key}).Value; !bytes.Equal(v, pval(key, 200)) {
		h.t.Fatalf("key %d read back %d wrong bytes", key, len(v))
	}
}

func (h *tieredCore) cold(key uint64) bool {
	ref, _, ok := h.c.idx.Get(key)
	if !ok {
		h.t.Fatalf("key %d not indexed", key)
	}
	return index.Cold(ref)
}

// demoteAll closes the tail chunk behind a churn of overwrites and runs the
// cleaner until everything live in the closed chunks is cold.
func (h *tieredCore) demoteAll(keys ...uint64) {
	h.t.Helper()
	for r := 0; r < 200; r++ {
		for k := uint64(1 << 20); k < 1<<20+80; k++ {
			h.put(k, pval(k, 250))
		}
	}
	cl := h.st.NewCleaner(0)
	for i := 0; i < 20; i++ {
		cl.CleanOnce()
	}
	for _, k := range keys {
		if !h.cold(k) {
			h.t.Fatalf("set-up left key %d in PM", k)
		}
	}
}

// pm folds the core's events into the arena totals and returns them.
func (h *tieredCore) pm() pmem.StatsSnapshot {
	h.c.f.FlushEvents()
	return h.st.arena.Stats()
}

func keyRange(lo, hi uint64) (keys []uint64) {
	for k := lo; k <= hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

// TestPromoteOnSecondTouch counts, exactly, what the promotion policy costs
// and when it acts: a first-touch cold Get is a disk read and nothing else,
// the second touch is one batch-of-one append, a key whose hot reads were
// counted comes back on its first cold read, a Scan is no touch, and the
// sketch does not outlive the process.
func TestPromoteOnSecondTouch(t *testing.T) {
	h := newTieredCore(t)
	once := keyRange(1, 60)       // never read before they go cold
	hot := keyRange(101, 120)     // read while hot, then demoted
	scanned := keyRange(201, 230) // cold, met by a Scan first
	all := append(append(append([]uint64{}, once...), hot...), scanned...)
	for _, k := range all {
		h.put(k, pval(k, 200))
	}
	for _, k := range hot {
		h.get(k)
	}
	h.demoteAll(all...)

	// A key read while hot promotes on its first cold read.
	t0, p0 := h.st.tier.Stats(), h.pm()
	for _, k := range hot {
		h.get(k)
		if h.cold(k) {
			t.Fatalf("key %d was read while hot, yet its first cold read left it cold", k)
		}
	}
	t1, p1 := h.st.tier.Stats(), h.pm()
	if n := uint64(len(hot)); t1.Promoted-t0.Promoted != n || t1.PromoteDeferred != t0.PromoteDeferred ||
		p1.Flushes-p0.Flushes != n || p1.Fences-p0.Fences != n {
		t.Fatalf("%d marked keys: promoted %d, deferred %d, %d flushes, %d fences; want one promotion, flush and fence each",
			n, t1.Promoted-t0.Promoted, t1.PromoteDeferred-t0.PromoteDeferred, p1.Flushes-p0.Flushes, p1.Fences-p0.Fences)
	}

	// A Scan reads cold records without marking or promoting them.
	resp := h.do(rpc.Request{ID: 1, Op: rpc.OpScan, Key: scanned[0], ScanHi: scanned[len(scanned)-1]})
	if len(resp.Pairs) != len(scanned) {
		t.Fatalf("scan returned %d pairs, want %d", len(resp.Pairs), len(scanned))
	}
	t2, p2 := h.st.tier.Stats(), h.pm()
	if t2.Reads-t1.Reads != uint64(len(scanned)) || t2.Promoted != t1.Promoted || t2.PromoteDeferred != t1.PromoteDeferred || p2 != p1 {
		t.Fatalf("scan of %d cold records: tier %+v -> %+v, pm %+v -> %+v", len(scanned), t1, t2, p1, p2)
	}

	// First touch: N distinct cold keys, read once each, cost the PM nothing.
	first := append(append([]uint64{}, once...), scanned...)
	for _, k := range first {
		h.get(k)
		if !h.cold(k) {
			t.Fatalf("key %d promoted on its first touch", k)
		}
	}
	t3, p3 := h.st.tier.Stats(), h.pm()
	if p3 != p2 {
		t.Fatalf("%d first-touch cold Gets moved the PM counters: %+v -> %+v", len(first), p2, p3)
	}
	if n := uint64(len(first)); t3.PromoteDeferred-t2.PromoteDeferred != n || t3.Promoted != t2.Promoted || t3.PromoteFailed != 0 {
		t.Fatalf("%d first-touch cold Gets: deferred %d, promoted %d, failed %d",
			n, t3.PromoteDeferred-t2.PromoteDeferred, t3.Promoted-t2.Promoted, t3.PromoteFailed)
	}

	// Second touch: exactly one flush and one fence each, and the key is hot.
	for _, k := range once {
		before := h.c.f.PendingEvents()
		h.get(k)
		after := h.c.f.PendingEvents()
		if after.Flushes-before.Flushes != 1 || after.Fences-before.Fences != 1 {
			t.Fatalf("second touch of key %d: %d flushes, %d fences, want 1 and 1",
				k, after.Flushes-before.Flushes, after.Fences-before.Fences)
		}
		if h.cold(k) {
			t.Fatalf("key %d still cold after its second touch", k)
		}
	}
	t4 := h.st.tier.Stats()
	if n := uint64(len(once)); t4.Promoted-t3.Promoted != n || t4.PromoteDeferred != t3.PromoteDeferred || t4.PromoteFailed != 0 {
		t.Fatalf("%d second touches: promoted %d, deferred %d, failed %d",
			n, t4.Promoted-t3.Promoted, t4.PromoteDeferred-t3.PromoteDeferred, t4.PromoteFailed)
	}
	h.pm()

	// The scanned keys were touched once and are still cold. A reopened
	// store has forgotten that: their next read is a first touch again.
	h.st.tier.Close()
	cfg := h.cfg
	cfg.Arena = h.st.arena.Crash()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.attach(re)
	t5, p5 := h.st.tier.Stats(), h.pm()
	for _, k := range scanned {
		h.get(k)
		if !h.cold(k) {
			t.Fatalf("key %d promoted by a sketch that survived the reopen", k)
		}
	}
	t6, p6 := h.st.tier.Stats(), h.pm()
	if p6 != p5 || t6.PromoteDeferred-t5.PromoteDeferred != uint64(len(scanned)) || t6.Promoted != t5.Promoted {
		t.Fatalf("after reopen: tier %+v -> %+v, pm %+v -> %+v", t5, t6, p5, p6)
	}
}

// TestPromoteFollowsMovedColdRef: tier compaction repoints a key between a
// Get's index lookup and its promotion. The promotion lands anyway — on the
// ref the index holds now — instead of writing its fresh entry (and, for an
// out-of-place value, a record block only that entry names) off as stale.
func TestPromoteFollowsMovedColdRef(t *testing.T) {
	h := newTieredCore(t)
	const inlineKey, bigKey = 1, 2
	doomed := keyRange(11, 16)
	h.put(inlineKey, pval(inlineKey, 200))
	h.put(bigKey, pval(bigKey, 400))
	for _, k := range doomed {
		h.put(k, pval(k, 200))
	}
	h.demoteAll(append(doomed, inlineKey, bigKey)...)

	// What a Get holds just before it calls promote.
	type lookup struct {
		key uint64
		ref int64
		ver uint32
		val []byte
	}
	var held []lookup
	for _, k := range []uint64{inlineKey, bigKey} {
		ref, ver, _ := h.c.idx.Get(k)
		v, ok, corrupt := h.c.readEntry(k, ref)
		if !ok || corrupt {
			t.Fatalf("cold read of key %d failed", k)
		}
		held = append(held, lookup{k, ref, ver, v})
	}
	// Overwrites kill enough cold records for compaction to take the segment.
	for _, k := range doomed {
		h.put(k, pval(k, 100))
	}
	if did, err := h.st.TierCompactOnce(); err != nil || !did {
		t.Fatalf("compaction did not run (did %v, err %v)", did, err)
	}
	if dead := h.st.tier.Stats().DeadRecords; dead != 0 {
		t.Fatalf("compacted tier starts with %d dead records", dead)
	}
	used := func() int { return usedBlocks(h.st) }
	blocks := used()
	for i, l := range held {
		moved, _, _ := h.c.idx.Get(l.key)
		if moved == l.ref || !index.Cold(moved) {
			t.Fatalf("key %d: compaction left ref %#x -> %#x", l.key, l.ref, moved)
		}
		if !h.c.promote(l.key, l.ver, l.val) {
			t.Fatalf("key %d: promotion gave up on a cold ref that only moved", l.key)
		}
		ref, ver, _ := h.c.idx.Get(l.key)
		if index.Cold(ref) || ver != l.ver {
			t.Fatalf("key %d: index names %#x v%d after promotion, want a PM entry at v%d", l.key, ref, ver, l.ver)
		}
		if d := h.st.deref(l.key, ref, nil); d.state != refOK || !bytes.Equal(d.val, l.val) {
			t.Fatalf("key %d: promoted entry does not carry the value (state %d)", l.key, d.state)
		}
		// The copy compaction wrote is the one that died.
		if dead := h.st.tier.Stats().DeadRecords; dead != uint64(i+1) {
			t.Fatalf("key %d: %d dead cold records after promotion, want %d", l.key, dead, i+1)
		}
	}
	if got := used(); got != blocks+1 {
		t.Fatalf("%d record blocks in use after promoting one out-of-place value, had %d", got, blocks)
	}
	// The block belongs to the live entry: superseding the key frees it.
	h.put(bigKey, pval(bigKey, 200))
	if got := used(); got != blocks {
		t.Fatalf("%d record blocks in use after overwriting the promoted key, want %d: the promotion's block leaked", got, blocks)
	}
	if m := h.c.reg[inlineKey]; m.stale != 0 {
		t.Fatalf("promoted key counts %d stale log entries, want none", m.stale)
	}
}
