package fault

import (
	"errors"
	"fmt"

	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
)

// Check audits a just-opened store against the history its trial recorded,
// then verifies the recovery invariants:
//
//  1. every key h or the index names, read through readVerified, joins h,
//     and h holds histcheck's rule: no acknowledged write lost, nothing
//     resurrected or invented, each op a crash interrupted at its old or
//     its new state — for good, since h holds earlier recoveries' reads;
//  2. no indexed record fails verification;
//  3. the allocator bitmaps rebuilt from log pointers exactly equal the
//     out-of-place records reachable from the index, plus the persisted
//     checkpoint blob (the lazy-persist allocator's central claim); no
//     block backs two live keys, and the allocator's own books balance
//     (alloc.Audit: one place per chunk, counts equal bitmaps, every
//     partly free chunk listed with the core its header names);
//  4. the log chains are duplicate-free, disjoint from the free pool,
//     and account for every raw chunk (the GC link/unlink protocol never
//     double-links or leaks a chunk), and every hot index ref lies in a
//     chunk some log chain holds (recovery never indexes a chunk it
//     frees, which reads intact until the chunk is reused);
//  5. every cleaner journal slot is clear.
func Check(st *core.Store, h *histcheck.History) error {
	if _, err := audit(st, h); err != nil {
		return err
	}
	recovered := indexRefs(st)

	// (3) Allocator bitmaps == reachable out-of-place records (+ the
	// checkpoint blob, whose descriptor still references its storage).
	arena := st.Arena()
	expected := map[int64]bool{}
	for k, ref := range recovered {
		if index.Cold(ref) {
			continue // tier records own no arena blocks
		}
		e, _, err := oplog.Decode(arena.Mem()[ref:])
		if err != nil || e.Op != oplog.OpPut {
			return fmt.Errorf("fault: key %#x: index points at undecodable entry %#x", k, ref)
		}
		if !e.Inline {
			if expected[e.Ptr] {
				return fmt.Errorf("fault: key %#x: record block %#x also backs another live key (handed out twice)", k, e.Ptr)
			}
			expected[e.Ptr] = true
		}
	}
	if ptr, n := st.CheckpointDesc(); ptr != 0 && n != 0 {
		expected[ptr] = true
	}
	actual := map[int64]bool{}
	st.Allocator().AuditBlocks(func(off int64, _ int) { actual[off] = true })
	for off := range expected {
		if !actual[off] {
			return fmt.Errorf("fault: reachable record at %#x not marked in the rebuilt allocator bitmap", off)
		}
	}
	for off := range actual {
		if !expected[off] {
			return fmt.Errorf("fault: allocator bitmap marks block %#x that no live entry references", off)
		}
	}
	if err := st.Allocator().Audit(); err != nil {
		return fmt.Errorf("fault: %w", err)
	}

	// (4) Log chain integrity.
	chainOwner := map[int64]int{}
	for i := 0; i < st.Cores(); i++ {
		for _, ch := range st.Core(i).Log().Chunks() {
			if prev, dup := chainOwner[ch]; dup {
				return fmt.Errorf("fault: chunk %#x linked into the logs of cores %d and %d", ch, prev, i)
			}
			chainOwner[ch] = i
		}
	}
	raw := map[int64]bool{}
	for _, off := range st.Allocator().RawChunks() {
		raw[off] = true
	}
	for ch := range chainOwner {
		if !raw[ch] {
			return fmt.Errorf("fault: log chunk %#x not marked in use with the allocator", ch)
		}
	}
	for off := range raw {
		if _, ok := chainOwner[off]; !ok {
			return fmt.Errorf("fault: raw chunk %#x belongs to no log chain (leaked)", off)
		}
	}
	for _, off := range st.Allocator().FreeList() {
		if _, ok := chainOwner[off]; ok {
			return fmt.Errorf("fault: chunk %#x is both in a log chain and the free pool", off)
		}
	}
	for k, ref := range recovered {
		if index.Cold(ref) {
			continue
		}
		ch := ref &^ (pmem.ChunkSize - 1)
		if _, ok := chainOwner[ch]; !ok {
			return fmt.Errorf("fault: key %#x: index ref %#x lies in chunk %#x, which no log chain holds", k, ref, ch)
		}
	}

	// (5) Journal slots all clear.
	for g := 0; g < core.MaxCores; g++ {
		if v := st.JournalSlot(g); v != 0 {
			return fmt.Errorf("fault: cleaner journal slot %d still set (%#x) after recovery", g, v)
		}
	}

	// (6) Cold-tier integrity: every cold index ref must resolve through
	// the tier's CRC-checked read path to its own key, its segment's
	// bloom must admit the key (false-negative-freedom is what lets a
	// miss skip the disk), and no half-written .tmp segment survives
	// recovery.
	if t := st.Tier(); t != nil {
		for k, ref := range recovered {
			if !index.Cold(ref) {
				continue
			}
			key, _, _, err := t.Get(ref)
			if err != nil {
				return fmt.Errorf("fault: key %#x: cold ref %#x unreadable after recovery: %w", k, ref, err)
			}
			if key != k {
				return fmt.Errorf("fault: key %#x: cold ref %#x stores key %#x", k, ref, key)
			}
			if !t.SegmentMayContain(ref, k) {
				return fmt.Errorf("fault: key %#x: segment bloom denies a live cold key (false negative)", k)
			}
		}
		tmps, err := t.TmpFiles()
		if err != nil {
			return err
		}
		if len(tmps) > 0 {
			return fmt.Errorf("fault: %d .tmp segment files survived recovery: %v", len(tmps), tmps)
		}
	} else {
		for k, ref := range recovered {
			if index.Cold(ref) {
				return fmt.Errorf("fault: key %#x has cold ref %#x but the store has no tier", k, ref)
			}
		}
	}
	return nil
}

// indexRefs maps every key the store's indexes hold to its ref. Per-core
// hash indexes are disjoint; the shared masstree returns the same tree from
// every core, which the map dedupes.
func indexRefs(st *core.Store) map[uint64]int64 {
	refs := map[uint64]int64{}
	for i := 0; i < st.Cores(); i++ {
		st.Core(i).Index().Range(func(k uint64, ref int64, _ uint32) bool {
			refs[k] = ref
			return true
		})
	}
	return refs
}

// audit reads every key h or st's index names through readVerified into h
// (see histcheck.History.Audit) and returns what it read.
func audit(st *core.Store, h *histcheck.History) (map[uint64][]byte, error) {
	refs := indexRefs(st)
	state := make(map[uint64][]byte, len(refs))
	stored := make([]uint64, 0, len(refs))
	for k := range refs {
		stored = append(stored, k)
	}
	err := h.Audit(func(k uint64) ([]byte, bool, error) {
		v, ok, err := readVerified(st, k)
		if ok {
			state[k] = v
		}
		return v, ok, err
	}, stored...)
	return state, err
}

// errRotted marks a key whose index entry names something that does not
// verify: unreadable (the read path fails closed), not wrong.
var errRotted = errors.New("fails verification")

// readVerified is the checker's reference read: index ref → decode → verify
// → value, the way a Get serves it but independent of core's own read path,
// so the checker never launders bytes through the code under test. A rotted
// key's error wraps errRotted; any other error is a broken structure.
func readVerified(st *core.Store, key uint64) ([]byte, bool, error) {
	ref, _, ok := st.Core(st.CoreOf(key)).Index().Get(key)
	if !ok {
		return nil, false, nil
	}
	if index.Cold(ref) {
		t := st.Tier()
		if t == nil {
			return nil, false, fmt.Errorf("fault: key %#x: cold ref without a tier", key)
		}
		k, _, val, err := t.Get(ref)
		if err == nil && k != key {
			err = fmt.Errorf("cold ref resolves to key %#x", k)
		}
		if err != nil {
			return nil, false, fmt.Errorf("fault: key %#x: cold record %w: %w", key, errRotted, err)
		}
		return val, true, nil
	}
	arena := st.Arena()
	if ref < 0 || ref+8 > int64(arena.Size()) {
		return nil, false, fmt.Errorf("fault: key %#x: index ref %#x out of bounds", key, ref)
	}
	e, _, err := oplog.Decode(arena.Mem()[ref:])
	if err == nil && (e.Op != oplog.OpPut || e.Key != key) {
		err = fmt.Errorf("entry is a %v of key %#x", e.Op, e.Key)
	}
	if err == nil && !e.Inline {
		err = record.Verify(arena, e.Ptr)
	}
	switch {
	case err != nil:
		return nil, false, fmt.Errorf("fault: key %#x: entry at %#x %w: %w", key, ref, errRotted, err)
	case e.Inline:
		return append([]byte(nil), e.Value...), true, nil
	}
	return record.Read(arena, e.Ptr), true, nil
}
