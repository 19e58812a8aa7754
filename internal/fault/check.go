package fault

import (
	"bytes"
	"fmt"

	"flatstore/internal/core"
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/record"
)

// Check verifies the recovery invariants of a just-opened store against
// the oracle a trial recorded:
//
//  1. every acknowledged Put is readable with its exact value, and no
//     acknowledged Delete's key reappears (no lost ack, no resurrection);
//  2. no key exists that was never acknowledged live — except the single
//     op in flight at the crash, which may resolve to its old state or
//     its new state but nothing else (atomic durability per op);
//  3. the allocator bitmaps rebuilt from log pointers exactly equal the
//     out-of-place records reachable from the index, plus the persisted
//     checkpoint blob (the lazy-persist allocator's central claim); no
//     block backs two live keys, and the allocator's own books balance
//     (alloc.Audit: one place per chunk, counts equal bitmaps, every
//     partly free chunk listed with the core its header names);
//  4. the log chains are duplicate-free, disjoint from the free pool,
//     and account for every raw chunk (the GC link/unlink protocol never
//     double-links or leaks a chunk);
//  5. every cleaner journal slot is clear.
//
// It returns the resolved model — the oracle with the pending op settled
// to whichever state recovery chose — for chained checks after further
// crashes.
func Check(st *core.Store, model map[uint64][]byte, pending *Op) (map[uint64][]byte, error) {
	// Enumerate the recovered key set. Per-core hash indexes are
	// disjoint; the shared masstree returns the same tree from every
	// core, which the map dedupes.
	recovered := map[uint64]int64{}
	for i := 0; i < st.Cores(); i++ {
		st.Core(i).Index().Range(func(k uint64, ref int64, _ uint32) bool {
			recovered[k] = ref
			return true
		})
	}

	resolved := make(map[uint64][]byte, len(model))
	for k, v := range model {
		resolved[k] = v
	}

	// (1) No acknowledged write lost.
	for k, want := range model {
		if pending != nil && k == pending.Key {
			continue
		}
		got, ok, err := lookupValue(st, k)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("fault: acknowledged key %#x lost", k)
		}
		if !bytes.Equal(got, want) {
			return nil, fmt.Errorf("fault: key %#x: recovered %d bytes, acknowledged %d bytes differ", k, len(got), len(want))
		}
	}
	// (2a) Nothing present that was never acknowledged live.
	for k := range recovered {
		if _, ok := model[k]; ok {
			continue
		}
		if pending != nil && k == pending.Key && pending.Kind == KPut {
			continue
		}
		return nil, fmt.Errorf("fault: key %#x present after recovery but not in the acknowledged state (resurrected or phantom)", k)
	}
	// (2b) The in-flight op resolved to old or new state, nothing else.
	if pending != nil && (pending.Kind == KPut || pending.Kind == KDelete) {
		got, ok, err := lookupValue(st, pending.Key)
		if err != nil {
			return nil, err
		}
		old, hadOld := model[pending.Key]
		switch {
		case pending.Kind == KPut && ok && bytes.Equal(got, pending.Val):
			resolved[pending.Key] = append([]byte(nil), pending.Val...) // new state won
		case pending.Kind == KDelete && !ok:
			delete(resolved, pending.Key) // new state won
		case ok && hadOld && bytes.Equal(got, old):
			// old state kept
		case !ok && !hadOld:
			// old state kept (absent)
		default:
			return nil, fmt.Errorf("fault: in-flight %v of key %#x resolved to neither old nor new state (present=%v)",
				pending.Kind, pending.Key, ok)
		}
	}

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
			return nil, fmt.Errorf("fault: key %#x: index points at undecodable entry %#x", k, ref)
		}
		if !e.Inline {
			if expected[e.Ptr] {
				return nil, fmt.Errorf("fault: key %#x: record block %#x also backs another live key (handed out twice)", k, e.Ptr)
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
			return nil, fmt.Errorf("fault: reachable record at %#x not marked in the rebuilt allocator bitmap", off)
		}
	}
	for off := range actual {
		if !expected[off] {
			return nil, fmt.Errorf("fault: allocator bitmap marks block %#x that no live entry references", off)
		}
	}
	if err := st.Allocator().Audit(); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}

	// (4) Log chain integrity.
	chainOwner := map[int64]int{}
	for i := 0; i < st.Cores(); i++ {
		for _, ch := range st.Core(i).Log().Chunks() {
			if prev, dup := chainOwner[ch]; dup {
				return nil, fmt.Errorf("fault: chunk %#x linked into the logs of cores %d and %d", ch, prev, i)
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
			return nil, fmt.Errorf("fault: log chunk %#x not marked in use with the allocator", ch)
		}
	}
	for off := range raw {
		if _, ok := chainOwner[off]; !ok {
			return nil, fmt.Errorf("fault: raw chunk %#x belongs to no log chain (leaked)", off)
		}
	}
	for _, off := range st.Allocator().FreeList() {
		if _, ok := chainOwner[off]; ok {
			return nil, fmt.Errorf("fault: chunk %#x is both in a log chain and the free pool", off)
		}
	}

	// (5) Journal slots all clear.
	for g := 0; g < core.MaxCores; g++ {
		if v := st.JournalSlot(g); v != 0 {
			return nil, fmt.Errorf("fault: cleaner journal slot %d still set (%#x) after recovery", g, v)
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
				return nil, fmt.Errorf("fault: key %#x: cold ref %#x unreadable after recovery: %w", k, ref, err)
			}
			if key != k {
				return nil, fmt.Errorf("fault: key %#x: cold ref %#x stores key %#x", k, ref, key)
			}
			if !t.SegmentMayContain(ref, k) {
				return nil, fmt.Errorf("fault: key %#x: segment bloom denies a live cold key (false negative)", k)
			}
		}
		tmps, err := t.TmpFiles()
		if err != nil {
			return nil, err
		}
		if len(tmps) > 0 {
			return nil, fmt.Errorf("fault: %d .tmp segment files survived recovery: %v", len(tmps), tmps)
		}
	} else {
		for k, ref := range recovered {
			if index.Cold(ref) {
				return nil, fmt.Errorf("fault: key %#x has cold ref %#x but the store has no tier", k, ref)
			}
		}
	}
	return resolved, nil
}

// lookupValue reads a key's current value through the index, exactly as
// a Get would, without driving the request path.
func lookupValue(st *core.Store, key uint64) ([]byte, bool, error) {
	c := st.Core(st.CoreOf(key))
	ref, _, ok := c.Index().Get(key)
	if !ok {
		return nil, false, nil
	}
	if index.Cold(ref) {
		t := st.Tier()
		if t == nil {
			return nil, false, fmt.Errorf("fault: key %#x: cold ref without a tier", key)
		}
		k, _, val, err := t.Get(ref)
		if err != nil {
			return nil, false, fmt.Errorf("fault: key %#x: cold read failed: %w", key, err)
		}
		if k != key {
			return nil, false, fmt.Errorf("fault: key %#x: cold ref resolves to key %#x", key, k)
		}
		return val, true, nil
	}
	e, _, err := oplog.Decode(st.Arena().Mem()[ref:])
	if err != nil {
		return nil, false, fmt.Errorf("fault: key %#x: undecodable entry at %#x: %w", key, ref, err)
	}
	if e.Op != oplog.OpPut {
		return nil, false, fmt.Errorf("fault: key %#x: index points at a non-Put entry", key)
	}
	if e.Inline {
		return append([]byte(nil), e.Value...), true, nil
	}
	if verr := record.Verify(st.Arena(), e.Ptr); verr != nil {
		return nil, false, fmt.Errorf("fault: key %#x: record at %#x fails verification: %w", key, e.Ptr, verr)
	}
	return record.Read(st.Arena(), e.Ptr), true, nil
}
