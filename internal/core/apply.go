package core

import (
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
)

// The write path, once. The paper's Put is three steps (§3.2: persist the
// record, persist the log entry, update the volatile index and free what
// it superseded) and its recovery is one rule (§3.5: replay entries, the
// highest version wins). This file holds the one definition of each:
//
//	materialize  value → log entry          startModify, promote, ReplApplyBatch
//	supersede    index, registry, frees     complete, ReplApplyBatch
//	deref        index ref → entry + value  every reader of a ref
//	replay       version-gated apply        crash recovery
//
// What a caller adds is its own policy around the step: which flusher,
// which version, what to do with a verdict.

// keyRef is what an index entry, a log entry or a segment-footer row says
// about a key: where a copy of it is and which version that copy carries.
// del marks a tombstone (ref is then the tombstone's own log offset).
type keyRef struct {
	key uint64
	ref int64
	ver uint32
	del bool
}

// lastVersion reports the highest version this core knows for key — the
// index's, the registry's (which outlives a delete) or the quarantine
// high-water mark of a value lost to corruption — and whether the key is
// present, i.e. live or quarantined. A new write takes a version above it,
// so the write durably supersedes everything else about the key, and a
// replicated write at or below it is a duplicate. Caller holds idxMu.
func (c *Core) lastVersion(key uint64) (ver uint32, present bool) {
	if _, v, ok := c.idx.Get(key); ok {
		// A live key's index version is its highest: supersede and replay
		// keep the registry at it, and a quarantined key is never indexed.
		return v, true
	}
	ver, present = c.quar[key]
	if m := c.reg[key]; m.lastVer > ver {
		ver = m.lastVer
	}
	return ver, present
}

// materialize is step 1 of §3.2's Put: make e carry val. A value that fits
// the log entry rides inline (e.Value aliases val until the entry is
// encoded); anything else becomes an out-of-place record that is durable
// before the entry pointing at it is appended.
func (c *Core) materialize(f *pmem.Flusher, e *oplog.Entry, val []byte) error {
	if len(val) > 0 && len(val) <= c.st.cfg.InlineMax {
		e.Inline, e.Value = true, val
		return nil
	}
	blk, err := c.ca.Alloc(record.Size(len(val)), f)
	if err != nil {
		return err
	}
	record.Persist(f, blk, val)
	e.Ptr = blk
	return nil
}

// unmaterialize releases the record of an entry whose append failed: the
// entry never reached a log, so nothing refers to the block.
func (c *Core) unmaterialize(f *pmem.Flusher, e *oplog.Entry) {
	if e.Op == oplog.OpPut && !e.Inline {
		c.ca.Free(e.Ptr, record.Size(record.Len(c.st.arena, e.Ptr)), f)
	}
}

// supersede is step 3 of §3.2's Put, the volatile phase of a durable
// write: point the index at the new entry (or drop the key, for a
// tombstone), keep the registry's version and stale-entry count, clear a
// quarantine the write has overtaken, and release what the write
// displaced. With writes pipelining per key, what a write displaces is
// whatever the index holds just before the update (completions apply in
// version order on the owning core). f is the caller's flusher: the
// core's own, or the replication goroutine's on a follower.
func (c *Core) supersede(f *pmem.Flusher, key uint64, off int64, ver uint32, del bool) {
	st := c.st
	c.idxMu.Lock()
	oldRef, _, had := c.idx.Get(key)
	// A displaced PM entry stays in its chunk as a stale Put until the
	// cleaner drops it; a displaced cold record was never a log entry.
	stalePM := had && !index.Cold(oldRef)
	var old located
	if stalePM {
		st.reclaimMu.RLock()
		old = st.deref(key, oldRef, nil)
		st.reclaimMu.RUnlock()
	}
	if del {
		c.idx.Delete(key)
	} else {
		c.idx.Put(key, off, ver)
	}
	if m, ok := c.reg[key]; ok || del || stalePM {
		if stalePM {
			m.stale++
		}
		if m.tombOff != 0 {
			// The write supersedes the key's tombstone.
			st.usage.markDead(chunkOf(m.tombOff), oplog.HeaderSize)
			m.tombOff = 0
		}
		m.lastVer, m.deleted = ver, del
		if del {
			m.tombOff = off
			st.settleTombstone(key, &m)
		}
		c.reg[key] = m
	}
	_, cleared := c.quar[key]
	if cleared {
		// The acknowledged overwrite (or tombstone) supersedes whatever
		// the corruption destroyed: the quarantine has served its purpose.
		delete(c.quar, key)
	}
	c.idxMu.Unlock()
	if cleared {
		st.noteQuarantineClears(1)
	}
	switch {
	case !had:
	case !stalePM:
		st.tier.MarkDead(oldRef)
	default:
		st.usage.markDead(chunkOf(oldRef), old.size)
		switch {
		case old.state == refRotted:
			// A rotted length would derive the wrong size class and corrupt
			// the allocator: the block is leaked instead (salvage recovery
			// reclaims it as unreferenced).
			st.noteChecksumErrors(1)
		case old.state == refOK && !old.inline:
			// Freed blocks are immediately reusable: parked readers of
			// this key are released only after the whole in-flight
			// window drains ("read-after-delete" cannot occur, §3.2).
			c.ca.Free(old.ptr, record.Size(len(old.val)), f)
		}
	}
}

// refState is deref's verdict on a reference.
type refState uint8

const (
	// refOK: the reference names a Put of the key and its value verified.
	refOK refState = iota
	// refGone: no Put of the key is there (any more) — the entry was
	// relocated and its chunk reused, or the segment was compacted away.
	// A reader re-resolves the key; for a reference that is still the
	// index target it means the entry itself is lost.
	refGone
	// refRotted: the bytes are there and fail their checksum, or a cold
	// reference cannot be read at all. Never a miss: callers fail closed.
	refRotted
)

// located is what an index reference leads to.
type located struct {
	state refState
	// inline, ver and ptr are the Put entry's fields (ptr: the out-of-place
	// record, when !inline). A cold record has a version only.
	inline bool
	ver    uint32
	ptr    int64
	// size is what the entry occupies in its log chunk (0 for a cold one).
	size int
	// val is the value: a view of the arena for a PM reference, stable
	// while the caller holds reclaimMu.R; for a cold one, a view of the
	// buffer deref read the record into.
	val []byte
}

// deref follows ref, which the caller resolved from key, to the entry and
// value behind it: a PM log entry, or — when ref carries the tier bit — a
// cold-tier record. For a PM reference the caller holds reclaimMu.R (or is
// recovery, alone with the arena). The stored key is cross-checked on both
// tiers, and the segment's bloom is asked before a cold read, so a stale
// cold reference (segment compacted away underneath a scan) costs no disk
// read. A cold record is read into *buf (tier.Store.GetInto); nil reads
// it into a fresh buffer.
func (st *Store) deref(key uint64, ref int64, buf *[]byte) located {
	if index.Cold(ref) {
		t := st.tier
		if t == nil {
			// Unresolvable: fail closed rather than invent a miss.
			return located{state: refRotted}
		}
		if !t.SegmentMayContain(ref, key) {
			return located{state: refGone}
		}
		k, ver, v, err := t.GetInto(ref, buf)
		if err != nil || k != key {
			return located{state: refRotted}
		}
		return located{ver: ver, val: v}
	}
	e, n, err := oplog.Decode(st.arena.Mem()[ref:])
	if err != nil || e.Op != oplog.OpPut || e.Key != key {
		return located{state: refGone}
	}
	d := located{inline: e.Inline, ver: e.Version, ptr: e.Ptr, size: n}
	if d.val, err = st.EntryValue(&e); err != nil {
		d.state = refRotted
	}
	return d
}

// replay is recovery's one rule (§3.5): a record takes the key when its
// version is higher than anything seen for the key so far. r is a Put or
// Delete entry of a PM log, or — r.ref carrying the tier bit — a row of a
// cold segment's footer. Equal versions are copies of one write, and which
// copy keeps the key is settled here:
//
//   - a PM copy beats a cold one in either arrival order: a crash between a
//     demotion's segment write and the victim's unlink leaves both, and the
//     stranded cold copy is then plain dead-segment garbage;
//   - of two cold copies (a crashed compaction) the first written wins —
//     the caller replays segments in ascending id;
//   - of two PM copies (a GC relocation) the first replayed wins, except
//     after a checkpoint seed: the seeded reference may name a chunk the
//     cleaner has freed since, so a same-version log copy refreshes it;
//   - of two copies of a tombstone the registry names the first replayed
//     (tombOff: where the usage table counts it live).
//
// Every PM Put is counted into the registry's stale count, accepted or
// not; recovery's post-pass subtracts the one the index ends up naming. A
// cold record is no log entry and must not inflate the count the
// tombstone guard relies on. Called by one goroutine per owning core.
func (c *Core) replay(r keyRef, seeded bool) {
	m := c.reg[r.key]
	cold := index.Cold(r.ref)
	if !r.del && !cold {
		m.stale++
	}
	accept := r.ver > m.lastVer
	if !accept && !r.del && !m.deleted && r.ver == m.lastVer {
		cur, _, ok := c.idx.Get(r.key)
		switch {
		case !ok:
			// Nothing claims the key: a seeded registry entry whose index
			// triple was a cold reference (dropped from a crash seed).
			accept = true
		case !cold:
			accept = seeded || index.Cold(cur)
		}
	}
	if !accept {
		if r.del && m.deleted && r.ver == m.lastVer && m.tombOff == 0 {
			// Copies of one tombstone (a GC relocation): the registry names
			// the first one replayed. A seeded entry names none yet.
			m.tombOff = r.ref
		}
		c.reg[r.key] = m
		return
	}
	m.lastVer, m.deleted, m.tombOff = r.ver, r.del, 0
	if r.del {
		m.tombOff = r.ref
		c.idx.Delete(r.key)
	} else {
		c.idx.Put(r.key, r.ref, r.ver)
	}
	c.reg[r.key] = m
}
