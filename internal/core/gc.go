package core

import (
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/tier"
)

// Cleaner is one HB group's log cleaner (§3.4): it picks victim chunks by
// garbage ratio, copies live entries into a survivor chunk, journals and
// links the survivor, repoints the volatile index with CAS, and frees the
// victim — all without blocking the request path. One cleaner runs per
// group, so log recycling proceeds in parallel across groups.
type Cleaner struct {
	st     *Store
	group  int
	coreLo int // cores [coreLo, coreHi) belong to this group
	coreHi int
	f      *pmem.Flusher

	cleaned   uint64 // chunks reclaimed
	relocated uint64 // live entries copied
	dropped   uint64 // dead entries discarded
	demoted   uint64 // live entries moved to the cold tier
}

// newCleaner builds the cleaner for group g.
func (st *Store) newCleaner(g int) *Cleaner {
	lo := g * st.cfg.GroupSize
	hi := lo + st.groups[g].Size()
	return &Cleaner{st: st, group: g, coreLo: lo, coreHi: hi, f: st.arena.NewFlusher()}
}

// NewCleaner exposes cleaner construction for the simulator and tools.
func (st *Store) NewCleaner(group int) *Cleaner { return st.newCleaner(group) }

// CleanerStats reports a cleaner's progress.
type CleanerStats struct {
	Cleaned   uint64
	Relocated uint64
	Dropped   uint64
	Demoted   uint64
}

// Stats snapshots the cleaner counters.
func (cl *Cleaner) Stats() CleanerStats {
	return CleanerStats{Cleaned: cl.cleaned, Relocated: cl.relocated, Dropped: cl.dropped, Demoted: cl.demoted}
}

// Flusher exposes the cleaner's flusher (simulator cost accounting).
func (cl *Cleaner) Flusher() *pmem.Flusher { return cl.f }

// demotePressure reports whether the cleaner should demote cold live
// entries to the disk tier instead of merely relocating them: the tier
// is configured and the arena's free-chunk pool has fallen below the
// demotion watermark (or the harder GC low-space floor).
func (cl *Cleaner) demotePressure() bool {
	st := cl.st
	if st.tier == nil {
		return false
	}
	free := st.al.FreeChunks()
	return free < st.cfg.Tier.DemoteFreeChunks || free < st.cfg.GC.MinFreeChunks
}

// pickVictim selects the dirtiest closed chunk owned by this group's
// cores, honoring the configured dead ratio unless free space is low.
// Under tier demotion pressure any closed chunk qualifies — an all-live
// arena has nothing dead to drop, so the only way to free space is to
// move live data down a tier.
func (cl *Cleaner) pickVictim() (int64, *chunkUsage) {
	st := cl.st
	lowSpace := st.al.FreeChunks() < st.cfg.GC.MinFreeChunks
	demote := cl.demotePressure()
	var bestChunk int64 = -1
	var best *chunkUsage
	bestRatio := st.cfg.GC.DeadRatio
	if lowSpace {
		bestRatio = 0.05
	}
	if demote {
		bestRatio = -0.01
	}
	st.usage.mu.Lock()
	defer st.usage.mu.Unlock()
	for chunk, cu := range st.usage.m {
		if cu.owner < cl.coreLo || cu.owner >= cl.coreHi {
			continue
		}
		if chunk == cu.log.TailChunk() {
			continue // never clean the chunk being appended to
		}
		cu.mu.Lock()
		total, dead := cu.total, cu.dead
		cu.mu.Unlock()
		if total == 0 {
			continue
		}
		score := float64(dead) / float64(total)
		if score >= bestRatio {
			bestRatio = score
			bestChunk = chunk
			best = cu
		}
	}
	return bestChunk, best
}

// scanned is one victim entry with its verdict. A live Put may
// additionally be demoted: its value moved to the cold tier, the index
// repointed at the segment, and the PM entry (plus its out-of-place
// record) reclaimed with the victim instead of being relocated.
type scanned struct {
	off     int64
	e       oplog.Entry
	live    bool
	demoted bool
}

// CleanOnce reclaims at most one victim chunk. It returns the number of
// entries processed (0 when there was nothing worth cleaning), so callers
// can back off when idle.
//
// CleanOnce is idempotent up to its commit point: classification is
// read-only and every registry mutation is deferred until the survivor
// chunk is durably linked and the victim unlinked, so a failure anywhere
// before that (survivor out of space, unlink refusal) leaves the store
// exactly as found and the same victim can be retried. Decrementing the
// tombstone-guard counts eagerly and then retrying would double-decrement
// them, reclaim a tombstone while an older Put for its key is still in
// the log, and resurrect the deleted key on the next crash recovery.
func (cl *Cleaner) CleanOnce() int {
	st := cl.st
	// Metrics deltas: cleaners are one-per-group but share the registry's
	// GC counters, so progress is published via atomic adds at the two
	// exits that did real work.
	r0, d0 := cl.relocated, cl.dropped
	victim, cu := cl.pickVictim()
	if victim < 0 {
		return 0
	}

	// 1. Scan the victim and classify every entry under the owning
	// core's index lock (read-only: registry effects apply in step 6).
	var entries []scanned
	err := oplog.ScanChunk(st.arena, victim, cu.log.Tail(), func(off int64, e oplog.Entry) bool {
		entries = append(entries, scanned{off: off, e: e})
		return true
	})
	if err != nil {
		return 0
	}
	for i := range entries {
		s := &entries[i]
		oc := st.cores[st.CoreOf(s.e.Key)]
		oc.idxMu.Lock()
		switch s.e.Op {
		case oplog.OpPut:
			ref, _, ok := oc.idx.Get(s.e.Key)
			s.live = ok && ref == s.off
		case oplog.OpDelete:
			// A tombstone stays live while older Put entries for its
			// key could still be replayed after a crash (§3.4: "can
			// be safely reclaimed only after all the log entries
			// related to this KV item have been reclaimed"). With a
			// cold tier that includes segment footers: a key whose
			// blooms still admit it may have an older cold record, so
			// the tombstone must outlive the segment holding it.
			m := oc.reg[s.e.Key]
			s.live = m != nil && m.deleted && m.lastVer == s.e.Version &&
				(m.stale > 0 || (st.tier != nil && st.tier.MayContain(s.e.Key)))
		}
		oc.idxMu.Unlock()
	}

	// 2a. Under tier pressure, peel live Puts off into a demote set and
	// write them to a cold segment BEFORE the survivor chunk. The tier
	// write commits nothing — the index still points at the victim — so
	// a failed or torn segment write leaves PM state untouched and the
	// entries simply fall back to relocation. A record whose value
	// cannot be materialized with a clean CRC is never demoted (the
	// cold copy would launder corruption into a valid-looking segment);
	// it relocates as-is and the read path quarantines it.
	var demoteIdx []int
	var demoteRecs []tier.Rec
	if cl.demotePressure() {
		for i := range entries {
			s := &entries[i]
			if !s.live || s.e.Op != oplog.OpPut {
				continue
			}
			v, err := st.EntryValue(&s.e)
			if err != nil {
				continue
			}
			demoteIdx = append(demoteIdx, i)
			demoteRecs = append(demoteRecs, tier.Rec{Key: s.e.Key, Ver: s.e.Version, Val: v})
		}
	}
	var trefs []int64
	if len(demoteRecs) > 0 {
		var err error
		trefs, err = st.tier.Write(demoteRecs)
		if err != nil {
			// Segment write failed: nothing downstream saw it. Merge
			// the demote set back into the relocate set (deferred-
			// registration: no registry or index effect has happened).
			demoteIdx, trefs = nil, nil
		}
	}
	demoting := make(map[int]bool, len(demoteIdx))
	for _, i := range demoteIdx {
		demoting[i] = true
	}

	// 2b. Copy the remaining live entries into a survivor chunk and
	// persist it.
	var live []*oplog.Entry
	var liveIdx []int
	for i := range entries {
		if entries[i].live && !demoting[i] {
			e := entries[i].e
			live = append(live, &e)
			liveIdx = append(liveIdx, i)
		}
	}
	if len(live) > 0 {
		surv, offs, err := cu.log.WriteSurvivorChunk(cl.f, live)
		if err != nil {
			// Out of space; retry later. The just-written cold copies
			// (if any) are not index-referenced: mark them dead so tier
			// compaction can reap the segment.
			for _, tref := range trefs {
				st.tier.MarkDead(tref)
			}
			return 0
		}
		// 3. Journal the survivor so a crash between here and the
		// link cannot lose it, then link it into the chain.
		cl.f.PersistUint64(journalOff(cl.group), uint64(surv))
		cu.log.LinkAtHead(cl.f, surv)
		// 4. Repoint the index (CAS: a concurrent update wins and the
		// survivor copy simply becomes garbage).
		for i, idx := range liveIdx {
			s := &entries[idx]
			size := s.e.EncodedSize()
			st.usage.account(surv, cu.log, cu.owner, size)
			if s.e.Op == oplog.OpPut {
				oc := st.cores[st.CoreOf(s.e.Key)]
				oc.idxMu.Lock()
				moved := oc.idx.CompareAndSwapRef(s.e.Key, s.off, offs[i])
				oc.idxMu.Unlock()
				if !moved {
					st.usage.markDead(surv, size)
				}
			}
			cl.relocated++
		}
	}

	// 4b. Repoint demoted keys at their durable cold copies (the
	// segment is already renamed and fsynced — a crash from here on
	// finds the record in exactly one tier, never zero: either the CAS
	// didn't persist anywhere (index is volatile, recovery replays the
	// PM entry) or it did and recovery rebuilds the cold ref from the
	// segment footer). A failed CAS means a concurrent writer
	// superseded the key: the cold copy is immediately dead and the
	// victim entry is reclassified as a plain stale Put.
	for j, i := range demoteIdx {
		s := &entries[i]
		tref := trefs[j]
		oc := st.cores[st.CoreOf(s.e.Key)]
		oc.idxMu.Lock()
		if oc.idx.CompareAndSwapRef(s.e.Key, s.off, tref) {
			s.demoted = true
			// The victim's PM entry is now stale (no longer the index
			// target); the guard count is released in applyDropped
			// once the victim is unlinked, exactly like any stale Put.
			m := oc.reg[s.e.Key]
			if m == nil {
				m = &keyMeta{lastVer: s.e.Version}
				oc.reg[s.e.Key] = m
			}
			m.stale++
			if !s.e.Inline {
				// The out-of-place record is only reachable through
				// the victim entry now; hand the free to the core that
				// owns its chunk (class chunks are single-writer).
				st.al.FreeRemote(s.e.Ptr, record.Size(len(demoteRecs[j].Val)), cl.f)
			}
		} else {
			st.tier.MarkDead(tref)
			s.live = false
		}
		oc.idxMu.Unlock()
	}

	// 5. Unlink and free the victim; readers are excluded only for the
	// brief moment the chunk returns to the pool.
	if err := cu.log.Unlink(cl.f, victim); err != nil {
		// The survivor is already linked, so the journal slot has done
		// its job; left set, it would outlive this attempt and could
		// point at a freed-and-reused chunk by the next crash. The
		// registry is untouched: the victim (and its stale Puts) stays
		// in the chain, so the guard counts still hold.
		cl.f.PersistUint64(journalOff(cl.group), 0)
		cl.f.FlushEvents()
		st.obs.NoteGC(0, cl.relocated-r0, cl.dropped-d0)
		return len(entries)
	}
	// 6. The victim's entries have left the log for good: apply the
	// deferred registry effects of the dropped ones.
	cl.applyDropped(entries)
	st.reclaimMu.Lock()
	st.al.FreeRawChunk(victim, cl.f)
	st.reclaimMu.Unlock()
	st.usage.drop(victim)
	// 7. Clear the journal slot.
	cl.f.PersistUint64(journalOff(cl.group), 0)
	cl.f.FlushEvents()
	cl.cleaned++
	st.obs.NoteGC(1, cl.relocated-r0, cl.dropped-d0)
	return len(entries)
}

// applyDropped applies the registry effects of the entries that left the
// log: a stale Put decrements the tombstone-guard count, and a fully
// superseded tombstone releases its registry slot. A demoted Put is a
// stale Put whose current copy lives in the cold tier — it releases the
// guard count taken at the demote CAS. Conditions are rechecked under
// the lock — the request path may have moved a key on since
// classification.
func (cl *Cleaner) applyDropped(entries []scanned) {
	st := cl.st
	for i := range entries {
		s := &entries[i]
		if s.live && !s.demoted {
			continue
		}
		if s.demoted {
			cl.demoted++
		} else {
			cl.dropped++
		}
		oc := st.cores[st.CoreOf(s.e.Key)]
		oc.idxMu.Lock()
		m := oc.reg[s.e.Key]
		switch s.e.Op {
		case oplog.OpPut:
			if m != nil {
				m.stale--
				if m.stale <= 0 && !m.deleted {
					delete(oc.reg, s.e.Key)
				}
			}
		case oplog.OpDelete:
			// The tier guard is rechecked too: releasing the slot while
			// a segment bloom still admits the key would let recovery
			// resurrect an older cold record.
			if m != nil && m.deleted && m.lastVer == s.e.Version && m.stale <= 0 &&
				(st.tier == nil || !st.tier.MayContain(s.e.Key)) {
				delete(oc.reg, s.e.Key)
			}
		}
		oc.idxMu.Unlock()
	}
	n := 0
	for i := range entries {
		if entries[i].demoted {
			n++
		}
	}
	if n > 0 {
		st.tier.NoteDemoted(n)
	}
}
