package core

import (
	"cmp"
	"slices"

	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/tier"
)

// Cleaner is one HB group's log cleaner (§3.4). A pass compacts: it takes
// the emptiest closed chunks of the group's logs whose live entries together
// fit one chunk, copies those entries into ONE survivor chunk, journals and
// links the survivor, repoints the volatile index with CAS, and unlinks and
// frees every victim — N chunks back for one taken, without blocking the
// request path. One cleaner runs per group, so log recycling proceeds in
// parallel across groups. DESIGN.md §3.6 has the policy and the crash walk.
type Cleaner struct {
	st     *Store
	group  int
	coreLo int // cores [coreLo, coreHi) belong to this group
	coreHi int
	f      *pmem.Flusher

	passes    uint64 // passes that freed at least one chunk
	cleaned   uint64 // chunks reclaimed
	relocated uint64 // live entries copied
	dropped   uint64 // dead entries discarded
	demoted   uint64 // live entries moved to the cold tier

	// Scratch, kept across passes. The picker runs on every idle poll of
	// the cleaner loop (≈20 k/s) and must allocate nothing; a pass scans
	// up to a million entries and keeps only the live ones, at most one
	// survivor's worth, and allocates nothing per entry.
	tails      []int64        // tail chunk of each group core's log
	cands      []candidate    // the picker's candidates; a pass's victims are a prefix
	entries    []scanned      // every victim's live entries, victim after victim
	live       []*oplog.Entry // the survivor's entries; they point into entries
	demoteIdx  []int
	demoteRecs []tier.Rec
}

// newCleaner builds the cleaner for group g.
func (st *Store) newCleaner(g int) *Cleaner {
	lo := g * st.cfg.GroupSize
	n := st.groups[g].Size()
	return &Cleaner{st: st, group: g, coreLo: lo, coreHi: lo + n, f: st.arena.NewFlusher(), tails: make([]int64, n)}
}

// NewCleaner exposes cleaner construction for the simulator and tools.
func (st *Store) NewCleaner(group int) *Cleaner { return st.newCleaner(group) }

// CleanerStats reports a cleaner's progress.
type CleanerStats struct {
	Passes    uint64
	Cleaned   uint64
	Relocated uint64
	Dropped   uint64
	Demoted   uint64
}

// Stats snapshots the cleaner counters.
func (cl *Cleaner) Stats() CleanerStats {
	return CleanerStats{Passes: cl.passes, Cleaned: cl.cleaned, Relocated: cl.relocated, Dropped: cl.dropped, Demoted: cl.demoted}
}

// Flusher exposes the cleaner's flusher (simulator cost accounting).
func (cl *Cleaner) Flusher() *pmem.Flusher { return cl.f }

// candidate is a closed chunk the cleaner may take, and — once a pass has
// scanned it — where its entries are.
type candidate struct {
	chunk int64
	owner int   // core whose log holds it
	total int64 // entry bytes ever appended
	live  int64 // of those, bytes a recovery still needs
	// entries[lo:hi] are the chunk's live entries (set by the pass).
	lo, hi int
}

// lowSpaceRatio replaces GC.DeadRatio while fewer than GC.MinFreeChunks
// chunks are writable.
const lowSpaceRatio = 0.05

// pickVictims selects the chunks one pass takes, from the closed chunks of
// this group's logs, or nil when no pass is worth running.
//
// A chunk is a candidate when its reclaimable share of a WHOLE chunk —
// 1 − live/capacity, not dead/written — reaches GC.DeadRatio (lowSpaceRatio
// while space is low), so a survivor that came out a third full is as
// cleanable as a chunk that was filled and is two thirds dead. Candidates
// are taken emptiest first (ties by offset: the order is a function of the
// table, and the paper mode's output with it) for as long as their live
// bytes fit one survivor chunk; passSize then decides whether that pass
// runs.
//
// Under tier demotion pressure any closed chunk qualifies — an all-live
// arena has nothing dead to drop, so the only way to free space is to move
// live data down a tier — and the pass takes the one dirtiest chunk.
func (cl *Cleaner) pickVictims() (victims []candidate, demote bool) {
	st := cl.st
	writable := st.al.WritableChunks()
	lowSpace := writable < st.cfg.GC.MinFreeChunks
	// Demote cold live entries to the disk tier instead of merely relocating
	// them: a tier is configured and the chunks writers can still take have
	// fallen below the demotion watermark (or the harder low-space floor).
	demote = st.tier != nil && (lowSpace || writable < st.cfg.Tier.DemoteFreeChunks)
	ratio := st.cfg.GC.DeadRatio
	if lowSpace {
		ratio = lowSpaceRatio
	}
	maxLive := int64((1 - ratio) * oplog.SurvivorCapacity)
	cands := cl.cands[:0]
	for i := range st.usage {
		owner, total, live := st.usage.load(i)
		if owner < cl.coreLo || owner >= cl.coreHi || total == 0 || (!demote && live > maxLive) {
			continue // another group's, empty, or over the bar
		}
		cands = append(cands, candidate{chunk: int64(i) * pmem.ChunkSize, owner: owner, total: total, live: live})
	}
	// Never the chunk being appended to. The tails are read after the
	// slots: a chunk is its log's tail before its first entry is accounted,
	// so a slot seen owned belongs to the tail read now, or to a chunk that
	// has been closed since.
	for i := range cl.tails {
		cl.tails[i] = st.cores[cl.coreLo+i].log.TailChunk()
	}
	cands = slices.DeleteFunc(cands, func(c candidate) bool { return c.chunk == cl.tails[c.owner-cl.coreLo] })
	cl.cands = cands
	if demote {
		// The one dirtiest chunk: the smallest live share, the lowest
		// offset among equals.
		best := 0
		for i := range cands {
			if cands[i].live*cands[best].total < cands[best].live*cands[i].total {
				best = i
			}
		}
		return cands[best:min(best+1, len(cands))], true
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.live, b.live), cmp.Compare(a.chunk, b.chunk))
	})
	return cands[:passSize(cands, int64((1-st.cfg.GC.DeadRatio)*oplog.SurvivorCapacity), lowSpace)], false
}

// maxPassBytes bounds the entry bytes one pass scans: four full chunks,
// what it takes to fill a survivor from victims a quarter live. The
// cleaner's scratch keeps only live entries, so one survivor bounds it.
const maxPassBytes = 4 * oplog.SurvivorCapacity

// passSize decides how many of cands — sorted emptiest first — one pass
// takes. A pass must free at least one chunk net and must not manufacture
// its own next victim: a survivor that is neither full nor still a
// candidate is space nobody will come back for, which is how the log's
// footprint used to follow the bytes ever written instead of the bytes
// alive. So:
//
//   - candidates with nothing live cost no survivor and are always taken;
//   - beyond them a pass needs two victims with live entries (one would only
//     move its entries into an equally empty chunk), and either the next
//     candidate no longer fits — the survivor is as full as the candidates
//     allow — or the survivor comes out at most stay bytes full, so it is a
//     candidate again and a later pass tops it up;
//   - while space is low any pass with a net gain runs.
func passSize(cands []candidate, stay int64, lowSpace bool) int {
	var n, dead int
	var live, scan int64
	for ; n < len(cands); n++ {
		c := &cands[n]
		if live+c.live > oplog.SurvivorCapacity || scan+c.total > maxPassBytes {
			break
		}
		live, scan = live+c.live, scan+c.total
		if live == 0 {
			dead = n + 1
		}
	}
	if n-dead >= 2 && (lowSpace || n < len(cands) || live <= stay) {
		return n
	}
	return dead
}

// scanned is one live victim entry. A live Put may additionally be
// demoted: its value moved to the cold tier, the index repointed at the
// segment, and the PM entry (plus its out-of-place record) reclaimed with
// the victim instead of being relocated.
type scanned struct {
	off     int64
	e       oplog.Entry
	demote  bool // a cold copy was written; the entry is not relocated
	demoted bool // ... and the index now names the cold copy
}

// CleanOnce runs at most one cleaning pass. It returns the number of
// entries processed (0 when there was nothing worth cleaning), so callers
// can back off when idle.
//
// CleanOnce is idempotent up to its commit point: classification is
// read-only and every registry mutation is deferred until the survivor
// chunk is durably linked and the entries' victim unlinked, so a failure
// anywhere before that (survivor out of space, unlink refusal) leaves the
// store exactly as found and the same victims can be retried. Decrementing
// the tombstone-guard counts eagerly and then retrying would
// double-decrement them, reclaim a tombstone while an older Put for its key
// is still in the log, and resurrect the deleted key on the next crash
// recovery.
func (cl *Cleaner) CleanOnce() int {
	st := cl.st
	victims, demote := cl.pickVictims()
	if len(victims) == 0 {
		return 0
	}
	// Metrics deltas: cleaners are one-per-group but share the registry's
	// GC counters, so progress is published via atomic adds at the exit.
	c0, r0, d0 := cl.cleaned, cl.relocated, cl.dropped

	// 1. Scan the victims, classify each entry under the owning core's
	// index lock as the scan delivers it (read-only: registry effects apply
	// in step 5) and keep only the live ones, so the scratch holds at most
	// one survivor's worth. The table's live bytes can lag the truth by an
	// entry or two, so the pass is cut where the classified live bytes stop
	// fitting a chunk.
	entries := cl.entries[:0]
	var liveBytes int64
	nv, scannedN := 0, 0
	for _, v := range victims {
		v.lo = len(entries)
		n, bytes := 0, int64(0)
		err := oplog.ScanChunk(st.arena, v.chunk, st.cores[v.owner].log.Tail(), func(off int64, e oplog.Entry) bool {
			n++
			oc := st.cores[st.CoreOf(e.Key)]
			oc.idxMu.Lock()
			var live bool
			switch e.Op {
			case oplog.OpPut:
				ref, _, ok := oc.idx.Get(e.Key)
				live = ok && ref == off
			case oplog.OpDelete:
				// A tombstone stays live while it guards something. Its
				// stale Puts may sit in another victim of this very pass:
				// it is still relocated then, and dies one pass later.
				m := oc.reg[e.Key]
				live = m.deleted && m.lastVer == e.Version && st.guarded(e.Key, m)
			}
			oc.idxMu.Unlock()
			if live {
				entries = append(entries, scanned{off: off, e: e})
				bytes += int64(e.EncodedSize())
			}
			return liveBytes+bytes <= oplog.SurvivorCapacity
		})
		if err != nil {
			entries = entries[:v.lo] // unreadable: the scrubber's business
			continue
		}
		if liveBytes+bytes > oplog.SurvivorCapacity {
			entries = entries[:v.lo]
			break
		}
		v.hi = len(entries)
		liveBytes += bytes
		scannedN += n
		victims[nv] = v
		nv++
	}
	cl.entries = entries
	victims = victims[:nv]
	if nv == 0 {
		return 0
	}

	// 2a. Under tier pressure, peel live Puts off into a demote set and
	// write them to a cold segment BEFORE the survivor chunk. The tier
	// write commits nothing — the index still points at the victim — so
	// a failed or torn segment write leaves PM state untouched and the
	// entries simply fall back to relocation. A record whose value
	// cannot be materialized with a clean CRC is never demoted (the
	// cold copy would launder corruption into a valid-looking segment);
	// it relocates as-is and the read path quarantines it.
	demoteIdx, demoteRecs := cl.demoteIdx[:0], cl.demoteRecs[:0]
	if demote {
		for i := range entries {
			s := &entries[i]
			if s.e.Op != oplog.OpPut {
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
	cl.demoteIdx, cl.demoteRecs = demoteIdx, demoteRecs
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
	for _, i := range demoteIdx {
		entries[i].demote = true
	}

	// 2b. Copy the remaining live entries of every victim into one
	// survivor chunk, linked into the first victim's log, and persist it.
	live := cl.live[:0]
	var survBytes int
	for i := range entries {
		if s := &entries[i]; !s.demote {
			live = append(live, &s.e)
			survBytes += s.e.EncodedSize()
		}
	}
	cl.live = live
	if len(live) > 0 {
		log := st.cores[victims[0].owner].log
		surv, offs, err := log.WriteSurvivorChunk(cl.f, live)
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
		log.LinkAtHead(cl.f, surv)
		// 4. Repoint the index (CAS: a concurrent update wins and the
		// survivor copy simply becomes garbage) and, for a tombstone, the
		// registry's note of where it sits. The survivor is accounted
		// first: a write that supersedes a repointed key marks it dead in
		// the survivor at once.
		st.usage.account(surv, victims[0].owner, survBytes)
		i := 0
		for idx := range entries {
			s := &entries[idx]
			if s.demote {
				continue
			}
			oc := st.cores[st.CoreOf(s.e.Key)]
			oc.idxMu.Lock()
			moved := false
			if s.e.Op == oplog.OpPut {
				moved = oc.idx.CompareAndSwapRef(s.e.Key, s.off, offs[i])
			} else if m, ok := oc.reg[s.e.Key]; ok && m.tombOff == s.off {
				m.tombOff, moved = offs[i], true
				oc.reg[s.e.Key] = m
			}
			oc.idxMu.Unlock()
			if !moved {
				st.usage.markDead(surv, s.e.EncodedSize())
			}
			i++
		}
		cl.relocated += uint64(len(live))
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
			// target); the guard count is released in step 5 once
			// the victim is unlinked, exactly like any stale Put.
			m, ok := oc.reg[s.e.Key]
			if !ok {
				m.lastVer = s.e.Version
			}
			m.stale++
			oc.reg[s.e.Key] = m
			if !s.e.Inline {
				// The out-of-place record is only reachable through
				// the victim entry now; hand the free to the core that
				// owns its chunk (class chunks are single-writer).
				st.al.FreeRemote(s.e.Ptr, record.Size(len(demoteRecs[j].Val)), cl.f)
			}
		} else {
			st.tier.MarkDead(tref) // the entry drops as a stale Put
		}
		oc.idxMu.Unlock()
	}

	// 5. Victim by victim: unlink it from its own log, apply the deferred
	// registry effects of its dropped entries — only now have they left
	// the log for good — and free it. A crash between two victims leaves
	// the later ones in their chains beside the survivor: equal-version
	// copies of one write, which replay resolves to either. The dropped
	// entries are the ones step 1 did not keep, plus the demoted: a second
	// walk over the victim, whose bytes stay intact until it is freed,
	// meets them in the offset order the kept ones are in.
	for i := range victims {
		v := &victims[i]
		if err := st.cores[v.owner].log.Unlink(cl.f, v.chunk); err != nil {
			// This victim and the ones after it stay in their chains (and
			// their stale Puts with them, so the guard counts still hold).
			break
		}
		// The bytes passed step 1's scan unchanged, so the walk cannot
		// fail; one cut short would leave guard counts high, which only
		// keeps tombstones longer.
		kept, demoted := entries[v.lo:v.hi], 0
		_ = oplog.ScanChunk(st.arena, v.chunk, st.cores[v.owner].log.Tail(), func(off int64, e oplog.Entry) bool {
			if len(kept) > 0 && kept[0].off == off {
				k := &kept[0]
				kept = kept[1:]
				if !k.demote {
					return true // relocated: the survivor holds it now
				}
				if k.demoted {
					demoted++
					cl.drop(off, &e)
					return true
				}
			}
			cl.dropped++
			cl.drop(off, &e)
			return true
		})
		if demoted > 0 {
			cl.demoted += uint64(demoted)
			st.tier.NoteDemoted(demoted)
		}
		// The slot goes before the chunk: once the chunk is in the pool
		// its next owner may account into it.
		st.usage.drop(v.chunk)
		// Readers are excluded only for the brief moment the chunk
		// returns to the pool.
		st.reclaimMu.Lock()
		st.al.FreeRawChunk(v.chunk, cl.f)
		st.reclaimMu.Unlock()
		cl.cleaned++
	}
	// 6. Clear the journal slot. The survivor is linked, so the slot has
	// done its job even when an unlink refused; left set, it would outlive
	// this pass and could point at a freed-and-reused chunk by the next
	// crash.
	cl.f.PersistUint64(journalOff(cl.group), 0)
	cl.f.FlushEvents()
	if cl.cleaned > c0 {
		cl.passes++
	}
	st.obs.NoteGC(cl.cleaned-c0, cl.relocated-r0, cl.dropped-d0)
	return scannedN
}

// drop applies the registry effects of an entry that left the log with its
// victim: a stale Put decrements the tombstone-guard count, and a fully
// superseded tombstone releases its registry slot. A demoted Put is a stale
// Put whose current copy lives in the cold tier — it releases the guard
// count taken at the demote CAS. Conditions are rechecked under the lock —
// the request path may have moved a key on since classification.
func (cl *Cleaner) drop(off int64, e *oplog.Entry) {
	st := cl.st
	oc := st.cores[st.CoreOf(e.Key)]
	oc.idxMu.Lock()
	m, ok := oc.reg[e.Key]
	switch {
	case !ok:
	case e.Op == oplog.OpPut:
		m.stale--
		if m.stale <= 0 && !m.deleted {
			delete(oc.reg, e.Key)
		} else {
			// The last stale Put of a deleted key: its tombstone,
			// wherever it sits, has nothing left to guard.
			st.settleTombstone(e.Key, &m)
			oc.reg[e.Key] = m
		}
	case e.Op == oplog.OpDelete:
		if m.tombOff == off {
			m.tombOff = 0 // it left the log with the victim
		}
		// The guard is rechecked, the tier's too: releasing the slot
		// while a segment bloom still admits the key would let recovery
		// resurrect an older cold record.
		if m.deleted && m.lastVer == e.Version && !st.guarded(e.Key, m) {
			delete(oc.reg, e.Key)
		} else {
			oc.reg[e.Key] = m
		}
	}
	oc.idxMu.Unlock()
}
