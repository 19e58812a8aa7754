package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"flatstore/internal/alloc"
	"flatstore/internal/index"
	"flatstore/internal/index/masstree"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/rpc"
	"flatstore/internal/tier"
)

// Open rebuilds a Store from an existing arena (cfg.Arena is required):
// after a clean shutdown it loads the checkpointed index and trusts the
// flushed bitmaps; after a crash it replays every OpLog, rebuilding the
// volatile index, the per-key version registry, the chunk usage table,
// and the allocator bitmaps from log pointers alone (§3.5).
func Open(cfg Config) (*Store, error) {
	if cfg.Arena == nil {
		return nil, fmt.Errorf("core: Open requires cfg.Arena")
	}
	arena := cfg.Arena
	if magic := arena.ReadUint64(offMagic); magic != superMagic {
		if magic>>16 == superMagic>>16 {
			return nil, fmt.Errorf("%w: image is version %d, this build reads version %d",
				ErrFormatVersion, magic&0xffff, uint64(superMagic)&0xffff)
		}
		return nil, fmt.Errorf("core: arena has no FlatStore superblock")
	}
	stored := int(arena.ReadUint64(offCores))
	if cfg.Cores == 0 {
		cfg.Cores = stored
	} else if cfg.Cores != stored {
		return nil, fmt.Errorf("core: arena was formatted for %d cores, config says %d", stored, cfg.Cores)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, arena: arena, super: arena.NewFlusher()}
	st.repl.f = arena.NewFlusher()
	if err := st.resetVolatile(); err != nil {
		return nil, err
	}
	// The cold tier opens before either recovery path: crash replay
	// rebuilds tier-resident index entries from segment footers, and the
	// clean path's checkpoint may hold cold refs that must resolve.
	if err := st.openTier(!cfg.Salvage); err != nil {
		return nil, err
	}

	clean := arena.ReadUint64(offFlag) == flagClean
	var err error
	if clean {
		err = st.openClean()
		if err != nil && cfg.Salvage {
			// The clean-shutdown state (checkpoint blob or a log chain)
			// is unusable — rot can hit a cleanly-closed arena too. Throw
			// away whatever openClean half-built and rebuild everything
			// from the logs in salvage mode.
			if rerr := st.resetVolatile(); rerr != nil {
				return nil, rerr
			}
			err = st.openCrash()
		}
	} else {
		err = st.openCrash()
	}
	if err != nil {
		return nil, err
	}
	// Everything replayed is now the store's state: witness it, so rot in
	// a batch that was the unwitnessed tail of this recovery is loud at
	// the next one.
	for _, c := range st.cores {
		c.log.PersistWitness(st.super)
	}
	// Reset the flag: any future abrupt stop must trigger log replay
	// ("firstly checks and reset the state of this flag", §3.5).
	st.super.PersistUint64(offFlag, flagDirty)
	st.super.FlushEvents()
	st.AttachTransport(rpc.NewServer(cfg.Cores, 0))
	return st, nil
}

// resetVolatile builds every volatile structure (allocator, groups, cores,
// indexes, usage table) empty: the skeleton New and Open start from, and
// what a failed openClean is reset to so it can be retried as a crash
// recovery without inheriting half-loaded state. The cores get their logs
// from the caller.
func (st *Store) resetVolatile() error {
	// One allocation context per core plus a reserved one for checkpoint
	// blocks (runtime checkpointing must not race a core's own allocator).
	st.al = alloc.New(st.arena, 1, st.arena.Chunks()-1, st.cfg.Cores+1)
	st.ckptCa = st.al.Core(st.cfg.Cores)
	st.usage = make(usageTable, st.arena.Chunks())
	if st.cfg.Index == IndexMasstree {
		st.tree = masstree.New()
	}
	st.groups = nil
	st.buildGroups()
	if st.cfg.GC.Enabled {
		// One chunk per cleaner: a pass writes its survivor chunk before it
		// frees its victims, so the foreground must not take the last one.
		st.al.Reserve(len(st.groups))
	}
	st.cores = nil
	for i := 0; i < st.cfg.Cores; i++ {
		c, err := st.newCore(i)
		if err != nil {
			return err
		}
		st.cores = append(st.cores, c)
	}
	return nil
}

// ErrFormatVersion reports an arena image written in another version of
// the persistent format. There is no converter: the image has to be read
// by a build of its own version.
var ErrFormatVersion = errors.New("core: unsupported persistent-format version")

// ErrCorruptMedia reports that non-salvage recovery met at-rest media
// corruption it will not repair. Opening the same arena again with
// Config.Salvage set truncates, quarantines, and reports instead.
var ErrCorruptMedia = errors.New("core: media corruption detected")

// openCrash is the log-replay path. In salvage mode (cfg.Salvage) it
// additionally repairs media corruption: each log is truncated at its
// first invalid batch, chunks past the cut are dropped (their verified
// entries checked against live state first), and every key whose last
// acknowledged write was lost or cast into doubt is quarantined rather
// than silently served stale or resurrected with garbage.
func (st *Store) openCrash() error {
	arena, al := st.arena, st.al
	salvage := st.cfg.Salvage
	rep := &SalvageReport{}
	al.BeginRecovery()

	// Rebuild each core's log chain; this re-marks the chain's chunks
	// with the allocator. Salvage repairs structural chain damage instead
	// of failing; a lost chain leaves a nil log, replaced by a fresh one
	// once allocator recovery finishes.
	damage := make([]oplog.ChainDamage, st.cfg.Cores)
	inChain := map[int64]bool{}
	for i, c := range st.cores {
		if salvage {
			c.log, damage[i] = oplog.RecoverSalvage(arena, al, coreMetaOff(i))
		} else {
			log, err := oplog.Recover(arena, al, coreMetaOff(i))
			if err != nil {
				return fmt.Errorf("core %d: %w", i, err)
			}
			c.log = log
		}
		if c.log != nil {
			for _, ch := range c.log.Chunks() {
				inChain[ch] = true
			}
		}
	}

	// A runtime checkpoint (§3.5) seeds the index and registry so the
	// replay below skips index insertions for unchanged keys — the CPU
	// cost that dominates large recoveries. The log is still scanned in
	// full, and entries replay with >= version semantics: stale
	// checkpoint references (e.g. to chunks the cleaner freed after the
	// snapshot) are repaired by the surviving same-version copies.
	seeded := false
	if salvage {
		// Salvage replays from verified log batches alone: a checkpoint
		// could seed references into regions the truncation below drops,
		// and disentangling stale seeds from lost data is not worth the
		// recovery speedup on this exceptional path. Dropping the
		// descriptor leaves the blob unmarked, so FinishRecovery reclaims
		// its storage.
		if arena.ReadUint64(offCkpt) != 0 || arena.ReadUint64(offCkpt+8) != 0 {
			rep.CheckpointDropped = true
			st.super.PersistUint64(offCkpt, 0)
			st.super.PersistUint64(offCkpt+8, 0)
		}
	} else if ptr := int64(arena.ReadUint64(offCkpt)); ptr != 0 {
		length := int(arena.ReadUint64(offCkpt + 8))
		// The descriptor can be torn (a crash between its length and
		// pointer updates), so bounds-check before slicing and let the
		// checksum reject mismatched halves.
		if length > 0 && ptr > 0 && ptr+int64(length) <= int64(arena.Size()) {
			// Cold index triples are dropped from a crash seed: tier
			// compaction between the checkpoint and the crash may have
			// rewritten or removed the segments they name, and unlike PM
			// refs there is no same-version log copy to repair them. The
			// footer replay below re-establishes every live cold ref.
			if err := st.loadCheckpoint(arena.Mem()[ptr:ptr+int64(length)], true); err == nil {
				seeded = true
				// The blob's storage must survive as a live allocation:
				// the descriptor still references it, and the next
				// Checkpoint will free it through the allocator. If the
				// mark dangles (the backing chunk header rotted even
				// though the blob's CRC held), keep the seed but drop the
				// descriptor: a later free through rotted accounting
				// would corrupt another chunk's bookkeeping.
				if al.RecoverMark(ptr, length) == alloc.MarkDangling {
					st.super.PersistUint64(offCkpt, 0)
					st.super.PersistUint64(offCkpt+8, 0)
				}
				// Chunk usage is rebuilt from the scan, not trusted
				// from the snapshot.
				st.usage.reset()
			}
		}
		if !seeded {
			// Torn or overwritten checkpoint: drop the descriptor so a
			// later Checkpoint cannot free (nor a later recovery load)
			// a block that was never re-marked.
			st.super.PersistUint64(offCkpt, 0)
			st.super.PersistUint64(offCkpt+8, 0)
		}
	}

	// The replay parallelizes the way the paper's 40 s / 10⁹-item figure
	// requires ("the server cores need to rebuild the in-memory index …
	// by scanning their OpLogs", §3.5):
	//
	//   phase A — one goroutine per log scans its chunk chain, accounts
	//   chunk usage, and shards the entries by the core that owns each
	//   key (horizontal batching puts entries for any key into any log);
	//
	//   phase B — one goroutine per owner core replays its shards into its
	//   own index and registry. Version comparison makes the cross-
	//   scanner interleaving irrelevant (equal-version duplicates are GC
	//   relocation copies with identical content).
	//
	// coreFix is the per-log repair plan phase A's scan produces. Its
	// quarantine candidates come from data salvage drops: trusted ones were
	// decoded from verified batches in dropped chunks; suspects are
	// best-effort decodes of corrupt regions whose every field is suspect.
	type coreFix struct {
		truncateAt int64         // cut the log here (-1: no cut)
		trusted    []oplog.Entry // verified entries from chunks past the cut
		suspects   []oplog.Entry // decodes from corrupt regions
	}
	ncores := st.cfg.Cores
	// shardTo files a log entry under the core that owns its key.
	shardTo := func(byOwner [][]keyRef, off int64, e oplog.Entry) {
		owner := st.CoreOf(e.Key)
		byOwner[owner] = append(byOwner[owner], keyRef{key: e.Key, ref: off, ver: e.Version, del: e.Op == oplog.OpDelete})
	}
	shards := make([][][]keyRef, ncores) // [scanner][owner]
	errs := make([]error, ncores)
	fixes := make([]coreFix, ncores)
	var wg sync.WaitGroup
	for i := range st.cores {
		shards[i] = make([][]keyRef, ncores)
		fixes[i].truncateAt = -1
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := st.cores[i]
			if c.log == nil {
				return // salvage: chain lost, nothing to scan
			}
			fix := &fixes[i]
			tail := c.log.Tail()
			chunks := c.log.Chunks()
			for k, ch := range chunks {
				chunk := ch
				deliver := func(off int64, e oplog.Entry) bool {
					st.usage.account(chunk, i, e.EncodedSize())
					shardTo(shards[i], off, e)
					return true
				}
				if !salvage {
					if err := oplog.ScanChunk(arena, chunk, tail, deliver); err != nil {
						errs[i] = fmt.Errorf("core %d chunk %#x: %w", i, chunk, err)
						return
					}
					continue
				}
				sv := oplog.SalvageChunk(arena, chunk, tail, deliver)
				if sv.CorruptAt >= 0 {
					// ISSUE contract: the log is cut at its first invalid
					// batch. Everything already delivered stays; the corrupt
					// region and all later chunks are dropped — but first
					// harvest them, so writes that only lived there can be
					// quarantined instead of silently rolled back.
					fix.truncateAt = sv.CorruptAt
					fix.suspects = append(fix.suspects, sv.Suspects...)
					for _, dch := range chunks[k+1:] {
						dsv := oplog.SalvageChunk(arena, dch, tail, func(_ int64, e oplog.Entry) bool {
							fix.trusted = append(fix.trusted, e)
							return true
						})
						fix.suspects = append(fix.suspects, dsv.Suspects...)
					}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Journaled survivor chunks that never made it into a chain hold
	// duplicates of entries that still exist elsewhere; shard them too
	// (they stay unmarked, so FinishRecovery frees them). Scan every
	// possible journal slot: the group layout may differ from the run
	// that crashed.
	jshard := make([][]keyRef, ncores)
	var extraSuspects []oplog.Entry // journal + orphan-chunk quarantine candidates
	for g := 0; g < MaxCores; g++ {
		ch := int64(arena.ReadUint64(journalOff(g)))
		if ch == 0 {
			continue
		}
		// Clear the slot unconditionally: either the survivor is already
		// in a chain (the crash hit after LinkAtHead) and the journal's
		// protection is no longer needed, or its entries are sharded
		// below. A slot left set would outlive this recovery and could
		// point at a freed-and-reused chunk by the next crash, replaying
		// garbage as survivor entries.
		st.super.PersistUint64(journalOff(g), 0)
		if inChain[ch] || int(ch)%pmem.ChunkSize != 0 || int(ch) >= arena.Size() ||
			!oplog.ValidChunkHeader(arena, ch) {
			continue
		}
		jsv := oplog.SalvageChunk(arena, ch, -1, func(off int64, e oplog.Entry) bool {
			shardTo(jshard, off, e)
			return true
		})
		if salvage {
			// A journal chunk holds duplicates of entries that survive
			// elsewhere, so a corrupt region here normally lost nothing —
			// but the keys are still suspect if their primary copy was
			// also damaged, so harvest them like any corrupt region.
			extraSuspects = append(extraSuspects, jsv.Suspects...)
		}
		// The chunk stays unmarked and FinishRecovery will free it; clear
		// its log magic now so a stale header cannot make the freed chunk
		// look like a salvageable orphan to a future recovery.
		st.super.PersistUint64(int(ch), 0)
	}

	// Cold-tier records replay from segment footers through the same rule
	// as PM entries. Range walks segments in ascending ID (= write order),
	// which is the order replay's first-written-cold-copy-wins relies on.
	tshard := make([][]keyRef, ncores)
	if st.tier != nil {
		st.tier.Range(func(ref int64, key uint64, ver uint32) bool {
			owner := st.CoreOf(key)
			tshard[owner] = append(tshard[owner], keyRef{key: key, ref: ref, ver: ver})
			return true
		})
	}

	for owner := range st.cores {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			oc := st.cores[owner]
			// Tier records go first: a demoted key whose PM copies were
			// all reclaimed exists only in a segment footer.
			for _, r := range tshard[owner] {
				oc.replay(r, seeded)
			}
			for scanner := range shards {
				for _, r := range shards[scanner][owner] {
					oc.replay(r, seeded)
				}
			}
			for _, r := range jshard[owner] {
				oc.replay(r, seeded)
			}
		}(owner)
	}
	wg.Wait()

	// Salvage resolution: apply the repair plan phase A produced, now that
	// the index and registry reflect everything the kept log data says.
	if salvage {
		anyChainDamage := false
		for i, c := range st.cores {
			fix := &fixes[i]
			cs := CoreSalvage{Core: i, Damage: damage[i], TruncatedAt: -1, SuspectEntries: len(fix.suspects)}
			if damage[i].ChainTruncated || damage[i].ChainLost {
				anyChainDamage = true
			}
			if c.log != nil && fix.truncateAt >= 0 {
				dropped, err := c.log.Truncate(st.super, fix.truncateAt)
				if err != nil {
					return fmt.Errorf("core %d: salvage truncation: %w", i, err)
				}
				cs.TruncatedAt = fix.truncateAt
				cs.ChunksDropped = len(dropped)
				for _, dch := range dropped {
					// Release the dropped chunk: unmark it so FinishRecovery
					// pools it, and clear its log magic so its stale bytes
					// cannot be mistaken for a salvageable orphan later.
					al.RecoverUnmarkRawChunk(dch)
					st.super.PersistUint64(int(dch), 0)
					delete(inChain, dch)
					st.usage.drop(dch)
				}
			} else if c.log != nil && damage[i].ChainTruncated {
				// The chain walk stopped at a bad link and the last kept
				// chunk still holds it. The chunk it names goes back to the
				// allocator and may return as another log's chunk, so the
				// cut has to be durable: truncating at the tail found
				// drops nothing and clears that link.
				if _, err := c.log.Truncate(st.super, c.log.Tail()); err != nil {
					return fmt.Errorf("core %d: salvage chain cut: %w", i, err)
				}
			}
			// A slot whose checksum alone failed needs no repair here:
			// Open rewrites every log's slot once recovery has succeeded.
			if cs.Damage.Any() || cs.TruncatedAt >= 0 || cs.SuspectEntries > 0 {
				rep.Cores = append(rep.Cores, cs)
			}
		}

		// Orphan sweep: when a chain broke, the chunks beyond the break
		// are unreachable but may hold the only copy of acknowledged
		// writes. Harvest every valid-looking log chunk that no chain
		// claims, then clear it so the sweep is one-shot.
		if anyChainDamage {
			for ci := int64(1); ci < int64(arena.Chunks()); ci++ {
				off := ci * pmem.ChunkSize
				if inChain[off] || !oplog.ValidChunkHeader(arena, off) {
					continue
				}
				rep.OrphanChunks++
				extraSuspects = append(extraSuspects, oplog.OrphanSuspects(arena, off)...)
				st.super.PersistUint64(int(off), 0)
			}
		}

		// Quarantine resolution. Trusted candidates (verified entries from
		// dropped chunks) are cleared when surviving state already covers
		// their version; untrusted ones (suspect decodes of corrupt
		// regions) quarantine unconditionally — every field, including the
		// version, may be rotted, so no comparison can clear them.
		quarCand := func(key uint64, ver uint32, trusted bool) {
			oc := st.cores[st.CoreOf(key)]
			if hi, _ := oc.lastVersion(key); trusted && hi >= ver {
				// A kept write (or tombstone) covers the dropped one, or the
				// key is quarantined at or above it already.
				return
			}
			oc.quarantineLocked(key, ver) // single-threaded here: lock not needed
		}
		for i := range fixes {
			for _, t := range fixes[i].trusted {
				quarCand(t.Key, t.Version, true)
			}
			for _, s := range fixes[i].suspects {
				quarCand(s.Key, s.Version, false)
			}
		}
		for _, s := range extraSuspects {
			quarCand(s.Key, s.Version, false)
		}

		// Quarantined tier segments (footer rot condemned the whole file)
		// may hide the only copy of demoted keys. Harvest every record
		// whose CRC still verifies — key and version are then reliable, so
		// coverage by surviving state clears them like trusted candidates.
		// Leftover files from earlier salvages are re-harvested on purpose:
		// quarantine state is volatile, and the re-scan restores it across
		// restarts until the keys are overwritten and the files removed.
		if st.tier != nil {
			qfiles, qerr := st.tier.QuarantinedFiles()
			if qerr != nil {
				return qerr
			}
			for _, p := range qfiles {
				b, rerr := os.ReadFile(p)
				if rerr != nil {
					return rerr
				}
				for _, r := range tier.ScanQuarantined(b) {
					quarCand(r.Key, r.Ver, true)
				}
			}
		}
	}

	// Post-pass: re-mark allocator blocks referenced by live entries,
	// finalize stale counts, and derive per-chunk dead bytes. A live
	// reference that no longer decodes to a verifiable record is media
	// rot on the value path: salvage quarantines the key, plain recovery
	// refuses to open.
	liveBytes := map[int64]int64{}
	// coldBest maps key → the best cold copy (highest version; first
	// written wins a tie), used to rescue keys whose seeded PM ref rotted
	// or dangles but whose value was demoted intact. Built from the footer
	// rows collected above, the first time a key needs rescuing.
	var coldBest map[uint64]keyRef
	var badRefs, rescues []keyRef
	condemn := func(key uint64, ver uint32) {
		if coldBest == nil {
			coldBest = map[uint64]keyRef{}
			for _, rows := range tshard {
				for _, t := range rows {
					if a, ok := coldBest[t.key]; !ok || t.ver > a.ver {
						coldBest[t.key] = t
					}
				}
			}
		}
		// Before quarantining, try the cold tier: an exact-version
		// record that verifies end to end can stand in for the lost PM
		// copy. The index repoint is deferred — mutating during Range
		// is not safe.
		if a, ok := coldBest[key]; ok && a.ver == ver {
			if d := st.deref(key, a.ref, nil); d.state == refOK && d.ver == ver {
				rescues = append(rescues, a)
				return
			}
		}
		badRefs = append(badRefs, keyRef{key: key, ver: ver})
	}
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		d := st.deref(key, ref, nil)
		switch {
		case index.Cold(ref):
			// Tier-resident entries verify through the tier's own
			// CRC-checked read path; they reference no arena blocks and
			// contribute no log bytes.
			if d.state != refOK || d.ver != ver {
				badRefs = append(badRefs, keyRef{key: key, ver: ver})
			}
		case d.state != refOK:
			condemn(key, ver)
		case !d.inline && al.RecoverMark(d.ptr, record.Size(len(d.val))) == alloc.MarkDangling:
			condemn(key, ver)
		default:
			liveBytes[chunkOf(ref)] += int64(d.size)
		}
	})
	for _, r := range rescues {
		st.cores[st.CoreOf(r.key)].idx.Put(r.key, r.ref, r.ver)
	}
	if len(badRefs) > 0 {
		if !salvage {
			return fmt.Errorf("%w: %d live records failed integrity verification (first key %#x); reopen with Salvage to quarantine and continue", ErrCorruptMedia, len(badRefs), badRefs[0].key)
		}
		rep.RecordsQuarantined = len(badRefs)
		for _, b := range badRefs {
			st.cores[st.CoreOf(b.key)].quarantineLocked(b.key, b.ver)
		}
	}
	for _, c := range st.cores {
		for key, m := range c.reg {
			// replay counted every PM Put of the key; the one the index
			// names is live, the rest are stale. A key whose index target
			// is a cold ref has no live PM entry.
			if ref, _, ok := c.idx.Get(key); ok && !m.deleted && !index.Cold(ref) {
				m.stale--
			}
			if m.stale <= 0 && !m.deleted {
				delete(c.reg, key)
				continue
			}
			if m.tombOff != 0 {
				// A tombstone is live while it guards something.
				if st.guarded(key, m) {
					liveBytes[chunkOf(m.tombOff)] += oplog.HeaderSize
				} else {
					m.tombOff = 0
				}
			}
			c.reg[key] = m
		}
	}
	for i := range st.usage {
		if owner, total, _ := st.usage.load(i); owner >= 0 {
			st.usage[i].dead.Store(max(total-liveBytes[int64(i)*pmem.ChunkSize], 0))
		}
	}

	rs := al.RecoveryStats()
	al.FinishRecovery()

	if !salvage {
		// Even outside salvage mode the allocator's integrity events are
		// counted, never swallowed (a corrupt chunk header used to be
		// silently treated as free space).
		st.integMu.Lock()
		st.integ.CorruptHeaders += uint64(rs.CorruptHeaders)
		st.integ.DanglingPtrs += uint64(rs.DanglingPtrs)
		st.integMu.Unlock()
		return nil
	}

	// Cores whose chain was lost outright start over with a fresh log
	// (possible only now: the free pool exists after FinishRecovery).
	for i, c := range st.cores {
		if c.log == nil {
			log, err := oplog.New(arena, al, coreMetaOff(i), c.f)
			if err != nil {
				return fmt.Errorf("core %d: fresh log after salvage: %w", i, err)
			}
			c.log = log
		}
	}

	// Persist a tombstone for every quarantined key. The evidence of the
	// loss lives only in this process — the dropped chunks are gone — so
	// without a durable tombstone the next crash would replay the kept
	// older entries and silently resurrect state the client saw
	// superseded. The tombstone's version sits above the quarantine
	// high-water mark; a later Put continues above it.
	for _, c := range st.cores {
		for key, qv := range c.quar {
			ver := qv + 1
			if ver > oplog.VersionMask {
				ver = oplog.VersionMask
			}
			e := &oplog.Entry{Op: oplog.OpDelete, Key: key, Version: ver}
			off, err := c.log.Append(c.f, e)
			if err != nil {
				return fmt.Errorf("core %d: quarantine tombstone: %w", c.id, err)
			}
			c.accountAppend(off, e.EncodedSize())
			c.quar[key] = ver
			m := c.reg[key]
			m.lastVer, m.deleted, m.tombOff = ver, true, off
			st.settleTombstone(key, &m)
			c.reg[key] = m
		}
		c.f.FlushEvents()
	}

	rep.CorruptHeaders = rs.CorruptHeaders
	rep.DanglingPtrs = rs.DanglingPtrs
	for _, c := range st.cores {
		rep.KeysQuarantined += len(c.quar)
	}
	var dropped, crcErrs uint64
	for _, cs := range rep.Cores {
		dropped += uint64(cs.ChunksDropped)
		if cs.TruncatedAt >= 0 {
			crcErrs++
		}
	}
	st.integMu.Lock()
	if !rep.Clean() {
		st.integ.SalvageRuns++
	}
	st.integ.ChunksDropped += dropped
	st.integ.ChecksumErrors += crcErrs + uint64(rep.RecordsQuarantined)
	st.integ.CorruptHeaders += uint64(rs.CorruptHeaders)
	st.integ.DanglingPtrs += uint64(rs.DanglingPtrs)
	st.salvage = rep
	st.integMu.Unlock()
	return nil
}

// openClean is the checkpoint-load path.
func (st *Store) openClean() error {
	arena, al := st.arena, st.al
	// Recover the log chains first so their chunks are re-marked before
	// the allocator trusts the flushed bitmaps.
	for i, c := range st.cores {
		log, err := oplog.Recover(arena, al, coreMetaOff(i))
		if err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
		c.log = log
	}
	al.RecoverFromCleanShutdown()

	ptr := int64(arena.ReadUint64(offCkpt))
	length := int(arena.ReadUint64(offCkpt + 8))
	if ptr <= 0 || length <= 0 || ptr+int64(length) > int64(arena.Size()) {
		return fmt.Errorf("core: clean shutdown flag set but no usable checkpoint")
	}
	if err := st.loadCheckpoint(arena.Mem()[ptr:ptr+int64(length)], false); err != nil {
		return err
	}
	// The checkpoint block is consumed; release it. The blob's content is
	// CRC-verified, but the allocator header or bitmap bit backing it can
	// have rotted independently — freeing through rotted accounting would
	// panic or clobber another chunk's bookkeeping, so validate first and
	// otherwise just drop the descriptor (the block is already untracked).
	if st.al.BlockAllocated(ptr, length) {
		st.ckptCa.Free(ptr, length, st.super)
	}
	st.super.PersistUint64(offCkpt, 0)
	st.super.PersistUint64(offCkpt+8, 0)
	return nil
}

// Close performs the normal shutdown (§3.5): stop serving, persist a
// checkpoint of the volatile index, registry and usage table, flush the
// allocator bitmaps, and set the clean flag. The store must not be used
// afterwards.
func (st *Store) Close() error {
	st.Stop()
	// Flush any ops still in flight.
	for _, c := range st.cores {
		for c.group.HasPending(c.member) || c.PendingCount() > 0 {
			c.TryLead()
			c.DrainCompleted()
		}
		// Release any record blocks still queued by demotions, so the
		// flushed bitmaps don't carry them as allocated across restart.
		c.ca.Drain(c.f)
		c.flushOutbox()
		// After a clean shutdown the witness is the tail.
		c.log.PersistWitness(c.f)
		c.f.FlushEvents()
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	st.al.FlushBitmaps(st.super)
	st.super.PersistUint64(offFlag, flagClean)
	st.super.FlushEvents()
	if st.tier != nil {
		st.tier.Close()
	}
	return nil
}

// Checkpoint format (little-endian u64s):
//
//	magic, ncores,
//	nidx, nidx × (key, ref, version),
//	per core: nreg, nreg × (key, lastVer | deleted<<32 | stale<<33, tombOff),
//	nusage, nusage × (chunk, owner, total, dead),
//	checksum (CRC32C over all preceding bytes)
//
// The checksum lets crash recovery reject a torn or rotted checkpoint
// (e.g. a crash between the descriptor's length and pointer updates, or
// an at-rest bit flip anywhere in the blob) and fall back to plain log
// replay. The magic names the layout: ...2021 put tombOff in the registry
// rows (and stale beside the version), and a blob of another layout is
// refused, not mis-decoded (a crash replay ignores it; an image an older
// build closed cleanly opens with Salvage, which replays the logs).
const ckptMagic = 0xC4_E0_2021

// ckptCastagnoli is the CRC32C table — the same polynomial that guards
// log batches and out-of-place records, typically hardware-accelerated.
var ckptCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ckptChecksum is CRC32C over the blob.
func ckptChecksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, ckptCastagnoli))
}

// buildCheckpoint snapshots the index, registry and usage table under
// every core's index lock, so it is safe under concurrent service.
func (st *Store) buildCheckpoint() []byte {
	st.lockAllIdx()
	defer st.unlockAllIdx()
	var buf []byte
	w := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	w(ckptMagic)
	w(uint64(st.cfg.Cores))

	var triples [][3]uint64
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		triples = append(triples, [3]uint64{key, uint64(ref), uint64(ver)})
	})
	w(uint64(len(triples)))
	for _, t := range triples {
		w(t[0])
		w(t[1])
		w(t[2])
	}
	for _, c := range st.cores {
		w(uint64(len(c.reg)))
		for key, m := range c.reg {
			w(key)
			v := uint64(m.lastVer)
			if m.deleted {
				v |= 1 << 32
			}
			w(v | uint64(max(m.stale, 0))<<33)
			w(uint64(m.tombOff))
		}
	}
	var usage [][4]uint64
	for i := range st.usage {
		if owner, total, live := st.usage.load(i); owner >= 0 {
			usage = append(usage, [4]uint64{uint64(i) * pmem.ChunkSize, uint64(owner), uint64(total), uint64(total - live)})
		}
	}
	w(uint64(len(usage)))
	for _, u := range usage {
		for _, x := range u {
			w(x)
		}
	}
	w(ckptChecksum(buf))
	return buf
}

// loadCheckpoint decodes blob into the (empty) volatile structures. With
// seed set the blob only seeds a crash replay, which re-derives two things
// itself: cold index triples are dropped (the footer replay re-establishes
// every live cold ref), and stale counts and tombstone offsets start at zero
// (replay counts the log's Put entries and finds the tombstones where the
// cleaner has moved them since).
func (st *Store) loadCheckpoint(blob []byte, seed bool) error {
	pos := 0
	r := func() (uint64, bool) {
		if pos+8 > len(blob) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(blob[pos:])
		pos += 8
		return v, true
	}
	bad := fmt.Errorf("core: truncated or corrupt checkpoint")
	if len(blob) < 16 {
		return bad
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if ckptChecksum(body) != sum {
		return bad
	}
	blob = body
	if v, ok := r(); !ok || v != ckptMagic {
		return bad
	}
	if v, ok := r(); !ok || int(v) != st.cfg.Cores {
		return fmt.Errorf("core: checkpoint core count mismatch (config %d)", st.cfg.Cores)
	}
	nidx, ok := r()
	if !ok || int(nidx) > len(blob)/24 {
		return bad
	}
	for i := uint64(0); i < nidx; i++ {
		key, _ := r()
		ref, _ := r()
		ver, ok := r()
		if !ok {
			return bad
		}
		if seed && index.Cold(int64(ref)) {
			continue
		}
		st.cores[st.CoreOf(key)].idx.Put(key, int64(ref), uint32(ver))
	}
	for _, c := range st.cores {
		nreg, ok := r()
		if !ok || int(nreg) > len(blob)/24 {
			return bad
		}
		for i := uint64(0); i < nreg; i++ {
			key, _ := r()
			v, _ := r()
			tomb, ok := r()
			if !ok || tomb >= uint64(st.arena.Size()) {
				return bad
			}
			m := keyMeta{lastVer: uint32(v), deleted: v>>32&1 == 1}
			if !seed {
				m.stale, m.tombOff = int32(v>>33), int64(tomb)
			}
			c.reg[key] = m
		}
	}
	nusage, ok := r()
	if !ok || int(nusage) > len(blob)/32 {
		return bad
	}
	for i := uint64(0); i < nusage; i++ {
		chunk, _ := r()
		owner, _ := r()
		total, _ := r()
		dead, ok := r()
		if !ok || owner >= uint64(len(st.cores)) || chunk/pmem.ChunkSize >= uint64(len(st.usage)) {
			return bad
		}
		st.usage.account(int64(chunk), int(owner), int(total))
		st.usage.markDead(int64(chunk), int(dead))
	}
	return nil
}
