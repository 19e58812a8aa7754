package core

import (
	"errors"
	"fmt"
	"os"
	"slices"
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
// and the allocator bitmaps from log pointers alone (§3.5). Both are runs
// of one pipeline, recoveryPhases.
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
	// The cold tier opens before the pipeline: crash replay rebuilds
	// tier-resident index entries from segment footers, and a clean open's
	// checkpoint may hold cold refs that must resolve.
	if err := st.openTier(!cfg.Salvage); err != nil {
		return nil, err
	}
	clean := arena.ReadUint64(offFlag) == flagClean
	err := st.recover(clean)
	if err != nil && clean && cfg.Salvage {
		// The clean-shutdown state (checkpoint blob or a log chain) is
		// unusable — rot can hit a cleanly-closed arena too. Throw away
		// whatever the clean run half-built and rebuild everything from
		// the logs in salvage mode.
		if err = st.resetVolatile(); err == nil {
			err = st.recover(false)
		}
	}
	if err != nil {
		return nil, err
	}
	st.AttachTransport(rpc.NewServer(cfg.Cores, 0))
	return st, nil
}

// resetVolatile builds every volatile structure (allocator, groups, cores,
// indexes, usage table) empty: the skeleton New and Open start from, and
// what a failed clean open is reset to so it can be retried as a salvage
// open without inheriting half-loaded state. The cores get their logs
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

// openKind is what a run of the recovery pipeline starts from.
type openKind uint8

const (
	cleanOpen   openKind = 1 << iota // what Close left
	crashOpen                        // the logs
	salvageOpen                      // the logs, repairing media rot
)

// recoveryPhases is Open's pipeline (DESIGN.md §3.5), in order.
var recoveryPhases = []struct {
	runs openKind // the opens that run the phase
	run  func(*recovery) error
}{
	{cleanOpen | crashOpen | salvageOpen, (*recovery).logs},
	{cleanOpen | crashOpen | salvageOpen, (*recovery).seed},
	{crashOpen | salvageOpen, (*recovery).segments},
	{crashOpen | salvageOpen, (*recovery).scan},
	{crashOpen | salvageOpen, (*recovery).replay},
	{salvageOpen, (*recovery).salvage},
	{crashOpen | salvageOpen, (*recovery).allocator},
	{cleanOpen | crashOpen | salvageOpen, (*recovery).finish},
}

// recovery is the state one run of the pipeline carries between phases.
type recovery struct {
	st        *Store
	kind      openKind
	damage    []oplog.ChainDamage // logs: per core, salvage only
	inChain   map[int64]bool      // logs: every chunk a chain holds
	seeded    bool                // seed: a checkpoint seeded index and registry
	tshard    [][]keyRef          // segments: footer rows by owning core
	sources   [][][]keyRef        // segments, scan: replay's input, [source][owner]
	fixes     []logFix            // scan: per log, salvage only
	suspects  []oplog.Entry       // scan, salvage: journal and orphan decodes
	rep       *SalvageReport      // salvage only
	liveBytes map[int64]int64     // allocator: live log bytes per chunk
	coldBest  map[uint64]keyRef   // allocator: best cold copy, built on first need
	badRefs   []keyRef            // allocator: live refs that failed to verify
	rescues   []keyRef            // allocator: cold copies standing in for them
	rs        alloc.RecoveryStats // allocator: what FinishRecovery counted
}

// logFix is salvage's repair plan for one log, from phase A's scan.
type logFix struct {
	truncateAt int64         // cut the log here (-1: no cut)
	trusted    []oplog.Entry // verified entries from chunks past the cut
	suspects   []oplog.Entry // decodes from corrupt regions
}

// recover runs the phases of recoveryPhases that its open runs: a clean
// one, else a crash open, which Config.Salvage makes a salvage open.
func (st *Store) recover(clean bool) error {
	r := &recovery{st: st, kind: crashOpen, inChain: map[int64]bool{}, liveBytes: map[int64]int64{}}
	switch {
	case clean:
		r.kind = cleanOpen
	case st.cfg.Salvage:
		r.kind, r.rep = salvageOpen, &SalvageReport{}
	}
	for _, p := range recoveryPhases {
		if p.runs&r.kind == 0 {
			continue
		}
		if err := p.run(r); err != nil {
			return err
		}
	}
	return nil
}

// logs rebuilds each core's log chain, re-marking its chunks with the
// allocator (a crash open first has it forget its bitmaps). Salvage repairs
// chain damage instead of failing; a lost chain leaves a nil log.
func (r *recovery) logs() error {
	st := r.st
	if r.kind != cleanOpen {
		st.al.BeginRecovery()
	}
	r.damage = make([]oplog.ChainDamage, len(st.cores))
	for i, c := range st.cores {
		if r.kind == salvageOpen {
			c.log, r.damage[i] = oplog.RecoverSalvage(st.arena, st.al, coreMetaOff(i))
		} else {
			log, err := oplog.Recover(st.arena, st.al, coreMetaOff(i))
			if err != nil {
				return fmt.Errorf("core %d: %w", i, err)
			}
			c.log = log
		}
		if c.log != nil {
			for _, ch := range c.log.Chunks() {
				r.inChain[ch] = true
			}
		}
	}
	return nil
}

// seed starts the run from the checkpoint. A clean open loads the bitmaps
// Close flushed, then the checkpoint in full, and releases its blob. A
// crash open seeds the index and registry from it, which spares the replay
// the index insertions of unchanged keys — the CPU cost that dominates
// large recoveries (§3.5); stale seeded refs lose to same-version copies.
func (r *recovery) seed() error {
	st := r.st
	// A crash between the descriptor's two words can tear it: check the
	// bounds, and let the checksum reject halves that still fit.
	ptr, n := st.CheckpointDesc()
	var blob []byte
	if ptr > 0 && n > 0 && ptr+int64(n) <= int64(st.arena.Size()) {
		blob = st.arena.Mem()[ptr : ptr+int64(n)]
	}
	switch r.kind {
	case cleanOpen:
		st.al.RecoverFromCleanShutdown()
		if blob == nil {
			return fmt.Errorf("core: clean shutdown flag set but no usable checkpoint")
		}
		if err := st.loadCheckpoint(blob, false); err != nil {
			return err
		}
		// The checkpoint block is consumed; release it. The blob's content
		// is CRC-verified, but the allocator header or bitmap bit backing
		// it can have rotted independently — freeing through rotted
		// accounting would panic or clobber another chunk's bookkeeping,
		// so validate first and otherwise just drop the descriptor (the
		// block is already untracked).
		if st.al.BlockAllocated(ptr, n) {
			st.ckptCa.Free(ptr, n, st.super)
		}
	case salvageOpen:
		// Salvage replays from verified log batches alone: a checkpoint
		// could seed references into regions the truncation drops, and
		// disentangling stale seeds from lost data is not worth the
		// recovery speedup on this exceptional path. Dropping the
		// descriptor leaves the blob unmarked, so FinishRecovery reclaims
		// its storage.
		if ptr == 0 && n == 0 {
			return nil
		}
		r.rep.CheckpointDropped = true
	default:
		if ptr == 0 {
			return nil
		}
		// Cold index triples are dropped from a crash seed: tier compaction
		// between the checkpoint and the crash may have rewritten or
		// removed the segments they name, and unlike PM refs there is no
		// same-version log copy to repair them. The footer replay
		// re-establishes every live cold ref.
		if blob != nil && st.loadCheckpoint(blob, true) == nil {
			r.seeded = true
			// Chunk usage is rebuilt from the scan, not trusted from the
			// snapshot.
			st.usage.reset()
			// The blob's storage must survive as a live allocation: the
			// descriptor still references it, and the next Checkpoint
			// will free it through the allocator. If the mark dangles
			// (the backing chunk header rotted even though the blob's CRC
			// held), keep the seed but drop the descriptor: a later free
			// through rotted accounting would corrupt another chunk's
			// bookkeeping.
			if st.al.RecoverMark(ptr, n) != alloc.MarkDangling {
				return nil
			}
		}
		// Otherwise the checkpoint is torn or overwritten: dropping the
		// descriptor keeps a later Checkpoint from freeing (and a later
		// recovery from loading) a block that was never re-marked.
	}
	st.super.PersistUint64(offCkpt, 0)
	st.super.PersistUint64(offCkpt+8, 0)
	return nil
}

// shardEntry files a log entry under the core that owns its key.
func (st *Store) shardEntry(byOwner [][]keyRef, off int64, e oplog.Entry) {
	owner := st.CoreOf(e.Key)
	byOwner[owner] = append(byOwner[owner], keyRef{key: e.Key, ref: off, ver: e.Version, del: e.Op == oplog.OpDelete})
}

// segments collects the cold tier's footer rows, which replay like PM
// entries. Range walks segments in ascending ID (= write order), the order
// replay's first-written cold copy wins by.
func (r *recovery) segments() error {
	r.tshard = make([][]keyRef, len(r.st.cores))
	if r.st.tier != nil {
		r.st.tier.Range(func(ref int64, key uint64, ver uint32) bool {
			owner := r.st.CoreOf(key)
			r.tshard[owner] = append(r.tshard[owner], keyRef{key: key, ref: ref, ver: ver})
			return true
		})
	}
	r.sources = append(r.sources, r.tshard)
	return nil
}

// scan is phase A of the replay, parallel as the paper's 40 s / 10⁹-item
// figure requires ("the server cores need to rebuild the in-memory index …
// by scanning their OpLogs", §3.5): one goroutine per log scans its chunks,
// accounts chunk usage, and shards the entries by the core that owns each
// key (horizontal batching puts entries for any key into any log).
func (r *recovery) scan() error {
	st, n := r.st, len(r.st.cores)
	logs := make([][][]keyRef, n) // [scanner][owner]
	r.fixes = make([]logFix, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range st.cores {
		logs[i] = make([][]keyRef, n)
		r.fixes[i].truncateAt = -1
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.scanLog(i, logs[i])
		}()
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
	// possible journal slot: the group layout may differ from the run that
	// crashed.
	journal := make([][]keyRef, n)
	for g := 0; g < MaxCores; g++ {
		ch := int64(st.arena.ReadUint64(journalOff(g)))
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
		if r.inChain[ch] || int(ch)%pmem.ChunkSize != 0 || int(ch) >= st.arena.Size() ||
			!oplog.ValidChunkHeader(st.arena, ch) {
			continue
		}
		jsv := oplog.SalvageChunk(st.arena, ch, -1, func(off int64, e oplog.Entry) bool {
			st.shardEntry(journal, off, e)
			return true
		})
		// A journal chunk holds duplicates of entries that survive
		// elsewhere, so a corrupt region here normally lost nothing — but
		// the keys are still suspect if their primary copy was also
		// damaged, so salvage harvests them like any corrupt region.
		r.suspects = append(r.suspects, jsv.Suspects...)
		// Clear the chunk's log magic now so a stale header cannot make
		// the freed chunk look like a salvageable orphan to a future
		// recovery.
		st.super.PersistUint64(int(ch), 0)
	}
	r.sources = append(append(r.sources, logs...), journal)
	return nil
}

// scanLog is phase A for core i's log, sharding its entries into byOwner.
func (r *recovery) scanLog(i int, byOwner [][]keyRef) error {
	st, log := r.st, r.st.cores[i].log
	if log == nil {
		return nil // salvage: chain lost, nothing to scan
	}
	fix, tail, chunks := &r.fixes[i], log.Tail(), log.Chunks()
	for k, chunk := range chunks {
		deliver := func(off int64, e oplog.Entry) bool {
			st.usage.account(chunk, i, e.EncodedSize())
			st.shardEntry(byOwner, off, e)
			return true
		}
		if r.kind != salvageOpen {
			if err := oplog.ScanChunk(st.arena, chunk, tail, deliver); err != nil {
				return fmt.Errorf("core %d chunk %#x: %w", i, chunk, err)
			}
			continue
		}
		if sv := oplog.SalvageChunk(st.arena, chunk, tail, deliver); sv.CorruptAt >= 0 {
			// The log is cut at its first invalid batch. Everything already
			// delivered stays; the corrupt region and all later chunks are
			// dropped — but first harvest them, so writes that only lived
			// there can be quarantined instead of silently rolled back.
			fix.truncateAt = sv.CorruptAt
			fix.suspects = append(fix.suspects, sv.Suspects...)
			for _, dch := range chunks[k+1:] {
				dsv := oplog.SalvageChunk(st.arena, dch, tail, func(_ int64, e oplog.Entry) bool {
					fix.trusted = append(fix.trusted, e)
					return true
				})
				fix.suspects = append(fix.suspects, dsv.Suspects...)
			}
			return nil
		}
	}
	return nil
}

// replay is phase B: one goroutine per owner core replays its shards into
// its own index and registry. Version comparison makes the cross-scanner
// interleaving irrelevant (equal-version duplicates are GC relocation
// copies with identical content).
func (r *recovery) replay() error {
	var wg sync.WaitGroup
	for owner, oc := range r.st.cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// In the sources' order: segment footers first (a demoted key
			// whose PM copies were all reclaimed exists only in one), then
			// the logs, then the journaled survivor chunks.
			for _, src := range r.sources {
				for _, ref := range src[owner] {
					oc.replay(ref, r.seeded)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// salvage applies the repair plan scan produced, now that the index and
// registry reflect everything the kept log data says: it cuts the damaged
// logs, sweeps the chunks a broken chain orphaned, and quarantines every
// candidate that surviving state does not cover.
func (r *recovery) salvage() error {
	st := r.st
	chainBroke := false
	for i, c := range st.cores {
		fix, d := &r.fixes[i], r.damage[i]
		cs := CoreSalvage{Core: i, Damage: d, TruncatedAt: -1, SuspectEntries: len(fix.suspects)}
		chainBroke = chainBroke || d.ChainTruncated || d.ChainLost
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
				st.al.RecoverUnmarkRawChunk(dch)
				st.super.PersistUint64(int(dch), 0)
				delete(r.inChain, dch)
				st.usage.drop(dch)
			}
		} else if c.log != nil && d.ChainTruncated {
			// The chain walk stopped at a bad link and the last kept chunk
			// still holds it. The chunk it names goes back to the allocator
			// and may return as another log's chunk, so the cut has to be
			// durable: truncating at the tail found drops nothing and
			// clears that link.
			if _, err := c.log.Truncate(st.super, c.log.Tail()); err != nil {
				return fmt.Errorf("core %d: salvage chain cut: %w", i, err)
			}
		}
		// A slot whose checksum alone failed needs no repair here: finish
		// rewrites every log's slot.
		if !cs.clean() {
			r.rep.Cores = append(r.rep.Cores, cs)
		}
	}

	// Orphan sweep: when a chain broke, the chunks beyond the break are
	// unreachable but may hold the only copy of acknowledged writes.
	// Harvest every valid-looking log chunk that no chain claims, then
	// clear it so the sweep is one-shot.
	for ci := int64(1); chainBroke && ci < int64(st.arena.Chunks()); ci++ {
		if off := ci * pmem.ChunkSize; !r.inChain[off] && oplog.ValidChunkHeader(st.arena, off) {
			r.rep.OrphanChunks++
			r.suspects = append(r.suspects, oplog.OrphanSuspects(st.arena, off)...)
			st.super.PersistUint64(int(off), 0)
		}
	}

	// Quarantine resolution. Trusted candidates (verified entries from
	// dropped chunks) are cleared when surviving state already covers
	// their version; untrusted ones (suspect decodes of corrupt regions)
	// quarantine unconditionally — every field, including the version, may
	// be rotted, so no comparison can clear them.
	for i := range r.fixes {
		for _, t := range r.fixes[i].trusted {
			r.candidate(t.Key, t.Version, true)
		}
		for _, s := range r.fixes[i].suspects {
			r.candidate(s.Key, s.Version, false)
		}
	}
	for _, s := range r.suspects {
		r.candidate(s.Key, s.Version, false)
	}
	if st.tier == nil {
		return nil
	}
	// Quarantined tier segments (footer rot condemned the whole file) may
	// hide the only copy of demoted keys. Harvest every record whose CRC
	// still verifies — key and version are then reliable, so coverage by
	// surviving state clears them like trusted candidates. Leftover files
	// from earlier salvages are re-harvested on purpose: quarantine state
	// is volatile, and the re-scan restores it across restarts until the
	// keys are overwritten and the files removed.
	qfiles, err := st.tier.QuarantinedFiles()
	if err != nil {
		return err
	}
	for _, p := range qfiles {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, rec := range tier.ScanQuarantined(b) {
			r.candidate(rec.Key, rec.Ver, true)
		}
	}
	return nil
}

// candidate quarantines key at ver unless a trusted candidate is covered.
func (r *recovery) candidate(key uint64, ver uint32, trusted bool) {
	oc := r.st.cores[r.st.CoreOf(key)]
	if hi, _ := oc.lastVersion(key); !trusted || hi < ver {
		oc.quarantineLocked(key, ver) // single-threaded here: lock not needed
	}
}

// allocator re-marks the blocks live index entries reference, finalizes
// stale counts and dead bytes, and rebuilds the free pool. A live reference
// that no longer verifies is rot on the value path: salvage quarantines the
// key, a plain crash open refuses to go on.
func (r *recovery) allocator() error {
	st := r.st
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		d := st.deref(key, ref, nil)
		switch {
		case index.Cold(ref):
			// Tier-resident entries verify through the tier's own
			// CRC-checked read path; they reference no arena blocks and
			// contribute no log bytes.
			if d.state != refOK || d.ver != ver {
				r.badRefs = append(r.badRefs, keyRef{key: key, ver: ver})
			}
		case d.state != refOK:
			r.condemn(key, ver)
		case !d.inline && st.al.RecoverMark(d.ptr, record.Size(len(d.val))) == alloc.MarkDangling:
			r.condemn(key, ver)
		default:
			r.liveBytes[chunkOf(ref)] += int64(d.size)
		}
	})
	// The repoint waits for the walk: mutating the index during Range is
	// not safe.
	for _, a := range r.rescues {
		st.cores[st.CoreOf(a.key)].idx.Put(a.key, a.ref, a.ver)
	}
	if len(r.badRefs) > 0 && r.kind != salvageOpen {
		return fmt.Errorf("%w: %d live records failed integrity verification (first key %#x); reopen with Salvage to quarantine and continue", ErrCorruptMedia, len(r.badRefs), r.badRefs[0].key)
	}
	for _, b := range r.badRefs {
		r.rep.RecordsQuarantined++
		st.cores[st.CoreOf(b.key)].quarantineLocked(b.key, b.ver)
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
					r.liveBytes[chunkOf(m.tombOff)] += oplog.HeaderSize
				} else {
					m.tombOff = 0
				}
			}
			c.reg[key] = m
		}
	}
	for i := range st.usage {
		if owner, total, _ := st.usage.load(i); owner >= 0 {
			st.usage[i].dead.Store(max(total-r.liveBytes[int64(i)*pmem.ChunkSize], 0))
		}
	}
	r.rs = st.al.RecoveryStats()
	st.al.FinishRecovery()
	return nil
}

// condemn handles a PM ref that rotted or dangles: a cold record of exactly
// that version that verifies end to end stands in for it, else the ref is
// bad. The best cold copy of each key (highest version; the first written
// wins a tie) is mapped from the footer rows when a key first needs it.
func (r *recovery) condemn(key uint64, ver uint32) {
	if r.coldBest == nil {
		r.coldBest = map[uint64]keyRef{}
		for _, rows := range r.tshard {
			for _, t := range rows {
				if a, ok := r.coldBest[t.key]; !ok || t.ver > a.ver {
					r.coldBest[t.key] = t
				}
			}
		}
	}
	if a, ok := r.coldBest[key]; ok && a.ver == ver {
		if d := r.st.deref(key, a.ref, nil); d.state == refOK && d.ver == ver {
			r.rescues = append(r.rescues, a)
			return
		}
	}
	r.badRefs = append(r.badRefs, keyRef{key: key, ver: ver})
}

// finish makes the recovered state the store's: a fresh log for each lost
// chain (possible only now: the free pool exists after FinishRecovery),
// salvage's quarantine tombstones and report, the witnesses and the flag.
func (r *recovery) finish() error {
	st, rep := r.st, r.rep
	for i, c := range st.cores {
		if c.log == nil {
			log, err := oplog.New(st.arena, st.al, coreMetaOff(i), c.f)
			if err != nil {
				return fmt.Errorf("core %d: fresh log after salvage: %w", i, err)
			}
			c.log = log
		}
	}
	// A tombstone for every quarantined key: the evidence of a loss lives
	// only in this process, so without one the next crash would replay the
	// kept older entries and resurrect state the client saw superseded. Its
	// version sits above the quarantine high-water mark. They go in key
	// order, so two salvage opens of one image write the same log.
	for _, c := range st.cores {
		if rep == nil {
			break
		}
		keys := make([]uint64, 0, len(c.quar))
		for key := range c.quar {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			ver := min(c.quar[key]+1, oplog.VersionMask)
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
		rep.KeysQuarantined += len(c.quar)
	}
	// Even outside salvage mode the allocator's integrity events are
	// counted, never swallowed (a corrupt chunk header used to be silently
	// treated as free space).
	st.integMu.Lock()
	st.integ.CorruptHeaders += uint64(r.rs.CorruptHeaders)
	st.integ.DanglingPtrs += uint64(r.rs.DanglingPtrs)
	if rep != nil {
		rep.CorruptHeaders, rep.DanglingPtrs = r.rs.CorruptHeaders, r.rs.DanglingPtrs
		if !rep.Clean() {
			st.integ.SalvageRuns++
		}
		for _, cs := range rep.Cores {
			st.integ.ChunksDropped += uint64(cs.ChunksDropped)
			if cs.TruncatedAt >= 0 {
				st.integ.ChecksumErrors++
			}
		}
		st.integ.ChecksumErrors += uint64(rep.RecordsQuarantined)
		st.salvage = rep
	}
	st.integMu.Unlock()
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
