package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/alloc"
	"flatstore/internal/batch"
	"flatstore/internal/index/hashidx"
	"flatstore/internal/index/masstree"
	"flatstore/internal/obs"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/stats"
	"flatstore/internal/tier"
)

// Store is one FlatStore node.
type Store struct {
	cfg   Config
	arena *pmem.Arena
	al    *alloc.Allocator
	super *pmem.Flusher // flusher for superblock updates (Open/Close)

	cores  []*Core
	groups []*batch.Group
	tree   *masstree.Tree   // shared index for FlatStore-M, else nil
	ckptCa *alloc.CoreAlloc // reserved allocation context for checkpoints

	// tier is the cold disk tier (nil unless cfg.Tier.Dir is set): GC
	// demotes cold records into it, a Get promotes the ones its core's
	// touch sketch has seen before, and index refs with index.TierBit set
	// resolve through it.
	tier *tier.Store

	usage usageTable

	// obs is the live metrics registry: one single-writer block per core,
	// created lazily by the first newCore call (so New, Open, and
	// resetVolatile all share the hook) and kept across volatile resets —
	// counters describe the process, not one recovery generation.
	obs *obs.Registry

	rpc *rpc.Server

	// reclaimMu lets readers decode log entries without racing the
	// cleaner's chunk frees: readers hold R, the cleaner holds W only
	// around returning a victim chunk to the pool. The scrubber holds R
	// across each chunk scan for the same reason.
	reclaimMu sync.RWMutex

	// repl is the engine half of the replication wiring: the seal hook,
	// the sealed/completed backlog counters, the ownership flag, and the
	// flusher for applied batches and the superblock repl slot (repl.go).
	repl replCore

	// integMu guards integ, the cumulative storage-integrity counters
	// (updated by cores, the scrubber, and salvage recovery), and salvage,
	// the report of the last salvage recovery (nil if none ran).
	integMu sync.Mutex
	integ   stats.Integrity
	salvage *SalvageReport

	// lifeMu serializes Run/Stop (and guards running): the flatstore
	// front end stops the store from a signal handler while monitoring
	// goroutines may still be starting or probing it.
	lifeMu  sync.Mutex
	run     *Runner // the participants of the current Run
	running bool
}

// New creates a fresh store: formatted superblock, empty per-core logs,
// dirty shutdown flag (so a crash before Close recovers by log replay).
func New(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	arena := cfg.Arena
	if arena == nil {
		arena = pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	}
	st := &Store{cfg: cfg, arena: arena, super: arena.NewFlusher()}
	st.repl.f = arena.NewFlusher()
	st.super.PersistUint64(offMagic, superMagic)
	st.super.PersistUint64(offFlag, flagDirty)
	st.super.PersistUint64(offCores, uint64(cfg.Cores))
	if err := st.resetVolatile(); err != nil {
		return nil, err
	}
	for i, c := range st.cores {
		log, err := oplog.New(arena, st.al, coreMetaOff(i), c.f)
		if err != nil {
			return nil, err
		}
		c.log = log
	}
	if err := st.openTier(false); err != nil {
		return nil, err
	}
	st.super.FlushEvents()
	st.AttachTransport(rpc.NewServer(cfg.Cores, 0))
	return st, nil
}

// openTier opens the cold store when configured. Shared by New and Open;
// leftover tmp files are removed and unreadable segments quarantined,
// with the quarantine count surfaced through the integrity counters.
// With strict set (a non-salvage Open), a fresh quarantine is media rot
// that may hide the only copy of demoted keys, so the open fails loudly
// instead of losing them silently — mirroring the PM-side ErrCorruptMedia
// contract. A salvage open harvests the quarantined files instead.
func (st *Store) openTier(strict bool) error {
	if st.cfg.Tier.Dir == "" {
		return nil
	}
	t, rep, err := tier.Open(st.cfg.Tier.Dir)
	if err != nil {
		return err
	}
	st.tier = t
	if rep.Quarantined > 0 {
		st.noteChecksumErrors(uint64(rep.Quarantined))
		if strict {
			return fmt.Errorf("%w: %d cold segment files failed validation and were quarantined; reopen with Salvage to quarantine their keys and continue",
				ErrCorruptMedia, rep.Quarantined)
		}
	}
	return nil
}

// Tier exposes the cold store (nil when tiering is disabled).
func (st *Store) Tier() *tier.Store { return st.tier }

// TierCompactOnce runs one cold-tier compaction pass: the dirtiest
// segment at or above Tier.CompactRatio dead fraction is rewritten
// without its dead records and the index repointed. Returns whether a
// segment was compacted.
func (st *Store) TierCompactOnce() (bool, error) {
	if st.tier == nil {
		return false, nil
	}
	return st.tier.CompactOnce(st.cfg.Tier.CompactRatio, st.tierIsLive, st.tierRepoint)
}

// tierIsLive answers compaction's liveness query: a cold record is live
// iff it is still the exact index target for its key.
func (st *Store) tierIsLive(key uint64, ver uint32, ref int64) bool {
	c := st.cores[st.CoreOf(key)]
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	r, _, ok := c.idx.Get(key)
	return ok && r == ref
}

// tierRepoint CASes the index from a record's old cold ref to its
// rewritten location, under the owning core's index lock.
func (st *Store) tierRepoint(key uint64, old, new int64) bool {
	c := st.cores[st.CoreOf(key)]
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	return c.idx.CompareAndSwapRef(key, old, new)
}

func (st *Store) buildGroups() {
	n := (st.cfg.Cores + st.cfg.GroupSize - 1) / st.cfg.GroupSize
	for g := 0; g < n; g++ {
		size := st.cfg.GroupSize
		if r := st.cfg.Cores - g*st.cfg.GroupSize; r < size {
			size = r
		}
		st.groups = append(st.groups, batch.NewGroup(st.cfg.Mode, size))
	}
}

func (st *Store) newCore(i int) (*Core, error) {
	if st.obs == nil {
		st.obs = obs.NewRegistry(st.cfg.Cores, st.cfg.SlowOpThreshold)
	}
	c := &Core{
		st:     st,
		id:     i,
		f:      st.arena.NewFlusher(),
		ca:     st.al.Core(i),
		met:    st.obs.Core(i),
		group:  st.groups[i/st.cfg.GroupSize],
		member: i % st.cfg.GroupSize,
		busy:   map[uint64]*inflight{},
		reg:    map[uint64]keyMeta{},
		quar:   map[uint64]uint32{},
	}
	c.scanFn = c.scanPair
	if st.cfg.Index == IndexMasstree {
		c.idx = st.tree
	} else {
		c.idx = hashidx.New()
	}
	if st.cfg.Tier.Dir != "" {
		// One generation spans as many Gets as the core's share of the
		// arena has 256 B media blocks — an upper bound on the records it
		// could hold hot: two touches further apart than that would not
		// have found the first one's promotion still in PM.
		c.touched = newTouchSketch(st.arena.Size() / pmem.BlockSize / st.cfg.Cores)
	}
	return c, nil
}

// Arena exposes the underlying PM device (stats, crash tests).
func (st *Store) Arena() *pmem.Arena { return st.arena }

// Allocator exposes the NVM allocator (tests, tools).
func (st *Store) Allocator() *alloc.Allocator { return st.al }

// Core returns server core i (the simulator drives cores directly).
func (st *Store) Core(i int) *Core { return st.cores[i] }

// Cores returns the number of server cores.
func (st *Store) Cores() int { return st.cfg.Cores }

// Config returns the store's effective configuration.
func (st *Store) Config() Config { return st.cfg }

// Groups returns the HB groups (stats).
func (st *Store) Groups() []*batch.Group { return st.groups }

// CoreOf returns the server core responsible for a key — the same
// keyhash routing the paper's clients apply.
func (st *Store) CoreOf(key uint64) int {
	return RouteKey(key, st.cfg.Cores)
}

// RouteKey computes the owning core for a key given the node's core
// count; remote clients use it to target the right message buffer.
func RouteKey(key uint64, cores int) int {
	return int(keyhash(key) % uint64(cores))
}

// keyhash is the routing hash (distinct from the index hash).
func keyhash(key uint64) uint64 {
	x := key * 0xd6e8feb86659fd93
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	return x ^ x>>32
}

// AttachTransport wires a FlatRPC server; Run's core loops will poll it.
// New and Open attach a default transport (agent core 0, standing in for
// the paper's NIC-local core choice); replace it only before Run.
func (st *Store) AttachTransport(r *rpc.Server) {
	st.rpc = r
	for i, c := range st.cores {
		c.port = r.Port(i)
	}
}

// Connect attaches a new RPC client.
func (st *Store) Connect() *Client {
	return &Client{st: st, c: st.rpc.Connect()}
}

// Run starts the store's participants on its runner: the server cores
// and, if configured, the per-group cleaners, the tier compactor and the
// scrubber. It returns immediately; Stop ends them. Safe to call
// concurrently with Stop and Stats.
func (st *Store) Run() {
	st.lifeMu.Lock()
	defer st.lifeMu.Unlock()
	if st.running {
		return
	}
	st.running = true
	st.run = NewRunner()
	for _, c := range st.cores {
		// Going idle, a core folds the PM events of the work just done into
		// the arena totals, where a metrics scrape reads them (Snapshot.PM).
		// A core that never idles folds at Stop.
		st.run.Poll(Participant{Step: c.Step, Idle: func() {
			if c.f.PendingEvents() != (pmem.Events{}) {
				c.f.FlushEvents()
			}
		}})
	}
	if st.cfg.GC.Enabled {
		for g := range st.groups {
			cl := st.newCleaner(g)
			st.run.Poll(Participant{Step: func() bool { return cl.CleanOnce() > 0 }})
		}
	}
	if st.tier != nil && st.cfg.GC.Enabled {
		st.run.Every(10*time.Millisecond, func() { st.TierCompactOnce() })
	}
	if st.cfg.ScrubEvery > 0 {
		st.run.Every(st.cfg.ScrubEvery, func() { st.ScrubOnce() })
	}
}

// Stop halts the goroutines started by Run without checkpointing (used
// before crash simulations; Close performs the clean shutdown). Safe to
// call concurrently with Run and Stats.
func (st *Store) Stop() {
	st.lifeMu.Lock()
	defer st.lifeMu.Unlock()
	if !st.running {
		return
	}
	// Bound the transport's blocking response pushes for the duration of
	// the shutdown: a core mid-Step cannot reach its stop check while
	// wedged behind the full ring of a client that stopped polling.
	st.rpc.SetDraining(true)
	st.run.Stop()
	st.rpc.SetDraining(false)
	// The cores are parked: witness everything they appended, so an image
	// taken from here on reports rot in any batch instead of reading the
	// last one as a torn tail.
	for _, c := range st.cores {
		c.log.PersistWitness(c.f)
		c.f.FlushEvents()
	}
	st.running = false
}

// Metrics assembles the full observability snapshot: the per-core
// single-writer blocks merged by the registry, plus the store-level
// gauges (index size, allocator occupancy, HB group counters, integrity,
// tier, PM device and transport stats) that live outside the registry.
// Safe to call while serving (the flatstore-server front end polls it
// from a monitoring goroutine): index sizes are read under the per-core
// index locks, and every other source is internally synchronized. Counts
// are exact only while quiescent.
func (st *Store) Metrics() obs.Snapshot {
	s := st.obs.Snapshot()
	s.Keys = uint64(st.Len())
	occ := st.al.Occupancy()
	s.FreeChunks = uint64(occ.Free)
	s.RawChunks = uint64(occ.Raw)
	s.HugeChunks = uint64(occ.Huge)
	for i, c := range occ.Classes {
		if c.Chunks == 0 && c.UsedBlocks == 0 {
			continue
		}
		s.Classes = append(s.Classes, obs.ClassOcc{
			Class:      alloc.ClassSize(i),
			Chunks:     uint64(c.Chunks),
			UsedBlocks: uint64(c.UsedBlocks),
			CapBlocks:  uint64(c.CapBlocks),
		})
	}
	for _, g := range st.groups {
		gs := g.Stats()
		s.Groups = append(s.Groups, obs.GroupSnap{Batches: gs.Batches, Stolen: gs.Stolen, Leads: gs.Leads})
	}
	for i := range st.usage {
		owner, _, live := st.usage.load(i)
		if owner >= 0 && int64(i)*pmem.ChunkSize != st.cores[owner].log.TailChunk() {
			s.LogChunksClosed++
			s.LogLiveBytes += uint64(live)
		}
	}
	s.Integrity = st.Integrity()
	if st.tier != nil {
		s.Tier = st.tier.Stats()
	}
	pm := st.arena.Stats()
	s.PM = obs.PMSnap{Flushes: pm.Flushes, Fences: pm.Fences, Lines: pm.Lines,
		MediaBytes: pm.MediaBytes, SeqBlocks: pm.SeqBlocks, RndBlocks: pm.RndBlocks,
		Touched: st.arena.TouchedBytes()}
	if st.rpc != nil {
		rs := st.rpc.Stats()
		s.Net.QueuePairs = uint64(rs.QueuePairs)
		s.Net.MMIOs = rs.MMIOs
		s.Net.Delegations = rs.Delegations
		s.Net.Requests = rs.Requests
		s.Net.Responses = rs.Responses
		s.Net.Dropped = rs.Dropped
	}
	return s
}

// Integrity snapshots the storage-integrity counters. Quarantined is
// derived live from the per-core quarantine maps.
func (st *Store) Integrity() stats.Integrity {
	st.integMu.Lock()
	s := st.integ
	st.integMu.Unlock()
	for _, c := range st.cores {
		c.idxMu.Lock()
		s.Quarantined += uint64(len(c.quar))
		c.idxMu.Unlock()
	}
	return s
}

// SalvageReport returns the report of the salvage recovery that opened
// this store, or nil when recovery found nothing to repair (or salvage
// mode was off).
func (st *Store) SalvageReport() *SalvageReport {
	st.integMu.Lock()
	defer st.integMu.Unlock()
	return st.salvage
}

func (st *Store) noteChecksumErrors(n uint64) {
	st.integMu.Lock()
	st.integ.ChecksumErrors += n
	st.integMu.Unlock()
}

func (st *Store) noteQuarantineClears(n uint64) {
	st.integMu.Lock()
	st.integ.QuarantineClears += n
	st.integMu.Unlock()
}

// Len returns the number of live keys. Safe to call live; exact while
// quiescent.
func (st *Store) Len() int {
	st.lockAllIdx()
	defer st.unlockAllIdx()
	if st.tree != nil {
		return st.tree.Len()
	}
	n := 0
	for _, c := range st.cores {
		n += c.idx.Len()
	}
	return n
}

// lockAllIdx acquires every core's index lock in core order — quiescing
// both index layouts: a per-core hash table is guarded by its own core's
// idxMu, and the shared masstree is only mutated by cores holding theirs.
func (st *Store) lockAllIdx() {
	for _, c := range st.cores {
		c.idxMu.Lock()
	}
}

func (st *Store) unlockAllIdx() {
	for _, c := range st.cores {
		c.idxMu.Unlock()
	}
}

// rangeIndex visits every index entry once, in unspecified order: one walk
// of the shared tree (every core's idx is the same tree), or one of each
// core's table. The caller quiesces the index (lockAllIdx) or is alone
// with it (recovery).
func (st *Store) rangeIndex(fn func(key uint64, ref int64, ver uint32)) {
	visit := func(key uint64, ref int64, ver uint32) bool {
		fn(key, ref, ver)
		return true
	}
	if st.tree != nil {
		st.tree.Range(visit)
		return
	}
	for _, c := range st.cores {
		c.idx.Range(visit)
	}
}

// JournalSlot reads group g's persisted cleaner-journal slot (zero when
// no survivor chunk is journaled). Invariant checkers assert that every
// slot is clear once recovery or a clean run is quiescent.
func (st *Store) JournalSlot(g int) uint64 {
	return st.arena.ReadUint64(journalOff(g))
}

// usageTable tracks, per arena chunk, the log-entry bytes appended to it and
// how many of them are dead (§3.4's "in-memory table to track the usage of
// each 4MB chunk"). It is indexed by chunk number — the arena's chunk count
// is fixed — and every field is an atomic, so the put path (an account per
// appended entry, a markDead per superseded one, from every core) takes no
// lock. A slot describes a log chunk while its owner is set: account claims
// it with the chunk's first entry, drop releases it before the chunk goes
// back to the pool.
type usageTable []chunkUsage

type chunkUsage struct {
	total atomic.Int64 // entry bytes appended
	dead  atomic.Int64 // of those, bytes no recovery needs any more
	owner atomic.Int32 // core whose log holds the chunk, plus one; 0: not a log chunk
	_     [40]byte     // a cacheline per slot: neighbouring chunks belong to other cores
}

// account adds size appended bytes to chunk, which is in owner's log. Only
// the goroutine that took a chunk from the pool appends to it until it is
// linked, so the claim needs no CAS; a markDead that strayed into the slot
// while it was nobody's is wiped here.
func (u usageTable) account(chunk int64, owner, size int) {
	s := &u[chunk/pmem.ChunkSize]
	if s.owner.Load() != int32(owner)+1 {
		s.total.Store(0)
		s.dead.Store(0)
		s.owner.Store(int32(owner) + 1)
	}
	s.total.Add(int64(size))
}

func (u usageTable) markDead(chunk int64, size int) {
	u[chunk/pmem.ChunkSize].dead.Add(int64(size))
}

// drop releases chunk's slot: the chunk is about to leave its log.
func (u usageTable) drop(chunk int64) {
	s := &u[chunk/pmem.ChunkSize]
	s.owner.Store(0)
	s.total.Store(0)
	s.dead.Store(0)
}

// reset empties the table (recovery rebuilds it from its scan).
func (u usageTable) reset() {
	for i := range u {
		u.drop(int64(i) * pmem.ChunkSize)
	}
}

// load reads slot i: the owning core (-1 when the chunk is not a log chunk),
// the bytes appended, and the bytes still live. A markDead can race a
// relocation's accounting by an entry or two, so live is clamped.
func (u usageTable) load(i int) (owner int, total, live int64) {
	s := &u[i]
	owner = int(s.owner.Load()) - 1
	total = s.total.Load()
	live = max(total-s.dead.Load(), 0)
	return owner, total, live
}

// chunkOf maps a log-entry offset to its chunk base.
func chunkOf(off int64) int64 { return off &^ (pmem.ChunkSize - 1) }
