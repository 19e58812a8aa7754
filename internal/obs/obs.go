// Package obs is the engine's live observability layer: a per-core
// metrics registry the serving hot path records into without locks or
// allocations, plus a snapshot reader that merges the per-core state on
// demand for the stats wire op, the HTTP metrics endpoint, and the
// operator tools.
//
// The concurrency protocol is single-writer: every Counter and Hist cell
// belongs to exactly one goroutine (its core's loop), which updates it
// with a plain load-add-store on an atomic word — no read-modify-write,
// so recording costs a couple of uncontended cache hits. Readers only
// ever Load, so a snapshot taken mid-update sees each word either before
// or after an increment (never torn, race-detector clean) and the merge
// is approximate only in the sense that it is a moment-in-time sample of
// a moving system. Counters whose writers are not unique (the per-group
// GC cleaners) use real atomic adds instead; they are far off the hot
// path.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/stats"
)

// Op kinds, the latency/count axis of the per-core metrics. They are a
// dense enum (not rpc op codes) so they can index fixed arrays.
const (
	KindPut = iota
	KindGet
	KindDelete
	KindScan
	NumOps
)

// KindName names an op kind for rendering.
func KindName(k int) string {
	switch k {
	case KindPut:
		return "put"
	case KindGet:
		return "get"
	case KindDelete:
		return "delete"
	case KindScan:
		return "scan"
	}
	return "unknown"
}

// Counter is a single-writer counter: the owning core Adds with a plain
// load+store (no RMW), readers Load. Do not share one Counter between
// writers.
type Counter struct{ v atomic.Uint64 }

// Add increments by n (owner only).
func (c *Counter) Add(n uint64) { c.v.Store(c.v.Load() + n) }

// Load reads the counter (any goroutine).
func (c *Counter) Load() uint64 { return c.v.Load() }

// Hist is a single-writer histogram with the exact cell layout of
// stats.Histogram, plus exact running moments so snapshot sums are not
// quantized to bucket representatives (the metrics e2e invariants depend
// on exact sums).
type Hist struct {
	cells [64][16]atomic.Uint64
	count atomic.Uint64
	sum   atomic.Int64
	min   atomic.Int64
	max   atomic.Int64
}

func (h *Hist) init() { h.min.Store(math.MaxInt64) }

// Record adds a sample (owner only).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b, s := stats.BucketOf(v)
	cell := &h.cells[b][s]
	cell.Store(cell.Load() + 1)
	h.count.Store(h.count.Load() + 1)
	h.sum.Store(h.sum.Load() + v)
	if v < h.min.Load() {
		h.min.Store(v)
	}
	if v > h.max.Load() {
		h.max.Store(v)
	}
}

// snapshotInto folds the histogram's current state into a cell array and
// moment accumulators (reader side).
func (h *Hist) snapshotInto(cells *[64][16]uint64, count *uint64, sum, min, max *int64) {
	for b := range h.cells {
		for s := range h.cells[b] {
			cells[b][s] += h.cells[b][s].Load()
		}
	}
	n := h.count.Load()
	*count += n
	*sum += h.sum.Load()
	if n > 0 {
		if v := h.min.Load(); v < *min {
			*min = v
		}
		if v := h.max.Load(); v > *max {
			*max = v
		}
	}
}

// mergeHists snapshots one Hist per core into a single stats.Histogram.
func mergeHists(pick func(*CoreMetrics) *Hist, cores []*CoreMetrics) *stats.Histogram {
	var cells [64][16]uint64
	var count uint64
	var sum int64
	min, max := int64(math.MaxInt64), int64(0)
	for _, cm := range cores {
		pick(cm).snapshotInto(&cells, &count, &sum, &min, &max)
	}
	return stats.Restore(&cells, count, sum, min, max)
}

// slowRingSize is the per-core slow-op trace capacity. A fixed array:
// pushing overwrites the oldest entry and never allocates.
const slowRingSize = 64

// SlowOp is one traced slow request: per-stage timestamps of the §3.2 Put
// pipeline (enqueue → batch-seal → persist → index-update → respond).
// Start is nanoseconds since the registry's base; the stage fields are
// offsets from Start (0 when the stage does not apply — reads have no
// seal/persist). Respond marks when the response was enqueued for
// transmission, which is also the op's total latency.
type SlowOp struct {
	Core  int32
	Op    int32 // Kind* enum
	Key   uint64
	Start int64 // ns since registry base (enqueue)
	Seal  int64 // ns from Start: leader collected the batch
	Flush int64 // ns from Start: batch durable in the OpLog
	Index int64 // ns from Start: volatile index updated
	Total int64 // ns from Start: response enqueued
}

// slowRing holds the most recent slow ops of one core. The mutex is taken
// only when a slow op fires (rare by construction: the threshold selects
// outliers) and by the snapshot reader.
type slowRing struct {
	mu  sync.Mutex
	buf [slowRingSize]SlowOp
	n   uint64 // total pushed
}

func (r *slowRing) push(s SlowOp) {
	r.mu.Lock()
	r.buf[r.n%slowRingSize] = s
	r.n++
	r.mu.Unlock()
}

// snapshot appends the ring's contents, oldest first, onto into.
func (r *slowRing) snapshot(into []SlowOp) []SlowOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	start := uint64(0)
	if n > slowRingSize {
		start = n - slowRingSize
	}
	for i := start; i < n; i++ {
		into = append(into, r.buf[i%slowRingSize])
	}
	return into
}

// CoreMetrics is one core's private metric block. Only the owning core
// writes it (the single-writer protocol above); the trailing pad keeps a
// neighbouring allocation from sharing its last cacheline.
type CoreMetrics struct {
	OpCount [NumOps]Counter // responses by kind (incl. errors)
	OpErr   [NumOps]Counter // non-OK responses by kind
	OpLat   [NumOps]Hist    // latency by kind, ns

	BatchSize   Hist // entries per g-persist batch this core led
	BatchBytes  Hist // persisted bytes per batch (incl. trailer + pad)
	LeadBatches Counter
	OwnOps      Counter // batch entries this core both owned and led
	StolenOps   Counter // batch entries this core led for other cores
	FollowedOps Counter // own entries persisted by another core's batch
	LogBytes    Counter // OpLog bytes appended by batches this core led
	FlushUnits  Counter // 256 B flush units those bytes occupied

	slow slowRing

	_ [64]byte
}

// NoteOp records one completed request: count, error count, latency.
func (m *CoreMetrics) NoteOp(kind int, ok bool, latNs int64) {
	m.OpCount[kind].Add(1)
	if !ok {
		m.OpErr[kind].Add(1)
	}
	m.OpLat[kind].Record(latNs)
}

// NoteSlow pushes a slow-op trace into the core's ring.
func (m *CoreMetrics) NoteSlow(s SlowOp) { m.slow.push(s) }

// FlushUnitSize is the persist granularity batch bytes are accounted in
// (the XPLine of the paper's PM media: flushing 1 byte costs 256).
const FlushUnitSize = 256

// NoteBatch records one led g-persist batch: size in entries, persisted
// bytes, and the own/stolen split.
func (m *CoreMetrics) NoteBatch(entries, ownEntries int, bytes int64) {
	m.LeadBatches.Add(1)
	m.BatchSize.Record(int64(entries))
	m.BatchBytes.Record(bytes)
	m.OwnOps.Add(uint64(ownEntries))
	m.StolenOps.Add(uint64(entries - ownEntries))
	m.LogBytes.Add(uint64(bytes))
	m.FlushUnits.Add(uint64((bytes + FlushUnitSize - 1) / FlushUnitSize))
}

// Registry is one store's metric root: a CoreMetrics block per core, the
// multi-writer GC counters, and the monotonic clock every timestamp is
// relative to.
type Registry struct {
	base       time.Time
	slowThresh int64 // ns; 0 disables slow-op tracing
	cores      []*CoreMetrics

	// GC counters: multiple cleaners (one per HB group) write these, so
	// they are real atomics, not single-writer counters.
	gcPasses    atomic.Uint64
	gcCleaned   atomic.Uint64
	gcRelocated atomic.Uint64
	gcDropped   atomic.Uint64
}

// NewRegistry creates a registry for ncores cores. slowThresh is the
// latency at or beyond which an op is traced into its core's slow ring
// (0: tracing off).
func NewRegistry(ncores int, slowThresh time.Duration) *Registry {
	r := &Registry{base: time.Now(), slowThresh: slowThresh.Nanoseconds(), cores: make([]*CoreMetrics, ncores)}
	for i := range r.cores {
		cm := &CoreMetrics{}
		for k := 0; k < NumOps; k++ {
			cm.OpLat[k].init()
		}
		cm.BatchSize.init()
		cm.BatchBytes.init()
		r.cores[i] = cm
	}
	return r
}

// Now is the registry's monotonic clock: nanoseconds since the registry
// was created. Allocation-free (time.Since reads the monotonic clock).
func (r *Registry) Now() int64 { return int64(time.Since(r.base)) }

// SlowThreshold returns the slow-op tracing threshold in ns (0: off).
func (r *Registry) SlowThreshold() int64 { return r.slowThresh }

// Core returns core i's metric block.
func (r *Registry) Core(i int) *CoreMetrics { return r.cores[i] }

// NoteGC accumulates one cleaner pass's effects (any cleaner goroutine). A
// pass counts when it freed a chunk.
func (r *Registry) NoteGC(cleaned, relocated, dropped uint64) {
	if cleaned > 0 {
		r.gcPasses.Add(1)
	}
	r.gcCleaned.Add(cleaned)
	r.gcRelocated.Add(relocated)
	r.gcDropped.Add(dropped)
}

// The types below are the one declaration of every exposed metric: a
// field's tags say how it is exposed, and the three expositions are
// walked from them (DESIGN.md §7).
//
//	json:"key"             the /metrics.json key (the Go name when absent)
//	prom:"name,kind"       a Prometheus counter, gauge or summary; a
//	                       *_seconds series holds nanoseconds here; on a
//	                       slice the series is its length
//	prom:"name,kind,label" the same, the field's own rendering being that
//	                       label on its series (role="primary")
//	label:"key"            in a list element: the field's value labels the
//	                       element's series (class="256"); on a list: the
//	                       element index does (group="0")
//
// A bool field is its block's switch: while false, the block renders no
// Prometheus series. Label and switch fields come first in their struct
// (they apply to the fields after them). The stats wire op carries every
// field, tagged or not, in declaration order.

// OpSnap is one op kind's merged view.
type OpSnap struct {
	Op      string           `json:"op" label:"op"` // KindName of the array slot
	Count   uint64           `json:"count" prom:"flatstore_ops_total,counter"`
	Errors  uint64           `json:"errors" prom:"flatstore_op_errors_total,counter"`
	Latency *stats.Histogram `json:"latency_ns" prom:"flatstore_op_latency_seconds,summary"`
}

// ClassOcc is one allocator size class's occupancy.
type ClassOcc struct {
	Class      int    `label:"class"` // block size in bytes
	Chunks     uint64 `prom:"flatstore_alloc_class_chunks,gauge"`
	UsedBlocks uint64 `prom:"flatstore_alloc_class_used_blocks,gauge"`
	CapBlocks  uint64 `prom:"flatstore_alloc_class_cap_blocks,gauge"`
}

// GroupSnap mirrors batch.GroupStats for the wire.
type GroupSnap struct {
	Batches uint64 `prom:"flatstore_hb_group_batches_total,counter"`
	Stolen  uint64 `prom:"flatstore_hb_group_stolen_total,counter"`
	Leads   uint64 `prom:"flatstore_hb_group_leads_total,counter"`
}

// NetSnap merges the transport counters: the FlatRPC layer's and (when
// serving TCP) the TCP front end's.
type NetSnap struct {
	QueuePairs  uint64 `prom:"flatstore_net_queue_pairs,gauge"`
	MMIOs       uint64 `prom:"flatstore_net_mmios_total,counter"`
	Delegations uint64 `prom:"flatstore_net_delegations_total,counter"`
	Requests    uint64 `prom:"flatstore_net_requests_total,counter"`
	Responses   uint64 `prom:"flatstore_net_responses_total,counter"`
	Dropped     uint64 `prom:"flatstore_net_responses_dropped_total,counter"`
	Shed        uint64 `prom:"flatstore_tcp_shed_total,counter"`       // StatusBusy responses (capacity or replay-in-flight)
	DedupHits   uint64 `prom:"flatstore_tcp_dedup_hits_total,counter"` // write replays answered from the dedup table
	BadFrames   uint64 `prom:"flatstore_tcp_bad_frames_total,counter"` // frames rejected by the CRC check
	InFlight    int64  `prom:"flatstore_net_inflight,gauge"`           // currently queued requests across all connections

	BatchFrames     uint64 `prom:"flatstore_tcp_batch_frames_total,counter"`     // multi-op (opBatch) frames decoded
	BatchOps        uint64 `prom:"flatstore_tcp_batch_ops_total,counter"`        // sub-ops carried by those frames
	FramesCoalesced uint64 `prom:"flatstore_tcp_frames_coalesced_total,counter"` // extra already-buffered frames drained per reader wakeup
	RespFlushes     uint64 `prom:"flatstore_tcp_resp_flushes_total,counter"`     // response socket flushes
	RespWritten     uint64 `prom:"flatstore_tcp_resp_written_total,counter"`     // RespWritten/RespFlushes = coalescing depth
	InFlightPeak    int64  `prom:"flatstore_net_inflight_peak,gauge"`            // high-water mark of InFlight (the pipelining depth reached)
}

// ReplRole is a node's replication role. It renders by name in JSON and
// as the role label.
type ReplRole uint8

const (
	ReplRoleNone ReplRole = iota // replication not configured
	ReplRolePrimary
	ReplRoleFollower
)

var replRoleNames = [...]string{"none", "primary", "follower"}

func (r ReplRole) String() string {
	if int(r) < len(replRoleNames) {
		return replRoleNames[r]
	}
	return replRoleNames[ReplRoleNone]
}

// MarshalText renders the role by name.
func (r ReplRole) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses what MarshalText rendered.
func (r *ReplRole) UnmarshalText(b []byte) error {
	for i, name := range replRoleNames {
		if name == string(b) {
			*r = ReplRole(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown replication role %q", b)
}

// ReplSnap is the replication controller's view: role, epoch, stream
// positions, and the ship/apply counters. Filled by the repl node when
// one is attached; zero otherwise.
type ReplSnap struct {
	Role       ReplRole `json:"role" prom:"flatstore_repl_role,gauge,role"`
	Epoch      uint64   `json:"epoch" prom:"flatstore_repl_epoch,gauge"`             // current fencing epoch
	TailPos    uint64   `json:"tail_pos" prom:"flatstore_repl_tail_pos,gauge"`       // newest sealed batch position (primary) / highest seen
	AppliedPos uint64   `json:"applied_pos" prom:"flatstore_repl_applied_pos,gauge"` // newest batch applied locally (follower) or acked tail
	Followers  uint64   `json:"followers" prom:"flatstore_repl_followers,gauge"`     // connected followers (primary)
	LagBatches uint64   `json:"lag_batches" prom:"flatstore_repl_lag_batches,gauge"` // tail - slowest connected follower ack (primary), or tail - applied (follower)
	LagBytes   uint64   `json:"lag_bytes" prom:"flatstore_repl_lag_bytes,gauge"`     // the same lag in stream bytes (history window)

	BatchesShipped  uint64 `json:"batches_shipped" prom:"flatstore_repl_batches_shipped_total,counter"`   // batches entered into the stream (primary)
	BytesShipped    uint64 `json:"bytes_shipped" prom:"flatstore_repl_bytes_shipped_total,counter"`       // encoded stream bytes entered (primary)
	BatchesApplied  uint64 `json:"batches_applied" prom:"flatstore_repl_batches_applied_total,counter"`   // batches applied from the stream (follower)
	EntriesApplied  uint64 `json:"entries_applied" prom:"flatstore_repl_entries_applied_total,counter"`   // entries applied from the stream (follower)
	SnapshotsServed uint64 `json:"snapshots_served" prom:"flatstore_repl_snapshots_served_total,counter"` // bootstrap snapshots served (primary)
	SnapshotsLoaded uint64 `json:"snapshots_loaded" prom:"flatstore_repl_snapshots_loaded_total,counter"` // bootstrap snapshots applied (follower)
	SyncTimeouts    uint64 `json:"sync_timeouts" prom:"flatstore_repl_sync_timeouts_total,counter"`       // acks released by timeout instead of follower ack
	Demotions       uint64 `json:"demotions" prom:"flatstore_repl_demotions_total,counter"`               // times this node fenced itself (saw a higher epoch)

	PrimaryAddr string `json:"primary_addr,omitempty"` // serve address of the known primary ("" if unknown)
}

// ShardSnap describes this node's place in a sharded cluster: which
// shard it owns, how many shards the map has, the map version routing
// is keyed on, and how many misrouted ops it bounced. Zero (Configured
// false) when the server runs unsharded. While Configured, ID is also
// the shard label on every series of the scrape.
type ShardSnap struct {
	Configured bool   `json:"configured"`
	ID         int64  `json:"id" prom:"flatstore_shard_id,gauge"`                         // this node's shard ID
	Count      uint64 `json:"count" prom:"flatstore_shard_count,gauge"`                   // shards in the map
	MapVersion uint64 `json:"map_version" prom:"flatstore_shard_map_version,gauge"`       // membership version routing is a pure function of
	WrongShard uint64 `json:"wrong_shard" prom:"flatstore_tcp_wrong_shard_total,counter"` // StatusWrongShard redirects sent (map drift observed)
}

// TierSnap is the cold-tier view: segment/record occupancy plus the
// demotion/promotion and bloom-filter counters. Zero (Enabled false)
// when the store runs without a tier directory.
type TierSnap struct {
	Enabled         bool
	Segments        uint64 `prom:"flatstore_tier_segments,gauge"`                     // live segment files
	Records         uint64 `prom:"flatstore_tier_records,gauge"`                      // records across live segments
	DeadRecords     uint64 `prom:"flatstore_tier_dead_records,gauge"`                 // records marked dead (compaction fuel)
	Bytes           uint64 `prom:"flatstore_tier_bytes,gauge"`                        // bytes across live segment files
	Reads           uint64 `prom:"flatstore_tier_reads_total,counter"`                // record preads served
	BloomFiltered   uint64 `prom:"flatstore_tier_bloom_filtered_total,counter"`       // lookups answered "absent" without touching disk
	SegmentsWritten uint64 `prom:"flatstore_tier_segments_written_total,counter"`     // segments ever written (demotion + compaction)
	Compactions     uint64 `prom:"flatstore_tier_compactions_total,counter"`          // compaction passes completed
	Demoted         uint64 `prom:"flatstore_tier_demoted_total,counter"`              // records demoted PM → tier
	Promoted        uint64 `prom:"flatstore_tier_promoted_total,counter"`             // records promoted tier → PM by a Get
	PromoteDeferred uint64 `prom:"flatstore_tier_promote_deferred_total,counter"`     // cold Gets served from disk and left cold (key not touched lately)
	PromoteFailed   uint64 `prom:"flatstore_tier_promote_failed_total,counter"`       // promotions given up (append refused, or the key moved on)
	CorruptReads    uint64 `prom:"flatstore_tier_corrupt_reads_total,counter"`        // cold reads that failed closed (CRC/decode)
	Quarantined     uint64 `prom:"flatstore_tier_segments_quarantined_total,counter"` // segments quarantined at open
}

// PMSnap is the arena's device counters, the currency the paper argues in
// (§2.3) and the scoreboard's pm_write_amp is made of. Exact while the
// store is quiescent; a serving core folds its events into the arena
// totals when it goes idle, so a live scrape trails a busy core.
type PMSnap struct {
	Flushes    uint64 `json:"flushes" prom:"flatstore_pm_flushes_total,counter"`         // flush calls (each covers ≥ 1 line)
	Fences     uint64 `json:"fences" prom:"flatstore_pm_fences_total,counter"`           // ordering fences
	Lines      uint64 `json:"lines" prom:"flatstore_pm_lines_total,counter"`             // 64 B cachelines written to media
	MediaBytes uint64 `json:"media_bytes" prom:"flatstore_pm_media_bytes_total,counter"` // bytes charged against device bandwidth
	SeqBlocks  uint64 `json:"seq_blocks" prom:"flatstore_pm_seq_blocks_total,counter"`   // 256 B block activations adjacent to the previous one
	RndBlocks  uint64 `json:"rnd_blocks" prom:"flatstore_pm_rnd_blocks_total,counter"`   // random (non-adjacent) 256 B block activations
	Touched    uint64 `json:"touched_bytes" prom:"flatstore_pm_touched_bytes,gauge"`     // device bytes ever written, in 64 KiB extents: what each of the emulator's two views holds in memory
}

// Snapshot is a merged moment-in-time view of the whole registry, plus
// the store-level state (keys, allocator, integrity, groups, transport)
// the store fills in. It is plain data and travels over the stats wire
// op.
type Snapshot struct {
	UptimeNs int64 `json:"uptime_ns" prom:"flatstore_uptime_seconds,gauge"`
	Cores    int   `json:"cores" prom:"flatstore_cores,gauge"`

	Ops             [NumOps]OpSnap   `json:"ops"`
	BatchSize       *stats.Histogram `json:"batch_size" prom:"flatstore_batch_size,summary"`
	BatchBytes      *stats.Histogram `json:"batch_bytes" prom:"flatstore_batch_bytes,summary"`
	LeadBatches     uint64           `json:"lead_batches" prom:"flatstore_lead_batches_total,counter"`
	OwnOps          uint64           `json:"batch_entries_own" prom:"flatstore_batch_entries_own_total,counter"`
	StolenOps       uint64           `json:"batch_entries_stolen" prom:"flatstore_batch_entries_stolen_total,counter"`
	FollowedOps     uint64           `json:"batch_entries_followed" prom:"flatstore_batch_entries_followed_total,counter"`
	LogBytes        uint64           `json:"oplog_bytes" prom:"flatstore_oplog_bytes_total,counter"`
	FlushUnits      uint64           `json:"flush_units" prom:"flatstore_flush_units_total,counter"`
	GCPasses        uint64           `json:"gc_passes" prom:"flatstore_gc_passes_total,counter"` // cleaning passes that freed a chunk; cleaned / passes = victims per pass
	GCCleaned       uint64           `json:"gc_chunks_cleaned" prom:"flatstore_gc_chunks_cleaned_total,counter"`
	GCRelocated     uint64           `json:"gc_entries_relocated" prom:"flatstore_gc_entries_relocated_total,counter"`
	GCDropped       uint64           `json:"gc_entries_dropped" prom:"flatstore_gc_entries_dropped_total,counter"`
	LogChunksClosed uint64           `json:"log_chunks_closed" prom:"flatstore_log_chunks_closed,gauge"` // closed log chunks held (every log chunk but the tails)
	LogLiveBytes    uint64           `json:"log_live_bytes" prom:"flatstore_log_live_bytes,gauge"`       // entry bytes in them a recovery still needs
	Keys            uint64           `json:"keys" prom:"flatstore_keys,gauge"`
	FreeChunks      uint64           `json:"free_chunks" prom:"flatstore_free_chunks,gauge"`
	RawChunks       uint64           `json:"raw_chunks" prom:"flatstore_raw_chunks,gauge"`
	HugeChunks      uint64           `json:"huge_chunks" prom:"flatstore_huge_chunks,gauge"`
	Classes         []ClassOcc       `json:"alloc_classes"`
	Groups          []GroupSnap      `json:"hb_groups" label:"group"`
	Integrity       stats.Integrity  `json:"integrity"`
	Net             NetSnap          `json:"net"`
	Repl            ReplSnap         `json:"repl"`
	Shard           ShardSnap        `json:"shard"`
	Tier            TierSnap         `json:"tier"`
	PM              PMSnap           `json:"pm"`
	SlowThresholdNs int64            `json:"slow_threshold_ns"`
	SlowOps         []SlowOp         `json:"slow_ops" prom:"flatstore_slow_ops_traced,gauge"` // oldest first, merged across cores
}

// Snapshot merges the per-core metric blocks. All allocation happens
// here, on the reader side; the recording side never allocates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		UptimeNs:        r.Now(),
		Cores:           len(r.cores),
		SlowThresholdNs: r.slowThresh,
		GCPasses:        r.gcPasses.Load(),
		GCCleaned:       r.gcCleaned.Load(),
		GCRelocated:     r.gcRelocated.Load(),
		GCDropped:       r.gcDropped.Load(),
	}
	for k := 0; k < NumOps; k++ {
		k := k // capture per-iteration for the closure below
		s.Ops[k].Op = KindName(k)
		for _, cm := range r.cores {
			s.Ops[k].Count += cm.OpCount[k].Load()
			s.Ops[k].Errors += cm.OpErr[k].Load()
		}
		s.Ops[k].Latency = mergeHists(func(cm *CoreMetrics) *Hist { return &cm.OpLat[k] }, r.cores)
	}
	s.BatchSize = mergeHists(func(cm *CoreMetrics) *Hist { return &cm.BatchSize }, r.cores)
	s.BatchBytes = mergeHists(func(cm *CoreMetrics) *Hist { return &cm.BatchBytes }, r.cores)
	for _, cm := range r.cores {
		s.LeadBatches += cm.LeadBatches.Load()
		s.OwnOps += cm.OwnOps.Load()
		s.StolenOps += cm.StolenOps.Load()
		s.FollowedOps += cm.FollowedOps.Load()
		s.LogBytes += cm.LogBytes.Load()
		s.FlushUnits += cm.FlushUnits.Load()
		s.SlowOps = cm.slow.snapshot(s.SlowOps)
	}
	return s
}
