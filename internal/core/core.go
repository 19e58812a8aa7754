package core

import (
	"runtime"
	"sync"

	"flatstore/internal/alloc"
	"flatstore/internal/batch"
	"flatstore/internal/bufpool"
	"flatstore/internal/index"
	"flatstore/internal/obs"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
)

// Core is one server core: it polls its message buffers, runs the
// l-persist phase locally, publishes entries for horizontal batching, and
// finishes the volatile phase when the leader signals durability.
//
// The public per-step methods (Submit, TryLead, DrainCompleted,
// TakeResponses) exist so the virtual-time simulator can drive a core
// explicitly; Run's goroutine loop composes them in Step.
type Core struct {
	st     *Store
	id     int
	f      *pmem.Flusher
	ca     *alloc.CoreAlloc
	log    *oplog.Log
	idx    index.Index
	group  *batch.Group
	member int
	port   *rpc.CorePort
	// met is this core's single-writer metrics block: only this core's
	// goroutine records into it, so every Note* call is a plain
	// load-then-store (no RMW contention on the hot path).
	met *obs.CoreMetrics

	// idxMu serializes index+registry access between this core and the
	// group cleaner. Uncontended in the hot path.
	idxMu sync.Mutex
	// busy is the conflict queue (§3.3 Discussion): keys with in-flight
	// modifications, and the requests deferred behind them.
	busy map[uint64]*inflight
	// coldBuf is readEntry's scratch: a cold Get or Scan reads each
	// record into it and copies the value out.
	coldBuf []byte
	// reg tracks per-key version continuity and stale-entry counts for
	// tombstone reclamation (rebuilt on recovery). It holds its values:
	// a key's first overwrite costs no heap object, and the collector
	// has no pointers to scan in it. A writer reads a value, changes
	// the copy and stores it back.
	reg map[uint64]keyMeta
	// quar maps quarantined keys — media corruption destroyed (or cast
	// doubt on) their last acknowledged value — to the highest version
	// that value may have carried. Guarded by idxMu. Reads answer
	// StatusCorrupt; a successful Put or Delete clears the entry and
	// continues the version sequence past the recorded high-water mark,
	// so the lost value can never resurface as "newer".
	quar map[uint64]uint32

	pending  []*batch.PendingOp // own published ops, FIFO; [:pendHead] already completed
	pendHead int                // index of the oldest uncompleted op in pending
	outbox   []Outgoing         // responses awaiting transmission
	// outboxSpare is the second half of TakeResponses's double buffer:
	// the previously handed-out slice, reused once the caller is done.
	outboxSpare []Outgoing

	// Per-core freelists and scratch. All are touched only by the owning
	// core's goroutine (or the single-threaded simulator), so reuse needs
	// no synchronization: slotFree recycles the op/entry/ctx storage of
	// completed writes, flFree the conflict-queue nodes, and the lead*
	// slices the leader-side batch buffers.
	slotFree    []*pendingSlot
	flFree      []*inflight
	leadOps     []*batch.PendingOp
	leadEntries []*oplog.Entry
	leadOffs    []int64

	reads uint64 // PM reads (for the simulator's cost model)

	// touched decides which cold records a Get promotes (nil untiered).
	touched *touchSketch
}

// pendingSlot bundles the per-write allocations — the PendingOp, its log
// entry, and its opCtx — into one recyclable unit. A slot is handed out
// in startModify and returns to the freelist in complete, after every
// reference to it (group pool cell, pending cell, leader batch) is gone.
type pendingSlot struct {
	op    batch.PendingOp
	entry oplog.Entry
	ctx   opCtx
}

func (c *Core) getSlot() *pendingSlot {
	if n := len(c.slotFree); n > 0 {
		s := c.slotFree[n-1]
		c.slotFree[n-1] = nil
		c.slotFree = c.slotFree[:n-1]
		return s
	}
	return &pendingSlot{}
}

func (c *Core) putSlot(s *pendingSlot) {
	// Drop value references (the entry may alias a pooled request buffer
	// that is released separately) but keep the slot itself.
	s.entry = oplog.Entry{}
	s.ctx = opCtx{}
	c.slotFree = append(c.slotFree, s)
}

func (c *Core) getInflight() *inflight {
	if n := len(c.flFree); n > 0 {
		fl := c.flFree[n-1]
		c.flFree[n-1] = nil
		c.flFree = c.flFree[:n-1]
		return fl
	}
	return &inflight{}
}

func (c *Core) putInflight(fl *inflight) {
	fl.count = 0
	fl.lastVer = 0
	if fl.waiters != nil {
		fl.waiters = fl.waiters[:0]
	}
	c.flFree = append(c.flFree, fl)
}

// coldScratchMax is the largest cold scratch a core keeps between reads.
const coldScratchMax = 64 << 10

// keyMeta is the per-key GC bookkeeping: the highest version ever issued
// (so versions keep increasing across deletes) and the number of stale
// Put entries still sitting in un-cleaned chunks (a tombstone may only be
// reclaimed once that count reaches zero, or a crash could resurrect an
// older Put). tombOff is where a deleted key's tombstone sits while the
// usage table counts it live (0: no tombstone, or one already counted
// dead): the table learns of its death when the last entry it guards
// leaves the log, not when the cleaner next happens to scan it.
type keyMeta struct {
	lastVer uint32
	stale   int32
	deleted bool
	tombOff int64
}

// guarded reports whether a deleted key's tombstone still has something to
// guard (§3.4: a tombstone "can be safely reclaimed only after all the log
// entries related to this KV item have been reclaimed"): an older Put entry
// a crash could replay, or — with a cold tier — a segment whose bloom still
// admits the key and may hold an older cold record, which the tombstone
// must outlive.
func (st *Store) guarded(key uint64, m keyMeta) bool {
	return m.stale > 0 || (st.tier != nil && st.tier.MayContain(key))
}

// settleTombstone counts key's tombstone dead in the usage table once it
// guards nothing any more. Liveness itself is the cleaner's call when it
// scans the entry; this only keeps the table's "live" honest, so a chunk
// holding nothing but released tombstones reads as empty. m is the
// caller's copy of key's registry value, which it stores back. Caller
// holds the owning core's idxMu.
func (st *Store) settleTombstone(key uint64, m *keyMeta) {
	if m.deleted && m.tombOff != 0 && !st.guarded(key, *m) {
		st.usage.markDead(chunkOf(m.tombOff), oplog.HeaderSize)
		m.tombOff = 0
	}
}

// deferred is a request parked behind a conflicting in-flight key. t0 is
// the original arrival timestamp: a replayed request keeps the clock it
// started with, so queueing delay counts toward its latency.
type deferred struct {
	req    rpc.Request
	client int
	t0     int64
}

// inflight tracks a key with unacknowledged modifications. Puts to the
// same key PIPELINE: each is assigned the next version at submission, and
// completions apply in publication (hence version) order, so a skewed
// stream of writes to one hot key is not serialized on persist latency.
// Reads and deletes, however, must observe the effects of earlier writes
// (the §3.3 reordering discussion), so they park in waiters until the
// in-flight count drains to zero; once anything is parked, later writes
// park behind it too, preserving arrival order per key.
type inflight struct {
	count   int    // unacknowledged puts/deletes
	lastVer uint32 // version handed to the most recent in-flight op
	waiters []deferred
}

// Outgoing is a response with its destination client.
type Outgoing struct {
	Client int
	Resp   rpc.Response
}

const (
	// MaxPoll bounds the requests a core pulls from its rings per loop
	// iteration; it also caps a vertical batch.
	MaxPoll = 16
	// maxScanLimit bounds a scan when the client sent no (or an absurd)
	// limit.
	maxScanLimit = 1 << 20
	// scanPresize caps the result capacity committed before a scan finds
	// its first pair.
	scanPresize = 256
)

// opCtx travels with a PendingOp from Submit to completion. What the op
// supersedes is determined at completion time (writes pipeline per key).
type opCtx struct {
	client  int
	reqID   uint64
	op      uint8 // rpc.OpPut or rpc.OpDelete
	key     uint64
	version uint32
	// buf is the pooled request buffer backing the entry's inline value
	// (rpc.Request.Buf ownership transfer); released in complete, after
	// the leader has encoded the value into the log.
	buf []byte
	// slot points back to the recyclable storage this ctx lives in.
	slot *pendingSlot
	// t0 is the arrival timestamp (registry clock) for latency accounting.
	t0 int64
	// ackErr downgrades the response to StatusError even though the op is
	// durable and applied: the seal hook could not guarantee replication,
	// so the client must treat the write as maybe-applied. Written by the
	// leader before MarkDone (same store-release edge as Off).
	ackErr bool
}

// ID returns the core's id.
func (c *Core) ID() int { return c.id }

// Flusher exposes the core's flusher (the simulator drains its events).
func (c *Core) Flusher() *pmem.Flusher { return c.f }

// Log exposes the core's OpLog.
func (c *Core) Log() *oplog.Log { return c.log }

// Index exposes the core's volatile index.
func (c *Core) Index() index.Index { return c.idx }

// TakeReads returns and clears the core's PM read count.
func (c *Core) TakeReads() uint64 {
	r := c.reads
	c.reads = 0
	return r
}

// Step runs one iteration of the core loop: finish completed ops, drain
// agent duties, poll up to MaxPoll requests, attempt to lead a batch, and
// transmit responses. Returns whether any work was done.
func (c *Core) Step() bool {
	worked := c.DrainCompleted() > 0
	if c.port != nil {
		if c.port.DrainDelegated() > 0 {
			worked = true
		}
		for i := 0; i < MaxPoll; i++ {
			req, client, ok := c.port.Poll()
			if !ok {
				break
			}
			c.Submit(req, client)
			worked = true
		}
	}
	if c.group.AnyPending() {
		c.TryLead()
		if c.group.Mode() == batch.ModeNaiveHB {
			// Naive HB: block until this core's posted entries are
			// durable before touching the next request (Figure 4c).
			for c.hasPendingOwn() {
				if c.TryLead() == 0 && c.DrainCompleted() == 0 {
					runtime.Gosched() // another core is leading
				}
			}
		}
		worked = true
	}
	worked = c.flushOutbox() || worked
	return worked
}

func (c *Core) hasPendingOwn() bool {
	for _, op := range c.pending[c.pendHead:] {
		if !op.Done() {
			return true
		}
	}
	return false
}

// flushOutbox transmits queued responses through the port.
func (c *Core) flushOutbox() bool {
	if c.port == nil || len(c.outbox) == 0 {
		return false
	}
	for i := range c.outbox {
		c.port.Respond(c.outbox[i].Client, c.outbox[i].Resp)
		c.outbox[i] = Outgoing{} // drop value refs; the ring owns them now
	}
	c.outbox = c.outbox[:0]
	return true
}

// TakeResponses hands the queued responses to a simulator (which owns
// transmission in virtual time). The outbox is double-buffered: the
// returned slice's backing array is reused starting from the call after
// the next one, so the caller must consume (or copy out) the responses
// before stepping the core twice more — the simulator consumes them
// within the same step.
func (c *Core) TakeResponses() []Outgoing {
	out := c.outbox
	if c.outboxSpare != nil {
		c.outbox = c.outboxSpare[:0]
	} else {
		c.outbox = nil
	}
	c.outboxSpare = out
	return out
}

// Submit processes one request through the engine's state machine. Reads
// respond immediately; writes run their l-persist phase and are published
// for batching (or, in ModeNone, persisted on the spot). If req.Buf is
// set, Submit takes ownership of it (see rpc.Request).
func (c *Core) Submit(req rpc.Request, client int) {
	c.submitAt(req, client, c.st.obs.Now())
}

// submitAt is Submit with an explicit arrival timestamp: replays of
// parked requests pass the time they originally arrived, so conflict-
// queue delay shows up in the latency histograms.
func (c *Core) submitAt(req rpc.Request, client int, t0 int64) {
	if req.Buf != nil && req.Op != rpc.OpPut {
		// Only a Put's value bytes outlive the decode; every other op's
		// pooled request buffer is dead on arrival.
		bufpool.Put(req.Buf)
		req.Buf, req.Value = nil, nil
	}
	fl := c.busy[req.Key]
	switch req.Op {
	case rpc.OpGet:
		if fl != nil {
			fl.waiters = append(fl.waiters, deferred{req, client, t0})
			return
		}
		c.respondGet(req, client, t0)
	case rpc.OpScan:
		c.respondScan(req, client, t0)
	case rpc.OpPut:
		if fl != nil && len(fl.waiters) > 0 {
			// A parked read/delete must not be overtaken.
			fl.waiters = append(fl.waiters, deferred{req, client, t0})
			return
		}
		c.startModify(req, client, t0)
	case rpc.OpDelete:
		if fl != nil {
			fl.waiters = append(fl.waiters, deferred{req, client, t0})
			return
		}
		c.startModify(req, client, t0)
	default:
		c.outbox = append(c.outbox, Outgoing{client, rpc.Response{ID: req.ID, Status: rpc.StatusError}})
	}
}

// noteDone records one finished request into the core's metrics block
// and, when its latency reaches the slow threshold, traces it with its
// per-stage offsets (nanoseconds from arrival; zero = stage not taken —
// reads have no seal/flush/index phases). NotFound is a normal outcome,
// not an error.
func (c *Core) noteDone(kind int, key uint64, status uint8, t0, seal, flush, idx int64) {
	end := c.st.obs.Now()
	lat := end - t0
	c.met.NoteOp(kind, status == rpc.StatusOK || status == rpc.StatusNotFound, lat)
	if th := c.st.obs.SlowThreshold(); th > 0 && lat >= th {
		c.met.NoteSlow(obs.SlowOp{
			Core: int32(c.id), Op: int32(kind), Key: key,
			Start: t0, Seal: seal, Flush: flush, Index: idx, Total: lat,
		})
	}
}

// readEntry copies out the value behind ref, which the caller resolved
// from key, into a pooled buffer: from the arena, or from the core's cold
// scratch, which a cold record is read into. corrupt reports bytes that
// failed their CRC (either tier): the caller must not treat the key as
// merely absent. Called on the core's goroutine, the scratch's one user.
func (c *Core) readEntry(key uint64, ref int64) (val []byte, ok, corrupt bool) {
	pm := !index.Cold(ref)
	if pm {
		c.st.reclaimMu.RLock()
	}
	d := c.st.deref(key, ref, &c.coldBuf)
	if d.state == refOK {
		// A PM view is stable only under the lock, the scratch only until
		// the next cold read: copy before releasing.
		val = bufpool.Get(len(d.val))
		copy(val, d.val)
	}
	if pm {
		c.st.reclaimMu.RUnlock()
	} else if cap(c.coldBuf) > coldScratchMax {
		c.coldBuf = nil // one large record does not pin its buffer
	}
	if pm && d.state != refGone {
		c.reads++
		if !d.inline {
			c.reads++
		}
	}
	return val, d.state == refOK, d.state == refRotted
}

// quarantine removes key from the index and records it as corrupt, with
// ver (and anything higher the registry or index knew) as the version
// high-water mark a future overwrite must exceed.
func (c *Core) quarantine(key uint64, ver uint32) {
	c.idxMu.Lock()
	c.quarantineLocked(key, ver)
	c.idxMu.Unlock()
}

// Quarantined reports whether key is currently quarantined: its last
// acknowledged state was lost to media corruption and reads fail with a
// corruption status until the key is overwritten or deleted.
func (c *Core) Quarantined(key uint64) bool {
	c.idxMu.Lock()
	_, ok := c.quar[key]
	c.idxMu.Unlock()
	return ok
}

// quarantineLocked is quarantine for callers already holding idxMu (the
// scrubber quarantines while iterating the index under the lock).
func (c *Core) quarantineLocked(key uint64, ver uint32) {
	if hi, _ := c.lastVersion(key); hi > ver {
		ver = hi
	}
	c.idx.Delete(key)
	c.quar[key] = ver
}

func (c *Core) respondGet(req rpc.Request, client int, t0 int64) {
	resp := rpc.Response{ID: req.ID, Status: rpc.StatusNotFound}
	for attempt := 0; attempt < 4; attempt++ {
		c.idxMu.Lock()
		ref, ver, ok := c.idx.Get(req.Key)
		_, quarantined := c.quar[req.Key]
		c.idxMu.Unlock()
		if quarantined {
			resp.Status = rpc.StatusCorrupt
			break
		}
		if !ok {
			break
		}
		v, vok, corrupt := c.readEntry(req.Key, ref)
		if (corrupt || !vok) && c.refMoved(req.Key, ref) {
			// The record moved underneath us (GC relocation, demotion,
			// promotion, or tier compaction repointed the key between
			// the index lookup and the read): chase the fresh ref.
			continue
		}
		switch {
		case corrupt:
			// Detected on the read path (rot since the last scrub):
			// quarantine now rather than serve garbage or a false miss.
			c.quarantine(req.Key, ver)
			c.st.noteChecksumErrors(1)
			resp.Status = rpc.StatusCorrupt
		case vok:
			// Every served Get marks its key, so a popular key the cleaner
			// demoted comes back on its first cold read; a cold record
			// nobody touched lately is served from disk and stays there.
			seen := c.touched != nil && c.touched.touch(req.Key)
			if index.Cold(ref) {
				switch {
				case !seen || c.st.repl.owner.Load():
					// A first touch — or a replica, whose PM is the
					// replication goroutine's to write (SetReplOwner).
					c.st.tier.NotePromoteDeferred()
				case c.promote(req.Key, ver, v):
					c.st.tier.NotePromoted(1)
				default:
					c.st.tier.NotePromoteFailed()
				}
			}
			resp = rpc.Response{ID: req.ID, Status: rpc.StatusOK, Value: v}
		}
		break
	}
	c.noteDone(obs.KindGet, req.Key, resp.Status, t0, 0, 0, 0)
	c.outbox = append(c.outbox, Outgoing{client, resp})
}

// refMoved reports whether the index no longer maps key to ref — a read
// that failed against ref should then retry rather than conclude
// missing/corrupt.
func (c *Core) refMoved(key uint64, ref int64) bool {
	c.idxMu.Lock()
	cur, _, ok := c.idx.Get(key)
	c.idxMu.Unlock()
	return ok && cur != ref
}

// promote re-appends a tier-resident value to this core's PM log under
// its existing version and repoints the index, so subsequent reads of
// the key are PM hits again. Best-effort: on any failure it reports false
// and the key simply stays cold (the value was already served from the
// tier). Writing the same (version, value) the tier holds keeps every
// recovery resolution correct whichever copy it picks.
func (c *Core) promote(key uint64, ver uint32, val []byte) bool {
	e := oplog.Entry{Op: oplog.OpPut, Version: ver, Key: key}
	if c.materialize(c.f, &e, val) != nil {
		return false
	}
	// The one write no batch carries: a batch of one in this core's log.
	off, err := c.log.Append(c.f, &e)
	if err != nil {
		c.unmaterialize(c.f, &e)
		return false
	}
	c.accountAppend(off, e.EncodedSize())
	c.idxMu.Lock()
	// Tier compaction may have repointed the key since the caller read it:
	// a cold copy of the same version is the same write wherever it sits
	// now, so whatever cold ref the index holds is the one swapped out.
	cold, curVer, ok := c.idx.Get(key)
	promoted := ok && index.Cold(cold) && curVer == ver && c.idx.CompareAndSwapRef(key, cold, off)
	if !promoted {
		// The key moved on (overwritten, deleted, quarantined): the fresh
		// PM entry is not the index target, i.e. a stale log copy the
		// registry must account for (recovery recomputes stale as
		// put-entries-minus-index-target).
		m, ok := c.reg[key]
		if !ok {
			m.lastVer = ver
		}
		m.stale++
		c.reg[key] = m
	}
	c.idxMu.Unlock()
	if promoted {
		c.st.tier.MarkDead(cold)
	} else {
		c.st.usage.markDead(chunkOf(off), e.EncodedSize())
	}
	return promoted
}

func (c *Core) respondScan(req rpc.Request, client int, t0 int64) {
	ordered, ok := c.idx.(index.Ordered)
	if !ok {
		c.noteDone(obs.KindScan, req.Key, rpc.StatusError, t0, 0, 0, 0)
		c.outbox = append(c.outbox, Outgoing{client, rpc.Response{ID: req.ID, Status: rpc.StatusError}})
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > maxScanLimit {
		limit = maxScanLimit
	}
	// Pre-size from the client's limit, capped so a huge (or defaulted)
	// limit cannot commit a huge buffer up front.
	presize := limit
	if presize > scanPresize {
		presize = scanPresize
	}
	pairs := make([]rpc.Pair, 0, presize)
	// Quarantined keys are absent from the index and therefore silently
	// skipped by scans; corrupt records discovered mid-scan are skipped
	// too (the scrubber or a direct Get quarantines them).
	// The index orders keys across both tiers, so a single index walk
	// yields a globally ordered, duplicate-free merge: readEntry resolves
	// each ref to PM bytes or a cold segment read as the tier bit says.
	ordered.Scan(req.Key, req.ScanHi, func(k uint64, ref int64, _ uint32) bool {
		v, vok, _ := c.readEntry(k, ref)
		for attempt := 0; !vok && attempt < 3; attempt++ {
			// The record may have moved mid-scan (GC relocation,
			// demotion, tier compaction): re-resolve under the owning
			// core's index lock and retry before skipping the key.
			oc := c.st.cores[c.st.CoreOf(k)]
			oc.idxMu.Lock()
			ref2, _, ok2 := oc.idx.Get(k)
			oc.idxMu.Unlock()
			if !ok2 || ref2 == ref {
				break
			}
			ref = ref2
			v, vok, _ = c.readEntry(k, ref)
		}
		if vok {
			pairs = append(pairs, rpc.Pair{Key: k, Value: v})
		}
		return len(pairs) < limit
	})
	c.noteDone(obs.KindScan, req.Key, rpc.StatusOK, t0, 0, 0, 0)
	c.outbox = append(c.outbox, Outgoing{client, rpc.Response{ID: req.ID, Status: rpc.StatusOK, Pairs: pairs}})
}

// startModify runs the l-persist phase of a Put/Delete and publishes the
// log entry for batching. The version is assigned here — before
// persistence — so back-to-back writes to one key can be in flight
// together (their completions apply in FIFO, hence version, order).
func (c *Core) startModify(req rpc.Request, client int, t0 int64) {
	var version uint32

	fl := c.busy[req.Key]
	if fl != nil {
		version = fl.lastVer + 1
	} else {
		c.idxMu.Lock()
		last, present := c.lastVersion(req.Key)
		c.idxMu.Unlock()
		version = last + 1
		// Deleting a quarantined key proceeds: it writes the tombstone the
		// client asked for and clears the quarantine.
		if req.Op == rpc.OpDelete && !present {
			c.noteDone(obs.KindDelete, req.Key, rpc.StatusNotFound, t0, 0, 0, 0)
			c.outbox = append(c.outbox, Outgoing{client, rpc.Response{ID: req.ID, Status: rpc.StatusNotFound}})
			return
		}
	}

	s := c.getSlot()
	s.ctx = opCtx{client: client, reqID: req.ID, op: req.Op, key: req.Key, version: version, slot: s, t0: t0}
	s.entry = oplog.Entry{Version: version, Key: req.Key}
	entry := &s.entry
	if req.Op == rpc.OpDelete {
		entry.Op = oplog.OpDelete
	} else {
		entry.Op = oplog.OpPut
		// l-persist: an out-of-place record becomes durable before its
		// log entry (step 1 of §3.2's Put sequence).
		if err := c.materialize(c.f, entry, req.Value); err != nil {
			c.putSlot(s)
			bufpool.Put(req.Buf)
			c.noteDone(obs.KindPut, req.Key, rpc.StatusError, t0, 0, 0, 0)
			c.outbox = append(c.outbox, Outgoing{client, rpc.Response{ID: req.ID, Status: rpc.StatusError}})
			return
		}
		switch {
		case !entry.Inline:
			// The value now lives in its durable record; a pooled request
			// buffer is dead.
			bufpool.Put(req.Buf)
		case req.Buf != nil:
			// Ownership transfer (zero copy): the entry aliases the
			// pooled request buffer until the leader encodes it into
			// the log; complete releases it.
			s.ctx.buf = req.Buf
		default:
			// The sender keeps its value buffer (and may reuse it as
			// soon as we return): copy into a pooled scratch that
			// complete releases once the entry is durable.
			v := bufpool.Get(len(req.Value))
			copy(v, req.Value)
			entry.Value = v
			s.ctx.buf = v
		}
	}

	op := &s.op
	op.Reset(entry, c.id, &s.ctx)
	if fl == nil {
		fl = c.getInflight()
		c.busy[req.Key] = fl
	}
	fl.count++
	fl.lastVer = version

	if c.group.Mode() == batch.ModeNone {
		// Base configuration: persist the entry immediately, alone.
		off, err := c.log.Append(c.f, entry)
		if err != nil {
			op.Off = -1
			op.MarkDone()
			c.complete(op)
			return
		}
		op.Off = off
		if h := c.st.repl.hook; h != nil {
			// A batch of one for the replication stream too.
			c.st.repl.sealed.Add(1)
			c.leadEntries = append(c.leadEntries[:0], entry)
			if herr := h(c.leadEntries); herr != nil {
				s.ctx.ackErr = true
			}
		}
		// A batch of one: seal and persist collapse into the Append.
		now := c.st.obs.Now()
		op.TSeal, op.TPersist = now, now
		size := entry.EncodedSize()
		op.MarkDone()
		c.accountAppend(off, size)
		c.met.NoteBatch(1, 1, int64(size))
		c.complete(op)
		return
	}
	c.group.Publish(c.member, op)
	c.pending = append(c.pending, op)
}

// TryLead attempts the g-persist phase: win the group lock, steal every
// published entry, persist them to this core's OpLog in one batch, and
// signal the owners. Under pipelined HB the lock is released right after
// collection so the next batch can form during the flush. Returns the
// batch size (0 if the lock was busy or nothing was pending).
func (c *Core) TryLead() int {
	return len(c.TryLeadOps())
}

// TryLeadOps is TryLead exposing the collected batch (the virtual-time
// simulator needs the owners to schedule per-core completion gates).
// The returned slice is this core's recycled lead scratch: it is valid
// until this core's next TryLeadOps call, and callers (Step, the
// simulator) consume it within the same step.
func (c *Core) TryLeadOps() []*batch.PendingOp {
	if !c.group.TryLead() {
		return nil
	}
	ops := c.group.CollectInto(c.member, c.leadOps[:0])
	c.leadOps = ops
	if c.group.Mode() == batch.ModePipelinedHB || c.group.Mode() == batch.ModeVertical {
		c.group.Unlock()
	}
	if len(ops) == 0 {
		if c.group.Mode() == batch.ModeNaiveHB {
			c.group.Unlock()
		}
		return nil
	}
	// The batch is sealed: no more entries can join it. Stamp once and
	// share the timestamp across every op in the batch.
	tSeal := c.st.obs.Now()
	entries := c.leadEntries[:0]
	for _, op := range ops {
		entries = append(entries, op.Entry)
	}
	c.leadEntries = entries
	offs, err := c.log.AppendBatchOffs(c.f, entries, c.leadOffs[:0])
	c.leadOffs = offs[:0]
	if err != nil {
		// Log space exhausted: fail the ops.
		for _, op := range ops {
			op.Off = -1
			op.Leader = c.id
			op.MarkDone()
		}
	} else {
		// Ship the sealed batch before acknowledging it: the hook runs
		// while the entries (and their records) are still stable — no op
		// has been marked done, so no slot can be recycled and no record
		// superseded. A hook error downgrades every ack to maybe-applied.
		var hookErr error
		if h := c.st.repl.hook; h != nil {
			c.st.repl.sealed.Add(int64(len(ops)))
			hookErr = h(entries)
		}
		tPersist := c.st.obs.Now()
		own := 0
		for i, op := range ops {
			// Read the op and entry BEFORE MarkDone: completion recycles
			// the op's slot, so both are only stable until the owner
			// observes Done. The leader/seal/persist stamps ride the same
			// store-release edge as Off.
			if op.Owner == c.id {
				own++
			}
			op.Off = offs[i]
			op.Leader = c.id
			op.TSeal = tSeal
			op.TPersist = tPersist
			if hookErr != nil {
				op.Ctx.(*opCtx).ackErr = true
			}
			c.accountAppend(offs[i], entries[i].EncodedSize())
			op.MarkDone()
		}
		c.met.NoteBatch(len(ops), own, int64(c.log.LastBatchBytes()))
	}
	if c.group.Mode() == batch.ModeNaiveHB {
		c.group.Unlock()
	}
	return ops
}

// accountAppend records the new entry's bytes in the chunk usage table.
func (c *Core) accountAppend(off int64, size int) {
	c.st.usage.account(chunkOf(off), c.id, size)
}

// DrainCompleted finishes the volatile phase of every durable own op, in
// publication order, and returns how many completed.
func (c *Core) DrainCompleted() int {
	return c.DrainCompletedLimit(c.PendingCount())
}

// DrainCompletedLimit completes at most max durable own ops (the
// simulator gates completions by virtual durability time). The pending
// queue advances by head index so the backing array is reused instead of
// re-grown once drained.
func (c *Core) DrainCompletedLimit(max int) int {
	// Record blocks released by goroutines that may not touch this core's
	// chunks (the cleaner's demotions, the checkpointer) wait in the
	// allocator for their owner — on a replica, the next applied batch.
	if !c.st.repl.owner.Load() {
		c.ca.Drain(c.f)
	}
	n := 0
	for n < max && c.pendHead < len(c.pending) && c.pending[c.pendHead].Done() {
		op := c.pending[c.pendHead]
		c.pending[c.pendHead] = nil // the slot is recycled in complete
		c.pendHead++
		c.complete(op)
		n++
	}
	if c.pendHead > 0 && c.pendHead == len(c.pending) {
		c.pending = c.pending[:0]
		c.pendHead = 0
	}
	return n
}

// PendingCount reports how many own ops await durability or completion.
func (c *Core) PendingCount() int { return len(c.pending) - c.pendHead }

// GroupPending reports whether any group member has entries awaiting a
// leader (idle cores volunteer to lead on this signal).
func (c *Core) GroupPending() bool { return c.group.AnyPending() }

// complete finishes a write once its leader has signalled the outcome: a
// durable one runs the volatile phase (supersede), a failed one gives its
// record back; either way the conflict queue is unblocked and the response
// queued. It also retires the op's storage: the slot returns to the
// freelist and the pooled value buffer (if any) goes back to bufpool —
// both are dead once the leader published Done, since the entry was
// already encoded into the log.
func (c *Core) complete(op *batch.PendingOp) {
	ctx := *(op.Ctx.(*opCtx))
	off := op.Off
	leader := op.Leader
	tSeal, tPersist := op.TSeal, op.TPersist
	status := rpc.StatusOK
	var tIdx int64
	if off < 0 {
		status = rpc.StatusError
		c.unmaterialize(c.f, op.Entry)
	} else {
		if c.st.repl.hook != nil {
			// This op passed the seal hook (every successfully appended op
			// does when a hook is installed); its volatile phase finishes
			// now, shrinking the backlog a snapshot capture waits out.
			c.st.repl.completed.Add(1)
		}
		if ctx.ackErr {
			status = rpc.StatusError
		}
		c.supersede(c.f, ctx.key, off, ctx.version, ctx.op == rpc.OpDelete)
		tIdx = c.st.obs.Now()
	}
	if ctx.slot != nil {
		c.putSlot(ctx.slot) // op and entry are invalid from here on
	}
	bufpool.Put(ctx.buf)
	kind := obs.KindPut
	if ctx.op == rpc.OpDelete {
		kind = obs.KindDelete
	}
	if leader != c.id {
		c.met.FollowedOps.Add(1)
	}
	var seal, flush, idxOff int64
	if tSeal > 0 {
		seal = tSeal - ctx.t0
	}
	if tPersist > 0 {
		flush = tPersist - ctx.t0
	}
	if tIdx > 0 {
		idxOff = tIdx - ctx.t0
	}
	c.noteDone(kind, ctx.key, status, ctx.t0, seal, flush, idxOff)
	c.outbox = append(c.outbox, Outgoing{ctx.client, rpc.Response{ID: ctx.reqID, Status: status}})

	// Shrink the in-flight window; once it drains, replay the parked
	// requests in arrival order (Submit re-parks them as needed).
	fl := c.busy[ctx.key]
	if fl == nil {
		return
	}
	fl.count--
	if fl.count > 0 {
		return
	}
	waiters := fl.waiters
	delete(c.busy, ctx.key)
	if len(waiters) == 0 {
		c.putInflight(fl)
		return
	}
	// Detach the waiter list before recycling the node: the replayed
	// Submits below may pull fl from the freelist for another key.
	fl.waiters = nil
	c.putInflight(fl)
	for i := range waiters {
		d := waiters[i]
		waiters[i] = deferred{} // drop request value refs
		c.submitAt(d.req, d.client, d.t0)
	}
}
