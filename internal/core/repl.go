package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
)

// Replication support: the hooks a replication controller (internal/repl)
// needs from the engine. The store itself stays replication-agnostic — it
// exposes a seal hook (every durable batch, before its ops are
// acknowledged), a version-gated batch apply over the write path's own
// steps (apply.go), a consistent live-key capture for follower bootstrap,
// and a durable (epoch, position) slot in the superblock.

// SealHook observes every sealed-and-durable oplog batch before any of
// its ops are acknowledged. The entries (and the records they point at)
// are stable for the duration of the call; the hook must copy what it
// keeps. Returning an error downgrades every op in the batch to
// StatusError ("maybe applied": the batch IS durable locally and stays
// applied, but clients must not treat it as acknowledged) — the
// controller uses this when it cannot guarantee the batch reached the
// configured number of followers.
//
// The hook is called from server-core goroutines and may be called
// concurrently (pipelined horizontal batching admits two in-flight
// leaders); it must synchronize internally.
type SealHook func(entries []*oplog.Entry) error

// replCore is the engine half of the replication wiring, embedded in
// Store.
type replCore struct {
	hook SealHook
	// sealed/completed count ops that passed the hook and ops whose
	// volatile phase finished; their difference is the apply backlog a
	// snapshot capture must wait out (see ReplQuiesce).
	sealed    atomic.Int64
	completed atomic.Int64

	// owner is the ownership rule's one flag, see SetReplOwner.
	owner atomic.Bool

	// mu guards f — the replication flusher: the superblock repl slot and
	// every applied batch go through it, from controller goroutines, never
	// from a core — and ReplApplyBatch's scratch.
	mu    sync.Mutex
	f     *pmem.Flusher
	ents  []oplog.Entry
	batch []*oplog.Entry
	offs  []int64
}

// SetSealHook installs the seal hook. Must be called before Run (the
// cores read it unsynchronized); installing a hook while serving is a
// race.
func (st *Store) SetSealHook(h SealHook) { st.repl.hook = h }

// EntryValue materializes the value bytes of a sealed Put entry: the
// inline bytes, or a view of the out-of-place record. The view aliases
// the arena and is only stable while the entry is (i.e. inside a
// SealHook, or under reclaimMu for arbitrary refs).
func (st *Store) EntryValue(e *oplog.Entry) ([]byte, error) {
	if e.Op != oplog.OpPut {
		return nil, nil
	}
	if e.Inline {
		return e.Value, nil
	}
	if err := record.Verify(st.arena, e.Ptr); err != nil {
		return nil, err
	}
	return record.View(st.arena, e.Ptr), nil
}

// ReplQuiesce waits until every sealed op has been applied to the index
// (so a capture started afterwards includes everything up to the
// caller's stream position). It fails if the store stays busy past the
// timeout; the caller retries later.
func (st *Store) ReplQuiesce(timeout time.Duration) error {
	inFlight := func() int64 { return st.repl.sealed.Load() - st.repl.completed.Load() }
	deadline := time.Now().Add(timeout)
	for inFlight() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: store not quiescent after %v (in-flight %d)", timeout, inFlight())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// SetReplOwner states who writes this store's PM. While on, the
// replication goroutine — the one caller of ReplApplyBatch — is the sole
// appender to every core's log and the sole user of every core's
// allocation context, and the cores serve reads without touching either: a
// cold Get is answered from the tier and the record stays cold (promotion
// appends and allocates), and a core leaves the frees the cleaner handed to
// its context for the next applied batch to drain. A controller turns it on
// before Run, for a store that follows a primary, and off once its apply
// loop has exited for good (a promotion).
func (st *Store) SetReplOwner(on bool) { st.repl.owner.Store(on) }

// ReplOp is one operation of a shipped batch: a Put of Val, or a Delete, of
// Key at the version the primary gave it. Val may alias the caller's frame
// buffer; it is not kept.
type ReplOp struct {
	Op  oplog.Op
	Ver uint32
	Key uint64
	Val []byte
}

// ReplApplyBatch applies one shipped batch the way a leader applies a
// sealed one (apply.go): every op is version-gated — a delivery at or below
// what the key's core knows is a duplicate (snapshot overlap, a refetch)
// and dropped — the survivors are materialized, appended to the log of the
// first survivor's core as ONE batch (one flush, one fence, one
// self-certifying trailer, whatever its size) and superseded in order, so a
// promoted follower recovers like any primary. A failed append gives every
// record back and applies nothing. The caller holds the ownership
// SetReplOwner declares; the stream orders a key's versions as the
// primary's log does.
func (st *Store) ReplApplyBatch(ops []ReplOp) (err error) {
	r := &st.repl
	if !r.owner.Load() {
		return errors.New("core: ReplApplyBatch without SetReplOwner: the cores own the logs")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.f.FlushEvents()
	for _, c := range st.cores {
		// Record frees handed over by the cleaner's demotions wait for
		// their context's owner.
		c.ca.Drain(r.f)
	}
	ents, batch := r.ents[:0], r.batch[:0]
	defer func() {
		if err != nil {
			for i := range ents {
				st.cores[st.CoreOf(ents[i].Key)].unmaterialize(r.f, &ents[i])
			}
		}
		clear(ents) // the values alias the caller's frame
		r.ents, r.batch = ents[:0], batch[:0]
	}()
	for i := range ops {
		op := &ops[i]
		if op.Op != oplog.OpPut && op.Op != oplog.OpDelete {
			return fmt.Errorf("core: repl batch: bad op %d", op.Op)
		}
		c := st.cores[st.CoreOf(op.Key)]
		c.idxMu.Lock()
		cur, _ := c.lastVersion(op.Key)
		c.idxMu.Unlock()
		if op.Ver <= cur {
			continue
		}
		e := oplog.Entry{Op: op.Op, Version: op.Ver, Key: op.Key}
		if e.Op == oplog.OpPut {
			if err := c.materialize(r.f, &e, op.Val); err != nil {
				return fmt.Errorf("core: repl alloc: %w", err)
			}
		}
		ents = append(ents, e)
	}
	if len(ents) == 0 {
		return nil
	}
	for i := range ents {
		batch = append(batch, &ents[i])
	}
	lead := st.cores[st.CoreOf(ents[0].Key)]
	offs, err := lead.log.AppendBatchOffs(r.f, batch, r.offs[:0])
	if err != nil {
		return fmt.Errorf("core: repl append: %w", err)
	}
	r.offs = offs
	for i, e := range batch {
		lead.accountAppend(offs[i], e.EncodedSize())
		st.cores[st.CoreOf(e.Key)].supersede(r.f, e.Key, offs[i], e.Version, e.Op == oplog.OpDelete)
	}
	return nil
}

// CaptureReplSnapshot walks every live key, in either tier, and emits
// (key, version, value) for follower bootstrap. The caller should
// ReplQuiesce first so the capture covers everything up to its chosen
// stream position; batches sealed during the capture overlap it harmlessly
// (the follower's version gate drops duplicates). The emitted value
// aliases the arena or a scratch buffer — emit must copy what it keeps.
// Keys whose record rotted at rest are skipped (the follower simply lacks
// them, as if quarantined).
func (st *Store) CaptureReplSnapshot(emit func(key uint64, ver uint32, val []byte) error) error {
	var pending []keyRef
	st.lockAllIdx()
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		pending = append(pending, keyRef{key: key, ref: ref, ver: ver})
	})
	st.unlockAllIdx()

	for _, k := range pending {
		c := st.cores[st.CoreOf(k.key)]
		for attempt := 0; attempt < 3; attempt++ {
			st.reclaimMu.RLock()
			d := st.deref(k.key, k.ref, nil)
			var err error
			if d.state == refOK {
				err = emit(k.key, k.ver, d.val)
			}
			st.reclaimMu.RUnlock()
			if err != nil {
				return err
			}
			if d.state == refOK {
				break
			}
			// The ref went stale (cleaner relocation, demotion, promotion):
			// re-resolve. A key deleted during the capture needs nothing —
			// the tombstone's batch is past the snapshot position and will
			// be refetched.
			var ok bool
			c.idxMu.Lock()
			k.ref, k.ver, ok = c.idx.Get(k.key)
			c.idxMu.Unlock()
			if !ok {
				break
			}
		}
	}
	return nil
}

// Durable replication state: (epoch, position) on its own superblock
// cacheline, CRC-protected so a torn update (or a pre-replication arena)
// reads as unset rather than garbage. The three words are one flush and one
// fence: stores reach media 8 bytes at a time, so a crash mid-flush leaves
// some words new and some old, which the checksum does not match.

var replStateTable = crc32.MakeTable(crc32.Castagnoli)

func replStateSum(epoch, pos uint64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], epoch)
	binary.LittleEndian.PutUint64(b[8:], pos)
	return uint64(crc32.Checksum(b[:], replStateTable))
}

// ReplState reads the persisted (epoch, position). An unset or torn slot
// reads as (0, 0); a node restarting with real history re-fences through
// its peers before trusting it.
func (st *Store) ReplState() (epoch, pos uint64) {
	e := st.arena.ReadUint64(offRepl)
	p := st.arena.ReadUint64(offRepl + 8)
	if st.arena.ReadUint64(offRepl+16) != replStateSum(e, p) {
		return 0, 0
	}
	return e, p
}

// SetReplState persists (epoch, position). Callers order it after the
// state it describes is durable (entries applied, promotion decided); a
// crash between leaves the slot behind, which only causes refetching —
// duplicate deliveries are version-gated away.
func (st *Store) SetReplState(epoch, pos uint64) {
	st.repl.mu.Lock()
	f := st.repl.f
	st.arena.WriteUint64(offRepl, epoch)
	st.arena.WriteUint64(offRepl+8, pos)
	st.arena.WriteUint64(offRepl+16, replStateSum(epoch, pos))
	f.Flush(offRepl, 24)
	f.Fence()
	f.FlushEvents()
	st.repl.mu.Unlock()
}
