package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/rpc"
)

// Replication support: the hooks a replication controller (internal/repl)
// needs from the engine. The store itself stays replication-agnostic — it
// exposes a seal hook (every durable batch, before its ops are
// acknowledged), a version-gated apply over the write path's own steps
// (apply.go), a consistent live-key capture for follower bootstrap, and a
// durable (epoch, position) slot in the superblock.

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

	// mu guards f, the dedicated flusher for the superblock repl slot
	// (SetReplState is called from controller goroutines, never from a
	// core, so it cannot share a core's flusher).
	mu sync.Mutex
	f  *pmem.Flusher
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

// ReplInFlight reports how many sealed ops have not finished their
// volatile phase yet. Zero means every shipped batch is visible in the
// index.
func (st *Store) ReplInFlight() int64 {
	return st.repl.sealed.Load() - st.repl.completed.Load()
}

// ReplQuiesce waits until every sealed op has been applied to the index
// (so a capture started afterwards includes everything up to the
// caller's stream position). It fails if the store stays busy past the
// timeout; the caller retries later.
func (st *Store) ReplQuiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for st.ReplInFlight() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: store not quiescent after %v (in-flight %d)", timeout, st.ReplInFlight())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// ReplFlusher returns a flusher for the replication controller's apply
// path. The follower's single repl goroutine is its only user, so it
// needs no locking.
func (st *Store) ReplFlusher() *pmem.Flusher { return st.arena.NewFlusher() }

// ReplApply applies one replicated operation the way a local write is
// applied, minus the batching: a version gate (stale deliveries — snapshot
// overlap, refetches — are duplicates and dropped), then the write path's
// own steps. The op is appended to the owning core's log, so a promoted
// follower recovers like any primary.
//
// Only a single goroutine may call ReplApply, and never concurrently
// with local writes: the follower's cores serve reads only, so the repl
// goroutine is the sole appender to each core's log and the sole user
// of each core's allocation context. op is rpc.OpPut or rpc.OpDelete.
func (st *Store) ReplApply(f *pmem.Flusher, op uint8, key uint64, ver uint32, val []byte) error {
	c := st.cores[st.CoreOf(key)]
	c.idxMu.Lock()
	cur, _ := c.lastVersion(key)
	c.idxMu.Unlock()
	if ver <= cur {
		return nil
	}
	e := oplog.Entry{Op: oplog.OpDelete, Version: ver, Key: key}
	if op == rpc.OpPut {
		e.Op = oplog.OpPut
		if err := c.materialize(f, &e, val); err != nil {
			return fmt.Errorf("core: repl alloc: %w", err)
		}
	}
	off, err := c.appendOne(f, &e)
	if err != nil {
		return fmt.Errorf("core: repl append: %w", err)
	}
	c.supersede(f, key, off, ver, op == rpc.OpDelete)
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
			d := st.deref(k.key, k.ref)
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
// reads as unset rather than garbage.

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
	if st.repl.f == nil {
		st.repl.f = st.arena.NewFlusher()
	}
	f := st.repl.f
	f.PersistUint64(offRepl, epoch)
	f.PersistUint64(offRepl+8, pos)
	f.PersistUint64(offRepl+16, replStateSum(epoch, pos))
	f.FlushEvents()
	st.repl.mu.Unlock()
}
