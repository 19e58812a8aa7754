package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"flatstore/internal/index"
	"flatstore/internal/pmem"
)

// Checkpoint persists a point-in-time copy of the volatile index and
// registry without shutting down — §3.5: "to shorten such recovery time,
// FlatStore also supports to checkpoint the volatile index into PMs
// periodically when the CPU is not busy."
//
// The snapshot does not need to be globally consistent: crash recovery
// loads it and then replays every OpLog with per-key version comparison,
// which is idempotent — entries already reflected in the checkpoint
// simply lose the version race. The checkpoint only bounds how much CPU
// work the replay's index insertions cost, which is what dominates the
// paper's 40 s / 10⁹-item recovery.
//
// Safe to call while the store is serving: each core's index is snapshot
// under its idxMu.
func (st *Store) Checkpoint() error {
	blob := st.buildCheckpoint()
	// The reserved checkpoint allocation context, which no server core
	// touches.
	ptr, err := st.ckptCa.Alloc(len(blob), st.super)
	if err != nil {
		return fmt.Errorf("core: checkpoint allocation: %w", err)
	}
	st.arena.Write(int(ptr), blob)
	st.super.Flush(int(ptr), len(blob))
	st.super.Fence()

	// Swing the descriptor, then release the previous checkpoint block.
	oldPtr, oldLen := st.CheckpointDesc()
	st.super.PersistUint64(offCkpt+8, uint64(len(blob)))
	st.super.PersistUint64(offCkpt, uint64(ptr))
	if oldPtr != 0 && oldLen != 0 {
		st.ckptCa.Free(oldPtr, oldLen, st.super)
	}
	st.super.FlushEvents()
	return nil
}

// CheckpointDesc returns the persisted checkpoint descriptor (ptr, len),
// zeroes when none exists: the one reader of the descriptor, for Checkpoint,
// recovery's seed phase and invariant checkers.
func (st *Store) CheckpointDesc() (int64, int) {
	return int64(st.arena.ReadUint64(offCkpt)), int(st.arena.ReadUint64(offCkpt + 8))
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
	w := func(v ...uint64) {
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, x)
		}
	}
	// rows backfills the row-count word at cnt once its section is written.
	rows := func(cnt, rowBytes int) {
		binary.LittleEndian.PutUint64(buf[cnt:], uint64((len(buf)-cnt-8)/rowBytes))
	}
	w(ckptMagic, uint64(st.cfg.Cores), 0)
	cnt := len(buf) - 8
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		w(key, uint64(ref), uint64(ver))
	})
	rows(cnt, 24)
	for _, c := range st.cores {
		w(uint64(len(c.reg)))
		for key, m := range c.reg {
			v := uint64(m.lastVer)
			if m.deleted {
				v |= 1 << 32
			}
			w(key, v|uint64(max(m.stale, 0))<<33, uint64(m.tombOff))
		}
	}
	w(0)
	cnt = len(buf) - 8
	for i := range st.usage {
		if owner, total, live := st.usage.load(i); owner >= 0 {
			w(uint64(i)*pmem.ChunkSize, uint64(owner), uint64(total), uint64(total-live))
		}
	}
	rows(cnt, 32)
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
	bad := fmt.Errorf("core: truncated or corrupt checkpoint")
	if len(blob) < 16 {
		return bad
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if ckptChecksum(body) != sum {
		return bad
	}
	// r reads the next word; past the end it reads 0 and sets short.
	pos, short := 0, false
	r := func() uint64 {
		if pos+8 > len(body) {
			short = true
			return 0
		}
		pos += 8
		return binary.LittleEndian.Uint64(body[pos-8:])
	}
	if r() != ckptMagic || short {
		return bad
	}
	if int(r()) != st.cfg.Cores {
		return fmt.Errorf("core: checkpoint core count mismatch (config %d)", st.cfg.Cores)
	}
	nidx := r()
	if short || int(nidx) > len(body)/24 {
		return bad
	}
	for i := uint64(0); i < nidx; i++ {
		key, ref, ver := r(), r(), r()
		if short {
			return bad
		}
		if seed && index.Cold(int64(ref)) {
			continue
		}
		st.cores[st.CoreOf(key)].idx.Put(key, int64(ref), uint32(ver))
	}
	for _, c := range st.cores {
		nreg := r()
		if short || int(nreg) > len(body)/24 {
			return bad
		}
		for i := uint64(0); i < nreg; i++ {
			key, v, tomb := r(), r(), r()
			if short || tomb >= uint64(st.arena.Size()) {
				return bad
			}
			m := keyMeta{lastVer: uint32(v), deleted: v>>32&1 == 1}
			if !seed {
				m.stale, m.tombOff = int32(v>>33), int64(tomb)
			}
			c.reg[key] = m
		}
	}
	nusage := r()
	if short || int(nusage) > len(body)/32 {
		return bad
	}
	for i := uint64(0); i < nusage; i++ {
		chunk, owner, total, dead := r(), r(), r(), r()
		if short || owner >= uint64(len(st.cores)) || chunk/pmem.ChunkSize >= uint64(len(st.usage)) {
			return bad
		}
		st.usage.account(int64(chunk), int(owner), int(total))
		st.usage.markDead(int64(chunk), int(dead))
	}
	return nil
}
