package core

import (
	"fmt"
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
	oldPtr := int64(st.arena.ReadUint64(offCkpt))
	oldLen := int(st.arena.ReadUint64(offCkpt + 8))
	st.super.PersistUint64(offCkpt+8, uint64(len(blob)))
	st.super.PersistUint64(offCkpt, uint64(ptr))
	if oldPtr != 0 && oldLen != 0 {
		st.ckptCa.Free(oldPtr, oldLen, st.super)
	}
	st.super.FlushEvents()
	return nil
}

// HasCheckpoint reports whether a persisted checkpoint descriptor exists.
func (st *Store) HasCheckpoint() bool {
	return st.arena.ReadUint64(offCkpt) != 0 && st.arena.ReadUint64(offCkpt+8) != 0
}

// CheckpointDesc returns the persisted checkpoint descriptor (ptr, len),
// zeroes when none exists. Invariant checkers use it to account for the
// blob's storage in the allocator bitmaps.
func (st *Store) CheckpointDesc() (int64, int) {
	return int64(st.arena.ReadUint64(offCkpt)), int(st.arena.ReadUint64(offCkpt + 8))
}
