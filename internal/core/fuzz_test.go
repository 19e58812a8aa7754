package core

import (
	"encoding/binary"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/pmem"
)

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint loader.
// The contract: loadCheckpoint never panics and never loops on hostile
// input — it either rejects the blob (recovery then falls back to log
// replay) or decodes a structurally valid one. Two paths are exercised
// per input: the raw bytes (the CRC gate) and the bytes re-signed with a
// valid trailer (the structural decode behind the gate, which plain
// fuzzing would almost never reach through a 32-bit checksum).
func FuzzCheckpointDecode(f *testing.F) {
	cfg := Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 4}
	cfg.Arena = pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	st, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	// A populated, well-formed blob as the seed the fuzzer mutates.
	st.cores[0].idx.Put(1, 4096, 3)
	st.cores[1].idx.Put(2, 8192, 1)
	st.cores[0].reg[1] = keyMeta{lastVer: 3}
	st.cores[1].reg[2] = keyMeta{lastVer: 1, stale: 2}
	st.cores[0].reg[9] = keyMeta{lastVer: 7, deleted: true}
	valid := st.buildCheckpoint()

	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // checksum sheared off
	f.Add(valid[:17])           // truncated mid-header
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	huge := append([]byte(nil), valid...)
	// Claim an absurd index entry count to probe the bounds checks.
	binary.LittleEndian.PutUint64(huge[16:], 1<<40)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, body []byte) {
		if err := st.resetVolatile(); err != nil {
			t.Fatal(err)
		}
		_ = st.loadCheckpoint(body, false)

		if err := st.resetVolatile(); err != nil {
			t.Fatal(err)
		}
		signed := make([]byte, len(body)+8)
		copy(signed, body)
		binary.LittleEndian.PutUint64(signed[len(body):], ckptChecksum(body))
		_ = st.loadCheckpoint(signed, true)
	})
}
