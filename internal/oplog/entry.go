// Package oplog implements FlatStore's compacted per-core operation log
// (§3.2). Log entries describe operations ("operation log" technique)
// instead of memory updates: a pointer-based entry is exactly 16 bytes, so
// four entries share a cacheline and sixteen share one 256 B device block,
// letting one flush persist an entire batch. Values up to 256 B are
// embedded directly in the entry; larger records live in the lazy-persist
// allocator and the entry carries a 40-bit pointer to them.
package oplog

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Op is the operation type recorded in a log entry.
type Op uint8

const (
	// OpPad marks padding inside a batch (a zero word); the scanner
	// skips it 8 bytes at a time.
	OpPad Op = 0
	// OpPut records an insert/update.
	OpPut Op = 1
	// OpDelete records a tombstone.
	OpDelete Op = 2
	// OpEnd marks the end of a chunk's valid data; the scanner follows
	// the chunk's next pointer.
	OpEnd Op = 3
)

// Entry layout (little-endian), following Figure 3 of the paper:
//
//	word0 bits 0..1   Op
//	      bit  2      Emd (value embedded)
//	      bits 3..23  Version (21 bits)
//	      bits 24..63 Ptr (40 bits, block address >> 8)  — Emd=0
//	                  or value length - 1 (8 bits)        — Emd=1
//	word1             Key (64 bits)
//	Emd=1: value bytes follow, padded to an 8-byte multiple.
const (
	// HeaderSize is the fixed portion of an entry (two 64-bit words).
	HeaderSize = 16
	// MaxInline is the largest value stored inside a log entry; bigger
	// values go through the allocator (256 B, matching the device block
	// size — §3.2).
	MaxInline = 256
	// VersionBits is the width of the version field.
	VersionBits = 21
	// VersionMask masks a version to its stored width.
	VersionMask = 1<<VersionBits - 1
	// PtrBits is the width of the packed pointer.
	PtrBits = 40
)

// ErrCorrupt reports an undecodable log entry.
var ErrCorrupt = errors.New("oplog: corrupt log entry")

// ErrChecksum reports a batch whose CRC32C trailer failed to verify —
// at-rest media corruption somewhere inside the batch or its trailer.
var ErrChecksum = errors.New("oplog: batch checksum mismatch")

// Batch trailer. Every persisted batch is followed by a 16-byte trailer
// that shares the entry word grid, so the 16-byte entry format itself is
// untouched. The trailer is the batch's commit record: a batch is part of
// the log exactly when its trailer verifies, so an append needs no second
// persist of a tail pointer (DESIGN.md §3.2).
//
//	word0 bits 0..1   OpEnd (3)
//	      bit  2      1 (distinguishes a trailer from the chunk end marker,
//	                  which is written with word0 == OpEnd exactly)
//	      bits 3..23  low 21 bits of the chunk generation
//	      bits 24..63 batch length in bytes (batch start → trailer start)
//	word1 bits 0..31  CRC32C over the batch bytes, word0's 8 encoded bytes,
//	                  the 4 start-offset bytes, and the 8 bytes of the
//	                  chunk header's generation word
//	      bits 32..63 chunk-relative byte offset of the batch start
//
// The generation names one life of one physical chunk (log identity and a
// per-log counter, written to the chunk header when the chunk is
// initialised), so bytes left from an earlier life never verify; the start
// offset pins a batch to the position it was written at, so the remnant of
// a torn batch read from its middle never verifies either.
const TrailerSize = HeaderSize

// castagnoli is the CRC32C table shared with the wire format and the
// value-record format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsTrailerWord reports whether a first entry word marks a batch trailer.
func IsTrailerWord(w0 uint64) bool {
	return Op(w0&3) == OpEnd && w0>>2&1 == 1
}

// trailerSum is the trailer checksum of the batch mem[start:t] in the chunk
// at chunk, whose trailer words 0 and 1 (high half) are already in place
// at t. Every input is a slice of mem, so nothing escapes to the heap.
func trailerSum(mem []byte, chunk, start, t int) uint32 {
	sum := crc32.Checksum(mem[start:t], castagnoli)
	sum = crc32.Update(sum, castagnoli, mem[t:t+8])
	sum = crc32.Update(sum, castagnoli, mem[t+12:t+16])
	return crc32.Update(sum, castagnoli, mem[chunk+genOff:chunk+genOff+8])
}

// putTrailer writes the trailer of the batch mem[start:t] at t. The
// chunk's header (its generation word) must already be in mem.
func putTrailer(mem []byte, chunk, start, t int) {
	gen := getUint64(mem[chunk+genOff:])
	w1 := uint64(start-chunk) << 32
	putUint64(mem[t:], uint64(OpEnd)|1<<2|gen&VersionMask<<3|uint64(t-start)<<24)
	putUint64(mem[t+8:], w1) // the sum reads the start offset from here
	putUint64(mem[t+8:], w1|uint64(trailerSum(mem, chunk, start, t)))
}

// checkTrailer reports whether the 16 bytes at t are the trailer of a
// batch that starts at start in the chunk at chunk: right marker, this
// chunk's generation, this start offset, this length, and a matching
// checksum. t+TrailerSize must not exceed len(mem).
func checkTrailer(mem []byte, chunk, start, t int) bool {
	w0 := getUint64(mem[t:])
	gen := getUint64(mem[chunk+genOff:])
	if !IsTrailerWord(w0) || w0>>3&VersionMask != gen&VersionMask || int(w0>>24) != t-start {
		return false
	}
	w1 := getUint64(mem[t+8:])
	return int(w1>>32) == start-chunk && uint32(w1) == trailerSum(mem, chunk, start, t)
}

// Entry is one decoded operation-log record.
type Entry struct {
	Op      Op
	Version uint32 // masked to VersionBits when encoded
	Key     uint64
	Inline  bool
	Value   []byte // inline value when Inline (1..256 bytes)
	Ptr     int64  // arena offset of the out-of-place record when !Inline
}

// PackPtr converts a 256-aligned arena offset into the 40-bit on-log form.
func PackPtr(off int64) uint64 {
	if off%256 != 0 {
		panic(fmt.Sprintf("oplog: pointer %d not 256-aligned", off))
	}
	p := uint64(off) >> 8
	if p >= 1<<PtrBits {
		panic(fmt.Sprintf("oplog: pointer %d exceeds 40 bits", off))
	}
	return p
}

// UnpackPtr reverses PackPtr.
func UnpackPtr(p uint64) int64 { return int64(p << 8) }

// EncodedSize returns the entry's on-log size, padded to 8 bytes.
func (e *Entry) EncodedSize() int {
	if !e.Inline {
		return HeaderSize
	}
	return HeaderSize + (len(e.Value)+7)&^7
}

// EncodeTo writes the entry into buf and returns the encoded size.
// buf must have room for EncodedSize bytes.
func (e *Entry) EncodeTo(buf []byte) int {
	var w0 uint64
	w0 = uint64(e.Op) & 3
	w0 |= uint64(e.Version&VersionMask) << 3
	if e.Inline {
		n := len(e.Value)
		if n < 1 || n > MaxInline {
			panic(fmt.Sprintf("oplog: inline value of %d bytes", n))
		}
		w0 |= 1 << 2
		w0 |= uint64(n-1) << 24
	} else if e.Op == OpPut {
		w0 |= PackPtr(e.Ptr) << 24
	}
	putUint64(buf, w0)
	putUint64(buf[8:], e.Key)
	size := HeaderSize
	if e.Inline {
		copy(buf[16:], e.Value)
		size = e.EncodedSize()
		// Zero the padding so scans of the cache view are stable.
		for i := 16 + len(e.Value); i < size; i++ {
			buf[i] = 0
		}
	}
	return size
}

// Decode parses an entry at the start of buf, returning the entry and its
// encoded size. For OpPad it returns size 8 (one zero word); for OpEnd,
// size HeaderSize. The returned Value aliases buf.
func Decode(buf []byte) (Entry, int, error) {
	if len(buf) < 8 {
		return Entry{}, 0, ErrCorrupt
	}
	w0 := getUint64(buf)
	op := Op(w0 & 3)
	if op == OpPad {
		if w0 != 0 {
			return Entry{}, 0, ErrCorrupt
		}
		return Entry{Op: OpPad}, 8, nil
	}
	if op == OpEnd {
		// End markers are written as exactly (OpEnd, 0); anything else
		// in those 16 bytes is corruption, and treating it as a marker
		// would silently truncate a recovery scan.
		if len(buf) < HeaderSize || w0 != uint64(OpEnd) || getUint64(buf[8:]) != 0 {
			return Entry{}, 0, ErrCorrupt
		}
		return Entry{Op: OpEnd}, HeaderSize, nil
	}
	if len(buf) < HeaderSize {
		return Entry{}, 0, ErrCorrupt
	}
	e := Entry{
		Op:      op,
		Version: uint32(w0 >> 3 & VersionMask),
		Key:     getUint64(buf[8:]),
	}
	if op == OpDelete {
		// Tombstones carry no payload: the embed flag and pointer/size
		// bits must be zero.
		if w0>>24 != 0 || w0>>2&1 == 1 {
			return Entry{}, 0, ErrCorrupt
		}
		return e, HeaderSize, nil
	}
	if w0>>2&1 == 1 {
		// Inline entries use only the 8-bit size field after the
		// version; higher bits must be zero.
		if w0>>32 != 0 {
			return Entry{}, 0, ErrCorrupt
		}
		n := int(w0>>24&0xff) + 1
		padded := (n + 7) &^ 7
		if len(buf) < HeaderSize+padded {
			return Entry{}, 0, ErrCorrupt
		}
		e.Inline = true
		e.Value = buf[16 : 16+n]
		return e, HeaderSize + padded, nil
	}
	if op == OpPut {
		e.Ptr = UnpackPtr(w0 >> 24)
	}
	return e, HeaderSize, nil
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
