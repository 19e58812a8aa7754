// Package repl adds oplog-shipping replication on top of the engine: a
// primary streams every sealed batch to followers, followers apply them
// through the recovery-equivalent version-gated path, and a failover
// promotes a follower into a new epoch that fences the deposed primary.
//
// The stream is pull-based. Every node runs a replication listener;
// followers connect to the primary's and long-poll for batches. A batch
// is identified by (epoch, position): positions are a single dense
// sequence over the whole stream (a promoted follower continues the
// counter of the primary it replaces), and the epoch increments on every
// promotion, so a frame from a deposed primary is recognizably stale.
//
// Frames reuse the tcp package's CRC32C framing (length prefix, payload,
// Castagnoli trailer). Payload layouts, all little-endian:
//
//	fHello     u8 type, u64 magic, u64 epoch, u64 pos, u16 alen, addr
//	fFetch     u8 type, u64 epoch, u64 pos, u32 maxWaitMs
//	rHelloOK   u8 type, u64 epoch, u64 tail, u16 alen, serveAddr
//	rBatches   u8 type, u64 epoch, u64 tail, u32 count, count × batch
//	rSnapBegin u8 type, u64 epoch, u64 snapPos
//	rSnapChunk u8 type, u32 count, count × (u64 key, u32 ver, u32 vlen, val)
//	rSnapEnd   u8 type
//	rStale     u8 type, u64 epoch
//	rReset     u8 type
//
// where one batch is
//
//	u64 pos, u32 nentries, nentries × (u8 op, u32 ver, u64 key, u32 vlen, val)
//
// fHello opens a session (pos is the follower's last applied position;
// addr its client-serving address, for the primary's bookkeeping).
// fFetch acks everything ≤ pos and asks for what follows, waiting up to
// maxWaitMs server-side; an empty rBatches is the heartbeat. rSnapBegin/
// Chunk/End bootstrap an empty follower from a live capture. rStale
// fences a peer whose epoch the server cannot serve; rReset tells a
// follower it has diverged (or fallen off the history buffer) and needs
// an operator reset.
package repl

import (
	"encoding/binary"
	"fmt"

	"flatstore/internal/core"
	"flatstore/internal/oplog"
)

// replMagic guards the hello: a peer speaking the data protocol (or
// garbage) is rejected before any state is touched.
const replMagic uint64 = 0xF1A7_5EA1_0000_0001

// Frame type codes.
const (
	fHello uint8 = 1
	fFetch uint8 = 2

	rHelloOK   uint8 = 9
	rBatches   uint8 = 10
	rSnapBegin uint8 = 11
	rSnapChunk uint8 = 12
	rSnapEnd   uint8 = 13
	rStale     uint8 = 14
	rReset     uint8 = 15
)

// Service limits: one rBatches response stays under respSoftBytes (well
// below the transport's frame cap) and snapshot chunks flush at
// snapChunkBytes.
const (
	respSoftBytes  = 1 << 20
	snapChunkBytes = 256 << 10
)

var errShortFrame = fmt.Errorf("repl: truncated frame")

// appendBatchBody encodes one sealed batch (the history-buffer unit):
// pos, entry count, then each entry's op/version/key/value. values holds
// the materialized value per entry (nil for deletes).
func appendBatchBody(b []byte, pos uint64, entries []*oplog.Entry, values [][]byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, pos)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for i, e := range entries {
		b = append(b, byte(e.Op))
		b = binary.LittleEndian.AppendUint32(b, e.Version)
		b = binary.LittleEndian.AppendUint64(b, e.Key)
		v := values[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return b
}

// decodeBatchBody decodes one batch starting at b[off:] onto ops, returning
// the new offset. The ops' values alias b.
func decodeBatchBody(b []byte, off int, ops []core.ReplOp) (uint64, []core.ReplOp, int, error) {
	if len(b)-off < 12 {
		return 0, nil, 0, errShortFrame
	}
	pos := binary.LittleEndian.Uint64(b[off:])
	n := int(binary.LittleEndian.Uint32(b[off+8:]))
	off += 12
	for i := 0; i < n; i++ {
		if len(b)-off < 17 {
			return 0, nil, 0, errShortFrame
		}
		e := core.ReplOp{
			Op:  oplog.Op(b[off]),
			Ver: binary.LittleEndian.Uint32(b[off+1:]),
			Key: binary.LittleEndian.Uint64(b[off+5:]),
		}
		vlen := int(binary.LittleEndian.Uint32(b[off+13:]))
		off += 17
		if vlen > 0 {
			if len(b)-off < vlen {
				return 0, nil, 0, errShortFrame
			}
			e.Val = b[off : off+vlen]
			off += vlen
		}
		ops = append(ops, e)
	}
	return pos, ops, off, nil
}

// appendHello encodes the follower's session opener.
func appendHello(b []byte, epoch, pos uint64, addr string) []byte {
	b = append(b, fHello)
	b = binary.LittleEndian.AppendUint64(b, replMagic)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, pos)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(addr)))
	b = append(b, addr...)
	return b
}

func decodeHelloFrame(b []byte) (epoch, pos uint64, addr string, err error) {
	if len(b) < 27 || b[0] != fHello {
		return 0, 0, "", errShortFrame
	}
	if binary.LittleEndian.Uint64(b[1:]) != replMagic {
		return 0, 0, "", fmt.Errorf("repl: bad magic (not a replication peer?)")
	}
	epoch = binary.LittleEndian.Uint64(b[9:])
	pos = binary.LittleEndian.Uint64(b[17:])
	n := int(binary.LittleEndian.Uint16(b[25:]))
	if len(b)-27 < n {
		return 0, 0, "", errShortFrame
	}
	return epoch, pos, string(b[27 : 27+n]), nil
}

func appendHelloOK(b []byte, epoch, tail uint64, serveAddr string) []byte {
	b = append(b, rHelloOK)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, tail)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(serveAddr)))
	b = append(b, serveAddr...)
	return b
}

func decodeHelloOK(b []byte) (epoch, tail uint64, serveAddr string, err error) {
	if len(b) < 19 || b[0] != rHelloOK {
		return 0, 0, "", errShortFrame
	}
	epoch = binary.LittleEndian.Uint64(b[1:])
	tail = binary.LittleEndian.Uint64(b[9:])
	n := int(binary.LittleEndian.Uint16(b[17:]))
	if len(b)-19 < n {
		return 0, 0, "", errShortFrame
	}
	return epoch, tail, string(b[19 : 19+n]), nil
}

func appendFetch(b []byte, epoch, pos uint64, maxWaitMs uint32) []byte {
	b = append(b, fFetch)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, pos)
	b = binary.LittleEndian.AppendUint32(b, maxWaitMs)
	return b
}

func decodeFetch(b []byte) (epoch, pos uint64, maxWaitMs uint32, err error) {
	if len(b) < 21 || b[0] != fFetch {
		return 0, 0, 0, errShortFrame
	}
	return binary.LittleEndian.Uint64(b[1:]), binary.LittleEndian.Uint64(b[9:]),
		binary.LittleEndian.Uint32(b[17:]), nil
}

// appendBatchesHeader starts an rBatches frame; the caller appends the
// already-encoded batch bodies and must patch nothing (count is known up
// front).
func appendBatchesHeader(b []byte, epoch, tail uint64, count uint32) []byte {
	b = append(b, rBatches)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, tail)
	b = binary.LittleEndian.AppendUint32(b, count)
	return b
}

func decodeBatchesHeader(b []byte) (epoch, tail uint64, count uint32, err error) {
	if len(b) < 21 || b[0] != rBatches {
		return 0, 0, 0, errShortFrame
	}
	return binary.LittleEndian.Uint64(b[1:]), binary.LittleEndian.Uint64(b[9:]),
		binary.LittleEndian.Uint32(b[17:]), nil
}

func appendSnapBegin(b []byte, epoch, snapPos uint64) []byte {
	b = append(b, rSnapBegin)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, snapPos)
	return b
}

func decodeSnapBegin(b []byte) (epoch, snapPos uint64, err error) {
	if len(b) < 17 || b[0] != rSnapBegin {
		return 0, 0, errShortFrame
	}
	return binary.LittleEndian.Uint64(b[1:]), binary.LittleEndian.Uint64(b[9:]), nil
}

// snapEnc accumulates snapshot pairs into rSnapChunk payloads.
type snapEnc struct {
	buf   []byte
	count uint32
}

func (s *snapEnc) add(key uint64, ver uint32, val []byte) {
	if s.count == 0 {
		s.buf = append(s.buf[:0], rSnapChunk, 0, 0, 0, 0) // count patched at flush
	}
	s.buf = binary.LittleEndian.AppendUint64(s.buf, key)
	s.buf = binary.LittleEndian.AppendUint32(s.buf, ver)
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(len(val)))
	s.buf = append(s.buf, val...)
	s.count++
}

// full reports whether the chunk should be flushed.
func (s *snapEnc) full() bool { return len(s.buf) >= snapChunkBytes }

// take patches the count in and returns the payload (valid until the
// next add), or nil if the chunk is empty.
func (s *snapEnc) take() []byte {
	if s.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(s.buf[1:], s.count)
	s.count = 0
	return s.buf
}

// decodeSnapChunk decodes a chunk's pairs onto ops, as Puts whose values
// alias b.
func decodeSnapChunk(b []byte, ops []core.ReplOp) ([]core.ReplOp, error) {
	if len(b) < 5 || b[0] != rSnapChunk {
		return nil, errShortFrame
	}
	n := int(binary.LittleEndian.Uint32(b[1:]))
	off := 5
	for i := 0; i < n; i++ {
		if len(b)-off < 16 {
			return nil, errShortFrame
		}
		key := binary.LittleEndian.Uint64(b[off:])
		ver := binary.LittleEndian.Uint32(b[off+8:])
		vlen := int(binary.LittleEndian.Uint32(b[off+12:]))
		off += 16
		if len(b)-off < vlen {
			return nil, errShortFrame
		}
		ops = append(ops, core.ReplOp{Op: oplog.OpPut, Ver: ver, Key: key, Val: b[off : off+vlen]})
		off += vlen
	}
	return ops, nil
}

func appendStale(b []byte, epoch uint64) []byte {
	b = append(b, rStale)
	return binary.LittleEndian.AppendUint64(b, epoch)
}
