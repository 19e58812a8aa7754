// Package tcp serves a FlatStore node over TCP, the practical stand-in
// for the paper's InfiniBand deployment: each connection mirrors a
// FlatRPC client — one "queue pair" carrying asynchronously pipelined
// requests that the client routes to server cores by key hash, exactly
// like §4.3's message buffers. The wire format is a simple
// length-prefixed binary framing (stdlib only), CRC32C-protected so a
// corrupted frame is detected and surfaces as a connection error rather
// than a mis-decoded op.
//
//	server:  st, _ := core.New(cfg); st.Run()
//	         lis, _ := net.Listen("tcp", ":7399")
//	         srv := tcp.NewServer(st); go srv.Serve(lis)
//
//	client:  cl, _ := tcp.Dial("host:7399")
//	         cl.Put(42, []byte("hello"))
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"flatstore/internal/bufpool"
	"flatstore/internal/rpc"
)

// Frame layout (little-endian). Every frame is
//
//	u32 payload length | payload | u32 CRC32C(payload)
//
// The trailing checksum (Castagnoli polynomial, the one PM hardware and
// NVMe use) covers the payload only: a corrupted length either exceeds
// maxFrame or shifts the checksum window, both of which fail the check
// with overwhelming probability, while any corruption strictly inside
// the payload or checksum is detected with certainty (CRC32 catches all
// single-bit and burst-≤32 errors).
//
// Handshake (server → client on connect):
//
//	u64 magic, u32 cores, u64 serverID
//
// Hello (client → server, immediately after the handshake):
//
//	u64 magic, u64 session
//
// The session id names the client across reconnects: the server keys its
// write-dedup table on it, so a Put/Delete replayed by the client's retry
// path after a reconnect is acknowledged exactly once. The serverID names
// the server *instance*: the client mints a distinct session per server
// identity it meets, so a (session, id) dedup pair established against
// one server is never replayed against a different one (whose table knows
// nothing of it) after a redirect or failover.
//
// Request:
//
//	u8 op, u32 core, u64 id, u64 key, u64 scanHi, u32 limit,
//	u32 vlen, vlen bytes
//
// Batch request (first byte opBatch):
//
//	u8 opBatch, u32 count, count × request
//
// Each sub-request uses the exact single-request encoding above and is
// self-delimiting via its vlen, so one frame carries many independently
// identified (and independently deduped) operations — the multi-op form
// the pipelined client packs MultiGet/MultiPut/MultiDelete into.
//
// Response:
//
//	u64 id, u8 status, u32 vlen, vlen bytes,
//	u32 npairs, npairs × (u64 key, u32 vlen, vlen bytes)
//
// The magic's low bits version the protocol; v1 (…0001) had no frame
// checksum and no hello, v2 (…0002) no server identity in the handshake.
// An older peer is rejected at the handshake.
const (
	wireMagic uint64 = 0xF1A7_7C9_0000_0003

	// maxFrame bounds a single frame (a 4 MB value plus headroom).
	maxFrame = 8 << 20
)

// castagnoli is the CRC32C table shared by both frame directions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCRC marks a frame whose checksum did not verify; the connection is
// unusable from that byte on (framing may be lost), so both ends tear it
// down and the client's retry path redials.
var errCRC = errors.New("tcp: frame checksum mismatch")

// request is the decoded wire request.
type request struct {
	op     uint8
	core   uint32
	id     uint64
	key    uint64
	scanHi uint64
	limit  uint32
	value  []byte
}

// response is the decoded wire response. A scan's pairs stay in their
// wire encoding — npairs × (u64 key, u32 vlen, vlen bytes), checked by
// decodeResponse — until decodePairs turns them into the caller's Pairs.
// value and pairs alias the frame they were decoded from until keepIn
// moves them into a buffer of the caller's.
type response struct {
	id     uint64
	status uint8
	value  []byte
	npairs int
	pairs  []byte
}

// writeU32 emits v little-endian via WriteByte, which (unlike passing a
// stack array to Write) cannot make the bytes escape to the heap — the
// frame hot path stays allocation-free.
func writeU32(w *bufio.Writer, v uint32) error {
	w.WriteByte(byte(v))
	w.WriteByte(byte(v >> 8))
	w.WriteByte(byte(v >> 16))
	return w.WriteByte(byte(v >> 24))
}

func writeFrame(w *bufio.Writer, payload []byte) error {
	if err := writeU32(w, uint32(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return writeU32(w, crc32.Checksum(payload, castagnoli))
}

// readLen reads a frame's 4-byte length prefix. Peek+Discard on the
// bufio.Reader instead of io.ReadFull into a stack array: the array
// would escape through the io.Reader interface and cost an allocation
// per frame.
func readLen(r *bufio.Reader) (uint32, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	r.Discard(4)
	return n, nil
}

func readFrame(r *bufio.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto is readFrame into buf when the frame and its checksum fit
// buf's capacity, and into a buffer of its own when they do not.
func readFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := readLen(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("tcp: frame of %d bytes exceeds limit", n)
	}
	if int(n)+4 > cap(buf) {
		buf = make([]byte, n+4)
	}
	buf = buf[:n+4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	payload := buf[:n]
	if binary.LittleEndian.Uint32(buf[n:]) != crc32.Checksum(payload, castagnoli) {
		return nil, errCRC
	}
	return payload, nil
}

// WriteFrame frames payload onto w (length prefix + CRC32C trailer) —
// the exported form for sibling transports (the replication stream) that
// reuse this framing.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	return writeFrame(w, payload)
}

// ReadFrame reads and verifies one frame from r (see WriteFrame).
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	return readFrame(r)
}

// readFrameBuf is readFrame into a pooled buffer: the returned payload is
// backed by bufpool and the caller owns it — it must go back via
// bufpool.Put (directly, or through the engine's rpc.Request.Buf
// ownership transfer) once the decoded fields are dead. The server's
// reader uses this; the client's reader reads every frame into one
// buffer it keeps (readFrameInto) and copies out what outlives the frame.
func readFrameBuf(r *bufio.Reader) ([]byte, error) {
	n, err := readLen(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("tcp: frame of %d bytes exceeds limit", n)
	}
	buf := bufpool.Get(int(n) + 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	payload := buf[:n]
	if binary.LittleEndian.Uint32(buf[n:]) != crc32.Checksum(payload, castagnoli) {
		bufpool.Put(buf)
		return nil, errCRC
	}
	return payload, nil
}

// encodeHello builds the client's post-handshake identification frame.
func encodeHello(session uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.LittleEndian.AppendUint64(buf, wireMagic)
	return binary.LittleEndian.AppendUint64(buf, session)
}

// decodeHello parses the hello frame, returning the client session id.
func decodeHello(b []byte) (uint64, error) {
	if len(b) != 16 || binary.LittleEndian.Uint64(b) != wireMagic {
		return 0, errors.New("tcp: bad hello frame")
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

// requestHeader is a request's encoded size without its value, and
// batchHeader a multi-op frame's without its requests.
const requestHeader, batchHeader = 37, 5

func encodeRequest(q request) []byte {
	return appendRequest(make([]byte, 0, requestHeader+len(q.value)), q)
}

// appendRequest encodes q onto buf (the client reuses a per-connection
// scratch buffer across calls).
func appendRequest(buf []byte, q request) []byte {
	buf = append(buf, q.op)
	buf = binary.LittleEndian.AppendUint32(buf, q.core)
	buf = binary.LittleEndian.AppendUint64(buf, q.id)
	buf = binary.LittleEndian.AppendUint64(buf, q.key)
	buf = binary.LittleEndian.AppendUint64(buf, q.scanHi)
	buf = binary.LittleEndian.AppendUint32(buf, q.limit)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q.value)))
	return append(buf, q.value...)
}

func decodeRequest(b []byte) (request, error) {
	if len(b) < requestHeader {
		return request{}, fmt.Errorf("tcp: short request frame (%d bytes)", len(b))
	}
	q := request{
		op:     b[0],
		core:   binary.LittleEndian.Uint32(b[1:]),
		id:     binary.LittleEndian.Uint64(b[5:]),
		key:    binary.LittleEndian.Uint64(b[13:]),
		scanHi: binary.LittleEndian.Uint64(b[21:]),
		limit:  binary.LittleEndian.Uint32(b[29:]),
	}
	vlen := binary.LittleEndian.Uint32(b[33:])
	if int(vlen) != len(b)-requestHeader {
		return request{}, fmt.Errorf("tcp: request value length mismatch")
	}
	q.value = b[requestHeader:]
	return q, nil
}

// maxBatchOps bounds the op count a batch frame may claim, so a hostile
// count field cannot drive a huge scratch allocation (the frame size
// itself is already bounded by maxFrame).
const maxBatchOps = 1 << 16

// errBadBatch marks an undecodable batch frame (package-level so decode
// does not allocate per frame).
var errBadBatch = errors.New("tcp: corrupt batch frame")

// appendBatchFrame encodes ops as one multi-op frame onto buf.
func appendBatchFrame(buf []byte, ops []request) []byte {
	buf = append(buf, opBatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)))
	for i := range ops {
		buf = appendRequest(buf, ops[i])
	}
	return buf
}

// decodeBatchInto parses a multi-op frame, appending the sub-requests to
// dst (a recycled scratch slice). Sub-request values alias b: the caller
// must copy anything that outlives the frame buffer before recycling it.
func decodeBatchInto(dst []request, b []byte) ([]request, error) {
	if len(b) < 5 || b[0] != opBatch {
		return dst, errBadBatch
	}
	count := int(binary.LittleEndian.Uint32(b[1:]))
	if count > maxBatchOps {
		return dst, errBadBatch
	}
	pos := batchHeader
	for i := 0; i < count; i++ {
		if len(b)-pos < requestHeader {
			return dst, errBadBatch
		}
		h := b[pos:]
		q := request{
			op:     h[0],
			core:   binary.LittleEndian.Uint32(h[1:]),
			id:     binary.LittleEndian.Uint64(h[5:]),
			key:    binary.LittleEndian.Uint64(h[13:]),
			scanHi: binary.LittleEndian.Uint64(h[21:]),
			limit:  binary.LittleEndian.Uint32(h[29:]),
		}
		vlen := int(binary.LittleEndian.Uint32(h[33:]))
		pos += requestHeader
		if vlen > len(b)-pos {
			return dst, errBadBatch
		}
		q.value = b[pos : pos+vlen : pos+vlen]
		pos += vlen
		dst = append(dst, q)
	}
	if pos != len(b) {
		return dst, errBadBatch
	}
	return dst, nil
}

func encodeResponse(rs response) []byte {
	return appendResponse(make([]byte, 0, bareResponse+len(rs.value)+len(rs.pairs)), rs)
}

// appendResponse encodes rs onto buf.
func appendResponse(buf []byte, rs response) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rs.id)
	buf = append(buf, rs.status)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rs.value)))
	buf = append(buf, rs.value...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rs.npairs))
	return append(buf, rs.pairs...)
}

// appendEngineResponse encodes an engine rpc.Response directly onto buf,
// skipping the wire-struct conversion (and its pair-slice allocation)
// that encodeResponse(response{...}) would cost on the server's hot
// response path.
func appendEngineResponse(buf []byte, r *rpc.Response) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	buf = append(buf, r.Status)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
	buf = append(buf, r.Value...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Pairs)))
	for i := range r.Pairs {
		buf = binary.LittleEndian.AppendUint64(buf, r.Pairs[i].Key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Pairs[i].Value)))
		buf = append(buf, r.Pairs[i].Value...)
	}
	return buf
}

// errBadResponse marks an undecodable response frame (package-level so
// the decode hot path does not allocate an error per frame).
var errBadResponse = errors.New("tcp: corrupt response frame")

// bareResponse is the length of a response payload with no value and no
// pairs — a Put's answer: id, status, and the two counts, zero.
const bareResponse = 17

func decodeResponse(b []byte) (response, error) {
	bad := errBadResponse
	if len(b) < bareResponse {
		return response{}, bad
	}
	rs := response{
		id:     binary.LittleEndian.Uint64(b),
		status: b[8],
	}
	vlen := int(binary.LittleEndian.Uint32(b[9:]))
	pos := 13
	if pos+vlen > len(b) {
		return response{}, bad
	}
	if vlen > 0 {
		rs.value = b[pos : pos+vlen]
	}
	pos += vlen
	if pos+4 > len(b) {
		return response{}, bad
	}
	npairs := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	// Every pair takes at least 12 bytes, so a count the bytes left cannot
	// hold is a lie, refused before the walk.
	if npairs > (len(b)-pos)/12 {
		return response{}, bad
	}
	start := pos
	for i := 0; i < npairs; i++ {
		if pos+12 > len(b) {
			return response{}, bad
		}
		pl := int(binary.LittleEndian.Uint32(b[pos+8:]))
		pos += 12
		if pl > len(b)-pos {
			return response{}, bad
		}
		pos += pl
	}
	if npairs > 0 {
		rs.npairs, rs.pairs = npairs, b[start:pos]
	}
	return rs, nil
}

// keepIn copies rs's value and pairs into *buf, reusing its capacity, and
// points rs at the copy: the client's reader reads the next frame over the
// one rs was decoded from.
func (rs *response) keepIn(buf *[]byte) {
	nv := len(rs.value)
	if nv+len(rs.pairs) == 0 {
		return
	}
	b := append(append((*buf)[:0], rs.value...), rs.pairs...)
	if nv > 0 {
		rs.value = b[:nv:nv]
	}
	if len(rs.pairs) > 0 {
		rs.pairs = b[nv:]
	}
	*buf = b
}

// decodePairs decodes rs's pairs into a new slice whose values share one
// new buffer: two allocations, both the caller's to keep.
func (rs *response) decodePairs() []Pair {
	out := make([]Pair, rs.npairs)
	vals := make([]byte, len(rs.pairs)-12*rs.npairs)
	b := rs.pairs
	for i := range out {
		pl := int(binary.LittleEndian.Uint32(b[8:]))
		copy(vals, b[12:12+pl])
		out[i] = Pair{Key: binary.LittleEndian.Uint64(b), Value: vals[:pl:pl]}
		vals, b = vals[pl:], b[12+pl:]
	}
	return out
}
