package oplog

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"flatstore/internal/alloc"
	"flatstore/internal/pmem"
)

const (
	// chunkMagic identifies a log chunk header (first word). The top 16
	// bits are distinct from the allocator's header magics so recovery
	// never confuses a log chunk with an allocator chunk.
	chunkMagic = 0x0C1B_0000_0000_0001

	// chunkHeader is the reserved space at the start of every log chunk:
	// word0 = magic, word1 = next chunk (absolute offset, 0 = none),
	// word2 = generation, word3 = ^generation. The complement makes rot in
	// the generation a bad header (loud) instead of a chunk whose batches
	// all quietly stop verifying.
	chunkHeader = 64
	genOff      = 16

	// endMarkerReserve keeps room for the OpEnd marker so a chunk can
	// always be terminated.
	endMarkerReserve = HeaderSize

	// SurvivorCapacity is the most entry bytes (the sum of EncodedSize) one
	// chunk holds as a single batch: what WriteSurvivorChunk accepts, and
	// the whole chunk the cleaner measures a victim's live bytes against.
	SurvivorCapacity = pmem.ChunkSize - chunkHeader - endMarkerReserve - TrailerSize
)

// ErrBatchTooLarge reports a batch that cannot fit in a single log chunk.
var ErrBatchTooLarge = errors.New("oplog: batch exceeds chunk capacity")

// ErrUnlinkTail reports an attempt to unlink the active tail chunk.
var ErrUnlinkTail = errors.New("oplog: cannot unlink the tail chunk")

// Log is one core's operation log: a chain of 4 MB chunks whose batches
// certify themselves (entry.go), plus a checksummed 32-byte metadata slot
// holding the head pointer, a tail witness and the generation counter.
//
// The slot is NOT on the append path. It is persisted where persists are
// rare anyway — New, roll, LinkAtHead, Unlink, WriteSurvivorChunk,
// Truncate, PersistWitness — and its tail word is a witness: every batch
// before it was fenced, so recovery treats a batch that fails to verify
// there as rot, not as a torn tail. Batches after it are found by
// verifying forward (findTail).
//
// Concurrency: the owning core appends; a background cleaner may link
// survivor chunks at the head and unlink victims. The chunk chain, the
// generation counter and the slot are protected by mu; AppendBatch itself
// is single-writer (only the owner core appends).
type Log struct {
	arena   *pmem.Arena
	al      *alloc.Allocator
	metaOff int

	mu        sync.Mutex
	chunks    []int64 // chain order; chunks[len-1] is the tail chunk
	tailChunk int64
	tailPos   int    // next write offset within the tail chunk
	gen       uint32 // generation counter: the last one handed to a chunk

	// Append's batch-of-one scratch. Owned by the appending core (Append
	// and AppendBatch are single-writer), so reuse needs no lock. Append
	// copies its entry into one, so a caller's stack entry stays there.
	one    Entry
	oneEnt [1]*Entry
	oneOff [1]int64
	// lastBatch is the persisted size of the most recent batch (entries +
	// trailer + cacheline pad), read back by the appending core for batch
	// metrics. Owned by the appender, like the scratch above.
	lastBatch int
	// metaSum scratch, guarded by mu like the meta slot itself.
	sumBuf [24]byte

	// found is what Recover read and discovered, kept for reports.
	found Recovered
}

// MetaSize is the persistent footprint of a log's metadata slot: word0
// head pointer, word1 tail witness, word2 generation counter, word3 CRC32C
// over the first three. The checksum lets recovery tell a rotted slot
// apart from a healthy one; all four words share one cacheline, so the
// slot is always one flush.
const MetaSize = 32

// metaSum computes the metadata slot checksum. The scratch is caller
// provided because a local array escapes into crc32.Checksum.
func metaSum(b *[24]byte, head, tail, gen uint64) uint64 {
	putUint64(b[:8], head)
	putUint64(b[8:16], tail)
	putUint64(b[16:], gen)
	return uint64(crc32.Checksum(b[:], castagnoli))
}

// MetaOK reports whether the metadata slot at metaOff passes its
// checksum. A mismatch means the slot is torn (a crash mid-flush) or
// rotted; the values may still be structurally usable.
func MetaOK(arena *pmem.Arena, metaOff int) bool {
	var b [24]byte
	return arena.ReadUint64(metaOff+24) == metaSum(&b,
		arena.ReadUint64(metaOff), arena.ReadUint64(metaOff+8), arena.ReadUint64(metaOff+16))
}

// persistMetaLocked writes head, tail witness, generation counter and
// their checksum and persists the slot with one flush. Callers hold l.mu
// (or own the log exclusively). tailPos only ever moves past a batch after
// that batch's fence, so the tail written here is a true witness.
func (l *Log) persistMetaLocked(f *pmem.Flusher) {
	head := uint64(l.chunks[0])
	tail := uint64(l.tailChunk) + uint64(l.tailPos)
	l.arena.WriteUint64(l.metaOff, head)
	l.arena.WriteUint64(l.metaOff+8, tail)
	l.arena.WriteUint64(l.metaOff+16, uint64(l.gen))
	l.arena.WriteUint64(l.metaOff+24, metaSum(&l.sumBuf, head, tail, uint64(l.gen)))
	f.Flush(l.metaOff, MetaSize)
	f.Fence()
}

// PersistWitness persists the metadata slot with the current tail: every
// batch appended so far becomes witnessed, so rot in any of them is
// reported by the next recovery instead of reading as a torn tail. Called
// where the engine is quiescent or a persist is cheap (Stop, Close, the
// scrubber, the end of recovery). Safe to call while the owner appends.
func (l *Log) PersistWitness(f *pmem.Flusher) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.persistMetaLocked(f)
}

// nextGen hands out the next chunk generation.
func (l *Log) nextGen() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen++
	return l.gen
}

// New creates an empty log whose metadata lives at metaOff, allocating the
// first chunk and persisting the chain. The generation counter continues
// from whatever the slot holds (zero on a fresh arena), so a log rebuilt
// after salvage lost its chain does not reuse generations.
func New(arena *pmem.Arena, al *alloc.Allocator, metaOff int, f *pmem.Flusher) (*Log, error) {
	l := &Log{arena: arena, al: al, metaOff: metaOff, gen: uint32(arena.ReadUint64(metaOff + 16))}
	c, err := al.AllocRawChunk()
	if err != nil {
		return nil, err
	}
	l.initChunk(c, l.nextGen(), f)
	l.chunks = []int64{c}
	l.tailChunk = c
	l.tailPos = chunkHeader
	l.persistMetaLocked(f)
	return l, nil
}

// initChunk writes and persists the header of an unlinked, empty chunk.
func (l *Log) initChunk(off int64, gen uint32, f *pmem.Flusher) {
	l.writeHeader(off, gen)
	f.Flush(int(off), 32)
	f.Fence()
}

// writeHeader stores a chunk header with no next link. The 64-bit
// generation is the log's identity (its metadata offset) above the log's
// counter, so two logs that reach the same count never give one physical
// chunk the same generation.
func (l *Log) writeHeader(off int64, gen uint32) {
	g := uint64(uint32(l.metaOff))<<32 | uint64(gen)
	l.arena.WriteUint64(int(off), chunkMagic)
	l.arena.WriteUint64(int(off)+8, 0)
	l.arena.WriteUint64(int(off)+genOff, g)
	l.arena.WriteUint64(int(off)+genOff+8, ^g)
}

// Tail returns the absolute offset of the next write position.
func (l *Log) Tail() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailChunk + int64(l.tailPos)
}

// TailChunk returns the chunk currently being appended to.
func (l *Log) TailChunk() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailChunk
}

// Chunks returns a snapshot of the chunk chain in order.
func (l *Log) Chunks() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int64, len(l.chunks))
	copy(out, l.chunks)
	return out
}

// Contains reports whether c is currently in the chain (the scrubber
// re-checks membership before attributing a corrupt region to live keys:
// a chunk unlinked and freed since the scan may have been reused).
func (l *Log) Contains(c int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ch := range l.chunks {
		if ch == c {
			return true
		}
	}
	return false
}

// roll terminates the tail chunk with an OpEnd marker and starts a new
// one. Every crash window is recoverable without a tail pointer: recovery
// walks the chain to the chunk with no next link, so an unlinked new chunk
// is simply freed and a linked, still-empty one is simply the tail. The
// slot persist at the end makes the new chunk's generation durable before
// the chunk can be closed, cleaned and its generation met again, and
// witnesses everything in the chunk just closed.
func (l *Log) roll(f *pmem.Flusher) error {
	// 1. End marker in the old chunk.
	if l.tailPos+HeaderSize <= pmem.ChunkSize {
		pos := int(l.tailChunk) + l.tailPos
		l.arena.WriteUint64(pos, uint64(OpEnd))
		l.arena.WriteUint64(pos+8, 0)
		f.Flush(pos, HeaderSize)
		f.Fence()
	}
	// 2. Fresh chunk of a new generation, linked from the old tail.
	c, err := l.al.AllocRawChunk()
	if err != nil {
		return err
	}
	l.initChunk(c, l.nextGen(), f)
	f.PersistUint64(int(l.tailChunk)+8, uint64(c))
	// 3. Generation counter and witness.
	l.mu.Lock()
	l.chunks = append(l.chunks, c)
	l.tailChunk = c
	l.tailPos = chunkHeader
	l.persistMetaLocked(f)
	l.mu.Unlock()
	return nil
}

// padEnd is where a batch whose trailer ends at chunk-relative pos stops:
// the next cacheline boundary (§3.2 "Padding": adjacent batches must not
// share a line or the second flush stalls), unless that leaves no room for
// the chunk's end marker. The scanner steps over the padding by the same
// rule, never by its content: a torn flush can leave a complete batch
// whose padding bytes are stale.
func padEnd(pos int) int {
	padded := (pos + pmem.CachelineSize - 1) &^ (pmem.CachelineSize - 1)
	if padded > pmem.ChunkSize-endMarkerReserve {
		return pos // end of chunk: roll will terminate it anyway
	}
	return padded
}

// AppendBatch encodes the entries contiguously at the tail, appends the
// batch's trailer, pads to a cacheline boundary, and persists the whole
// batch with a single flush+fence. It returns the absolute offset of each
// entry.
//
// Per batch this costs exactly ONE persist point, regardless of how many
// entries the batch carries: the trailer (generation, start offset,
// CRC32C) rides inside the batch flush and is the commit record, so no
// tail pointer is persisted. A crash leaves the batch either verifiable —
// then every earlier batch was fenced before it was written — or not, and
// then it is the torn tail.
func (l *Log) AppendBatch(f *pmem.Flusher, entries []*Entry) ([]int64, error) {
	return l.AppendBatchOffs(f, entries, nil)
}

// AppendBatchOffs is AppendBatch appending the entry offsets to offs
// (usually a recycled per-core scratch slice), returning the extended
// slice. On error the returned slice is offs unchanged.
func (l *Log) AppendBatchOffs(f *pmem.Flusher, entries []*Entry, offs []int64) ([]int64, error) {
	if len(entries) == 0 {
		return offs, nil
	}
	total := 0
	for _, e := range entries {
		total += e.EncodedSize()
	}
	if total > SurvivorCapacity {
		return offs, ErrBatchTooLarge
	}
	// A tail off the cacheline grid is padEnd's end-of-chunk case: nothing
	// more goes into this chunk, so that every batch starts on the grid
	// (findTail looks for batches only there).
	if l.tailPos+total+TrailerSize > pmem.ChunkSize-endMarkerReserve || l.tailPos%pmem.CachelineSize != 0 {
		if err := l.roll(f); err != nil {
			return offs, err
		}
	}
	mem := l.arena.Mem()
	base := int(l.tailChunk)
	start := l.tailPos
	pos := start
	for _, e := range entries {
		offs = append(offs, l.tailChunk+int64(pos))
		pos += e.EncodeTo(mem[base+pos:])
	}
	putTrailer(mem, base, base+start, base+pos)
	pos += TrailerSize
	padded := padEnd(pos)
	clear(mem[base+pos : base+padded])
	f.Flush(base+start, padded-start)
	f.Fence()
	l.lastBatch = padded - start
	// The tail moves only after the fence, and under mu: the cleaner and
	// the scrubber persist it as the witness from other goroutines.
	l.mu.Lock()
	l.tailPos = padded
	l.mu.Unlock()
	return offs, nil
}

// LastBatchBytes reports the persisted size of the most recent batch
// this log appended (entries, trailer, and cacheline padding — the bytes
// the flush actually covered). Owner core only, like AppendBatch.
func (l *Log) LastBatchBytes() int { return l.lastBatch }

// Append persists a single entry (a batch of one). Like AppendBatch it
// may only be called by the owning core, which lets it reuse the log's
// scratch arrays instead of allocating per call.
func (l *Log) Append(f *pmem.Flusher, e *Entry) (int64, error) {
	l.one = *e
	l.oneEnt[0] = &l.one
	offs, err := l.AppendBatchOffs(f, l.oneEnt[:], l.oneOff[:0])
	l.one.Value = nil // the caller's value buffer is the caller's again
	if err != nil {
		return 0, err
	}
	return offs[0], nil
}

// ValidChunkHeader reports whether off holds a log-chunk header: the
// magic, and a generation word that matches its complement. Crash recovery
// uses it to reject journal slots pointing at chunks that are not (or no
// longer) log chunks. Out-of-arena offsets are simply invalid, never a
// panic — the offset may come from corrupt media.
func ValidChunkHeader(arena *pmem.Arena, off int64) bool {
	if off < 0 || off%pmem.ChunkSize != 0 || off+chunkHeader > int64(arena.Size()) {
		return false
	}
	return arena.ReadUint64(int(off)) == chunkMagic &&
		arena.ReadUint64(int(off)+genOff) == ^arena.ReadUint64(int(off)+genOff+8)
}

// scanChunk is the batch-verifying walk shared by ScanChunk and
// SalvageChunk. Each batch's entries are delivered to fn only after its
// trailer verifies (this chunk's generation, this start offset, matching
// checksum): batchTrailer walks to the trailer first, and the entries are
// decoded again on delivery. The first position that holds neither a
// valid batch nor the end marker stops the walk with an error. It returns
// the absolute offset at which the walk stopped (the truncation-safe
// point), the error describing the invalidity (nil when the chunk scanned
// clean), and whether fn asked to stop early.
func scanChunk(arena *pmem.Arena, chunkOff, tail int64, fn func(off int64, e Entry) bool) (validEnd int64, batches int, err error, stopped bool) {
	mem := arena.Mem()
	base := int(chunkOff)
	end := base + pmem.ChunkSize
	if tail >= chunkOff && tail < chunkOff+pmem.ChunkSize {
		end = int(tail)
	}
	pos := base + chunkHeader
	corrupt := func(at int, cause error) (int64, int, error, bool) {
		return int64(at), batches, fmt.Errorf("oplog: chunk %#x offset %d: %w", chunkOff, at-base, cause), false
	}
	// A full chunk has no room for a marker after its last batch.
	for pos+HeaderSize <= end {
		w0 := getUint64(mem[pos:])
		if Op(w0&3) == OpEnd && !IsTrailerWord(w0) {
			// Chunk end marker; Decode validates its exact form.
			if _, _, derr := Decode(mem[pos:end]); derr != nil {
				return corrupt(pos, derr)
			}
			return int64(pos), batches, nil, false
		}
		start := pos
		t, werr := batchTrailer(mem, start, end)
		if werr != nil {
			return corrupt(start, werr)
		}
		if t == start || t+TrailerSize > end || !checkTrailer(mem, base, start, t) {
			return corrupt(start, ErrChecksum)
		}
		next := base + padEnd(t+TrailerSize-base)
		batches++
		for pos < t {
			e, n, _ := Decode(mem[pos:end]) // the walk decoded it already
			if !fn(int64(pos), e) {
				return int64(next), batches, nil, true
			}
			pos += n
		}
		pos = next
	}
	return int64(pos), batches, nil, false
}

// batchTrailer walks the entries of a batch from start and returns where
// its trailer sits: the first trailer-shaped word on an entry boundary
// before end. When the bytes stop decoding as Put/Delete entries first it
// returns the decode error, or ErrCorrupt for a pad word, an end marker or
// the end of the range. It is the walk scanChunk makes, so a
// trailer-shaped word inside an inline value, which no scan ever lands
// on, is never taken for one.
func batchTrailer(mem []byte, start, end int) (int, error) {
	for pos := start; pos+8 <= end; {
		if IsTrailerWord(getUint64(mem[pos:])) {
			return pos, nil
		}
		e, n, err := Decode(mem[pos:end])
		if err != nil {
			return -1, err
		}
		if e.Op == OpPad || e.Op == OpEnd {
			// A zero word or an end marker inside an unterminated batch:
			// the trailer never made it.
			return -1, ErrCorrupt
		}
		pos += n
	}
	return -1, ErrCorrupt
}

// walksTo reports whether the batch walk from start ends on the trailer
// at t.
func walksTo(mem []byte, start, t int) bool {
	at, _ := batchTrailer(mem, start, t+8)
	return at == t
}

// findTail returns where the log ends in its last chunk: the end of the
// last batch at or after from that verifies against the chunk's generation
// at its own start offset, or from when there is none. It looks for
// trailers, not entries, so it steps over anything that does not verify —
// a torn tail has nothing valid after it (batch N+1 is only written after
// batch N's fence), so a valid batch beyond an invalid one is rot in the
// middle of the log, and the replay scan up to the tail returned here
// reports it. Bytes beyond the tail are whatever the chunk held in an
// earlier life: they carry another generation, or another offset, or fail
// the checksum.
//
// A trailer counts only if its batch starts on the cacheline grid, where
// AppendBatchOffs puts every batch, and if walking the batch's entries from
// that start ends on it. So findTail accepts exactly what a scan delivers:
// a client value that holds a forged trailer for its own batch cannot move
// the tail into the middle of that batch.
func findTail(arena *pmem.Arena, chunk int64, from int) int {
	mem := arena.Mem()
	base := int(chunk)
	gen := getUint64(mem[base+genOff:]) & VersionMask
	tail := from
	for t := from + HeaderSize; t+TrailerSize <= base+pmem.ChunkSize; t += 8 {
		w0 := getUint64(mem[t:])
		if !IsTrailerWord(w0) || w0>>3&VersionMask != gen {
			continue
		}
		start := base + int(getUint64(mem[t+8:])>>32)
		if start < tail || start >= t || start%pmem.CachelineSize != 0 ||
			!checkTrailer(mem, base, start, t) || !walksTo(mem, start, t) {
			continue
		}
		tail = base + padEnd(t+TrailerSize-base)
		t = tail + HeaderSize - 8
	}
	return tail
}

// ScanChunk iterates the entries of one chunk, verifying each batch's
// trailer before delivering its entries. tail is the log's absolute tail:
// iteration stops there if the chunk contains it, otherwise at the OpEnd
// marker (or chunk end). fn returning false stops the scan early. Any
// structural corruption or checksum mismatch returns a typed error
// (wrapping ErrCorrupt or ErrChecksum); entries of an invalid batch are
// never delivered.
func ScanChunk(arena *pmem.Arena, chunkOff, tail int64, fn func(off int64, e Entry) bool) error {
	_, _, err, _ := scanChunk(arena, chunkOff, tail, fn)
	return err
}

// ChunkSalvage is the outcome of a salvage scan of one chunk.
type ChunkSalvage struct {
	// Entries is the number of entries delivered from verified batches.
	Entries int
	// Batches is the number of batches whose trailer checksum verified.
	Batches int
	// ValidEnd is the absolute offset where the verified walk stopped —
	// the end marker, the tail, the chunk end, or the first invalid batch.
	ValidEnd int64
	// CorruptAt is the absolute offset of the first invalid batch (the
	// log-truncation point), or -1 when the chunk scanned clean.
	CorruptAt int64
	// Err describes the invalidity when CorruptAt >= 0.
	Err error
	// Suspects holds a best-effort decode of the invalid region. The
	// bytes failed verification, so nothing in a suspect can be trusted —
	// salvage uses the keys only to quarantine, never to resurrect.
	Suspects []Entry
}

// SalvageChunk scans like ScanChunk but never fails: verified batches are
// delivered to fn, and on the first invalid batch the scan stops and the
// remainder of the chunk is harvested with SuspectScan for quarantine
// attribution.
func SalvageChunk(arena *pmem.Arena, chunkOff, tail int64, fn func(off int64, e Entry) bool) ChunkSalvage {
	res := ChunkSalvage{CorruptAt: -1}
	validEnd, batches, err, _ := scanChunk(arena, chunkOff, tail, func(off int64, e Entry) bool {
		res.Entries++
		return fn(off, e)
	})
	res.ValidEnd = validEnd
	res.Batches = batches
	if err == nil {
		return res
	}
	res.CorruptAt = validEnd
	res.Err = err
	end := chunkOff + int64(pmem.ChunkSize)
	if tail >= chunkOff && tail < end {
		end = tail
	}
	res.Suspects = SuspectScan(arena, validEnd, end)
	return res
}

// SuspectScan best-effort-decodes [lo, hi): it steps through the region
// collecting every plausibly decodable Put/Delete entry, resynchronizing
// on the 8-byte entry grid after undecodable words. The results are
// UNTRUSTED — a single flipped bit may have changed a key, a version, or
// the framing — and exist only so salvage can quarantine the keys whose
// acknowledged writes may have lived in the region.
func SuspectScan(arena *pmem.Arena, lo, hi int64) []Entry {
	mem := arena.Mem()
	if lo < 0 {
		lo = 0
	}
	if hi > int64(arena.Size()) {
		hi = int64(arena.Size())
	}
	var out []Entry
	for pos := lo; pos+8 <= hi; {
		e, n, err := Decode(mem[pos:hi])
		if err != nil {
			pos += 8
			continue
		}
		switch e.Op {
		case OpPut, OpDelete:
			out = append(out, e)
			pos += int64(n)
		case OpEnd:
			return out
		default: // OpPad
			pos += int64(n)
		}
	}
	return out
}

// OrphanSuspects harvests quarantine candidates from a log chunk that is
// not reachable from any chain. Salvage calls it when a chain broke: a
// chunk severed from its chain may hold the only copy of acknowledged
// writes, and the keys plausibly decoded from it must not be served from
// older state as if those writes never happened.
func OrphanSuspects(arena *pmem.Arena, chunkOff int64) []Entry {
	return SuspectScan(arena, chunkOff+chunkHeader, chunkOff+int64(pmem.ChunkSize))
}

// Scan iterates every entry of the log in chain order.
func (l *Log) Scan(fn func(off int64, e Entry) bool) error {
	tail := l.Tail()
	for _, c := range l.Chunks() {
		if err := ScanChunk(l.arena, c, tail, fn); err != nil {
			return err
		}
	}
	return nil
}

// WriteSurvivorChunk builds a fully persisted chunk holding the given
// entries (the log cleaner's output). The chunk is NOT linked into the
// chain yet — the caller journals it first and then calls LinkAtHead.
// Returns the chunk offset and each entry's absolute offset.
//
// Unlike a rolled chunk, a survivor carries a batch before it is linked,
// and a crash can strand it outside every chain where recovery cannot see
// its generation. So the bumped counter is persisted BEFORE the chunk: no
// later chunk of this log can then repeat the generation and wake the
// stranded batch up.
func (l *Log) WriteSurvivorChunk(f *pmem.Flusher, entries []*Entry) (int64, []int64, error) {
	total := 0
	for _, e := range entries {
		total += e.EncodedSize()
	}
	if total > SurvivorCapacity {
		return 0, nil, ErrBatchTooLarge
	}
	c, err := l.al.AllocSurvivorChunk()
	if err != nil {
		return 0, nil, err
	}
	l.mu.Lock()
	l.gen++
	gen := l.gen
	l.persistMetaLocked(f)
	l.mu.Unlock()

	mem := l.arena.Mem()
	base := int(c)
	l.writeHeader(c, gen)
	pos := chunkHeader
	offs := make([]int64, len(entries))
	for i, e := range entries {
		offs[i] = c + int64(pos)
		pos += e.EncodeTo(mem[base+pos:])
	}
	putTrailer(mem, base, base+chunkHeader, base+pos)
	pos += TrailerSize
	padded := padEnd(pos)
	clear(mem[base+pos : base+padded])
	l.arena.WriteUint64(base+padded, uint64(OpEnd))
	l.arena.WriteUint64(base+padded+8, 0)
	f.Flush(base, padded+HeaderSize)
	f.Fence()
	return c, offs, nil
}

// Truncate cuts the log at absolute offset at — the truncation-safe point
// a salvage scan reported — dropping every chunk linked after the one
// containing at and making that chunk the tail. The dropped chunks are
// returned so the caller can release them; they are NOT freed here. Used
// only during salvage recovery, before the store goes live.
//
// The batches it abandons in the new tail chunk are of the chunk's current
// generation and sit at their own offsets: left alone, they would verify
// again once later appends reach them. So the abandoned range is zeroed
// and flushed. The witness moves back first; a crash before the zeroing
// completes leaves the rot findable, and salvage truncates again.
func (l *Log) Truncate(f *pmem.Flusher, at int64) ([]int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := -1
	for i, c := range l.chunks {
		if at >= c+chunkHeader && at <= c+pmem.ChunkSize {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("oplog: truncate point %#x outside chain", at)
	}
	c := l.chunks[idx]
	dropped := make([]int64, len(l.chunks)-idx-1)
	copy(dropped, l.chunks[idx+1:])
	l.chunks = l.chunks[:idx+1]
	l.tailChunk = c
	l.tailPos = int(at - c)
	l.persistMetaLocked(f)
	if n := int(c) + pmem.ChunkSize - int(at); n > 0 {
		clear(l.arena.Mem()[at : at+int64(n)])
		f.Flush(int(at), n)
		f.Fence()
	}
	f.PersistUint64(int(c)+8, 0)
	return dropped, nil
}

// LinkAtHead inserts a (persisted) chunk at the head of the chain. Chain
// order does not affect correctness — recovery resolves entry age by
// version — so survivors go to the head, away from the appending tail.
func (l *Log) LinkAtHead(f *pmem.Flusher, c int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f.PersistUint64(int(c)+8, uint64(l.chunks[0]))
	l.chunks = append([]int64{c}, l.chunks...)
	l.persistMetaLocked(f)
}

// Unlink removes a chunk from the chain, persisting the repaired link.
// The chunk itself is not freed — the caller returns it to the allocator.
func (l *Log) Unlink(f *pmem.Flusher, victim int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if victim == l.tailChunk {
		return ErrUnlinkTail
	}
	idx := -1
	for i, c := range l.chunks {
		if c == victim {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("oplog: chunk %#x not in chain", victim)
	}
	var next uint64
	if idx+1 < len(l.chunks) {
		next = uint64(l.chunks[idx+1])
	}
	if idx == 0 {
		l.chunks = l.chunks[1:]
		l.persistMetaLocked(f)
	} else {
		f.PersistUint64(int(l.chunks[idx-1])+8, next)
		l.chunks = append(l.chunks[:idx], l.chunks[idx+1:]...)
	}
	return nil
}

// ChainDamage records what salvage recovery had to repair (or could not)
// while rebuilding one log's chain.
type ChainDamage struct {
	// MetaSuspect: the metadata slot's checksum failed. Head and witness
	// still validated structurally and were used; a crash can tear the
	// slot legitimately, but rot in the witness can hide rot in the newest
	// batches, so salvage reports the suspicion.
	MetaSuspect bool
	// ChainTruncated: the chain walk hit a bad link (cycle or invalid
	// chunk header) and kept only the prefix, or ended before the chunk
	// the witness points into.
	ChainTruncated bool
	// ChainLost: not even the first chunk was recoverable; the log is
	// gone and the caller must create a fresh one.
	ChainLost bool
}

// Any reports whether any damage was observed.
func (d ChainDamage) Any() bool {
	return d.MetaSuspect || d.ChainTruncated || d.ChainLost
}

// Recovered is what recovery read from a log's metadata slot and what it
// then found by verifying forward: Tail - Witness is how far past its
// witness the log was replayed.
type Recovered struct {
	// Witness is the persisted tail witness (an absolute offset).
	Witness int64
	// Tail is the discovered end of the log.
	Tail int64
	// Gen is the generation word of the tail chunk's header.
	Gen uint64
}

// Recovered reports what Recover found (zero for a log made by New).
func (l *Log) Recovered() Recovered { return l.found }

// Recover rebuilds a Log from its persisted state after a restart: it
// walks the chunk chain from the head pointer to the chunk with no next
// link, re-marks every chunk with the allocator, and finds the tail in
// that last chunk by verifying batches forward from the witness. A
// journaled survivor chunk that was never linked is not part of the chain:
// the engine replays it from its journal slot.
//
// A metadata-slot checksum mismatch alone is NOT an error here: a crash
// can tear the slot's flush legitimately, and head and witness are still
// validated structurally. Only salvage mode reports the suspicion.
func Recover(arena *pmem.Arena, al *alloc.Allocator, metaOff int) (*Log, error) {
	l, _, err := recoverLog(arena, al, metaOff, false)
	return l, err
}

// RecoverSalvage is Recover that never fails on chain damage: the intact
// prefix is kept and the damage reported instead of returned as an error.
// A nil Log (with ChainLost set) means nothing was recoverable; the caller
// creates a fresh log after allocator recovery finishes.
func RecoverSalvage(arena *pmem.Arena, al *alloc.Allocator, metaOff int) (*Log, ChainDamage) {
	l, d, _ := recoverLog(arena, al, metaOff, true)
	return l, d
}

func recoverLog(arena *pmem.Arena, al *alloc.Allocator, metaOff int, salvage bool) (*Log, ChainDamage, error) {
	d := ChainDamage{MetaSuspect: !MetaOK(arena, metaOff)}
	head := int64(arena.ReadUint64(metaOff))
	witness := int64(arena.ReadUint64(metaOff + 8))
	l := &Log{arena: arena, al: al, metaOff: metaOff, gen: uint32(arena.ReadUint64(metaOff + 16))}

	seen := map[int64]bool{}
	for c := head; c != 0; c = int64(arena.ReadUint64(int(c) + 8)) {
		// The chain pointers come straight off (possibly corrupt) media:
		// ValidChunkHeader bounds- and alignment-checks before anything
		// is dereferenced.
		if seen[c] || !ValidChunkHeader(arena, c) {
			if !salvage {
				if seen[c] {
					return nil, d, fmt.Errorf("oplog: chunk chain cycle at %#x", c)
				}
				return nil, d, fmt.Errorf("oplog: bad chunk %#x in chain", c)
			}
			d.ChainTruncated = true
			break
		}
		seen[c] = true
		l.chunks = append(l.chunks, c)
		// A crash inside roll can leave a linked chunk whose generation
		// the slot does not hold yet.
		if g := arena.ReadUint64(int(c) + genOff); g>>32 == uint64(uint32(metaOff)) && uint32(g) > l.gen {
			l.gen = uint32(g)
		}
	}
	if len(l.chunks) == 0 {
		if !salvage {
			return nil, d, errors.New("oplog: empty chain")
		}
		d.ChainLost = true
		return nil, d, nil
	}
	last := l.chunks[len(l.chunks)-1]
	for c := range seen {
		if !al.RecoverMarkRawChunk(c) {
			return nil, d, fmt.Errorf("oplog: chunk %#x outside allocator range", c)
		}
	}

	// The tail. The witness is persisted at every roll, so it points into
	// the last chunk, or — after a crash inside roll — into the one before
	// it. Anywhere else means the chain ends short of acknowledged data.
	from := last + chunkHeader
	switch {
	case witness >= from && witness <= last+pmem.ChunkSize && witness%8 == 0:
		from = witness
	case !seen[witness&^(pmem.ChunkSize-1)]:
		if !salvage {
			return nil, d, fmt.Errorf("oplog: tail witness %#x outside the chain ending at chunk %#x", witness, last)
		}
		d.ChainTruncated = true
	}
	l.tailChunk = last
	l.tailPos = findTail(arena, last, int(from)) - int(last)
	l.found = Recovered{Witness: witness, Tail: last + int64(l.tailPos), Gen: arena.ReadUint64(int(last) + genOff)}
	return l, d, nil
}
