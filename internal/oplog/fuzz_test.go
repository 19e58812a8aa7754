package oplog

import (
	"bytes"
	"hash/crc32"
	"testing"

	"flatstore/internal/alloc"
	"flatstore/internal/pmem"
)

// FuzzDecode hardens the log-entry decoder against arbitrary bytes: it
// must never panic or read out of bounds, and whatever it accepts must
// re-encode to the same size.
func FuzzDecode(f *testing.F) {
	seed := func(e Entry) {
		buf := make([]byte, e.EncodedSize())
		e.EncodeTo(buf)
		f.Add(buf)
	}
	seed(Entry{Op: OpPut, Version: 1, Key: 42, Ptr: 512})
	seed(Entry{Op: OpDelete, Version: 9, Key: 7})
	seed(Entry{Op: OpPut, Version: 3, Key: 1, Inline: true, Value: []byte("hello")})
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		switch e.Op {
		case OpPad, OpEnd:
			return
		case OpPut, OpDelete:
			// Accepted entries must round-trip byte-for-byte over the
			// consumed prefix (canonical encoding), modulo inline
			// padding bytes the decoder ignores.
			re := make([]byte, e.EncodedSize())
			if e.EncodedSize() != n {
				t.Fatalf("EncodedSize %d != consumed %d", e.EncodedSize(), n)
			}
			e.EncodeTo(re)
			if e.Inline {
				// Padding after the value is not canonical; compare
				// the meaningful prefix only.
				meaning := HeaderSize + len(e.Value)
				if !bytes.Equal(re[:meaning], data[:meaning]) {
					t.Fatalf("roundtrip mismatch")
				}
			} else if !bytes.Equal(re, data[:n]) {
				t.Fatalf("roundtrip mismatch")
			}
		default:
			t.Fatalf("Decode returned invalid op %d", e.Op)
		}
	})
}

// fuzzTailBase is the image FuzzScanTail plants its suffixes in: one log
// whose single chunk holds a verified prefix of three batches, with the
// witness either at the start of the chunk (nothing witnessed) or at the
// tail.
type fuzzTailBase struct {
	a     *pmem.Arena
	chunk int
	tail  int
	keys  []uint64
}

func newFuzzTailBase(tb testing.TB) *fuzzTailBase {
	a := pmem.New(2 * pmem.ChunkSize)
	al := alloc.New(a, 1, 1, 1)
	f := a.NewFlusher()
	l, err := New(a, al, 0, f)
	if err != nil {
		tb.Fatal(err)
	}
	b := &fuzzTailBase{a: a, chunk: int(l.TailChunk())}
	for i := 0; i < 3; i++ {
		es, ks := batchOf(uint64(10+10*i), 1+i, 12+30*i)
		if _, err := l.AppendBatch(f, es); err != nil {
			tb.Fatal(err)
		}
		b.keys = append(b.keys, ks...)
	}
	b.tail = int(l.Tail())
	return b
}

// refTrailer is the trailer a log of generation word gen writes behind
// batch when the batch starts at chunk-relative offset start — the format
// of entry.go spelled out once more, so the fuzz oracle shares no code
// with the scanner it judges.
func refTrailer(batch []byte, gen uint64, start int) []byte {
	tr := make([]byte, TrailerSize+8)
	putUint64(tr, 3|1<<2|gen&(1<<21-1)<<3|uint64(len(batch))<<24)
	putUint64(tr[8:], uint64(start)<<32)
	putUint64(tr[16:], gen)
	sum := crc32.Checksum(batch, castagnoli)
	sum = crc32.Update(sum, castagnoli, tr[:8])
	sum = crc32.Update(sum, castagnoli, tr[12:])
	putUint64(tr[8:], uint64(start)<<32|uint64(sum))
	return tr[:TrailerSize]
}

// batchBytes encodes es as a batch of generation word gen at chunk-relative
// offset start.
func batchBytes(es []*Entry, gen uint64, start int) []byte {
	var out []byte
	for _, e := range es {
		buf := make([]byte, e.EncodedSize())
		e.EncodeTo(buf)
		out = append(out, buf...)
	}
	return append(out, refTrailer(out, gen, start)...)
}

// wellFormedPrefix returns the keys of the batches of generation word gen
// that lie back to back, each on its cacheline boundary, from the start of
// suffix on; suffix is the rest of the chunk from chunk-relative offset
// start (the planted bytes and the zeros behind them).
func wellFormedPrefix(suffix []byte, gen uint64, start int) (keys []uint64) {
	for pos := 0; ; {
		var ks []uint64
		p := pos
		for p+8 <= len(suffix) && !IsTrailerWord(getUint64(suffix[p:])) {
			e, n, err := Decode(suffix[p:])
			if err != nil || (e.Op != OpPut && e.Op != OpDelete) {
				return keys
			}
			ks = append(ks, e.Key)
			p += n
		}
		if len(ks) == 0 || p+TrailerSize > len(suffix) ||
			!bytes.Equal(suffix[p:p+TrailerSize], refTrailer(suffix[pos:p], gen, start+pos)) {
			return keys
		}
		keys = append(keys, ks...)
		pos = padEnd(start+p+TrailerSize) - start
	}
}

// FuzzScanTail plants arbitrary bytes behind a verified prefix, as a crash
// could leave them on the media, and recovers. Recovery must never
// panic and never deliver an entry from the suffix unless the suffix is a
// well-formed batch of this chunk's generation at its own offset (then
// that batch was durable, and delivering it is right). With the witness at
// the tail the same holds.
func FuzzScanTail(f *testing.F) {
	base := newFuzzTailBase(f)
	gen := base.a.ReadUint64(base.chunk + genOff)
	rel := base.tail - base.chunk
	one, _ := batchOf(500, 2, 20)
	two, _ := batchOf(600, 1, 100)
	valid := batchBytes(one, gen, rel)
	f.Add([]byte{}, false)
	f.Add(bytes.Repeat([]byte{0xff}, 64), true)
	f.Add(valid, false)                                                             // a durable, unfenced batch
	f.Add(batchBytes(one, gen-1, rel), false)                                       // the chunk's previous life
	f.Add(batchBytes(one, gen^1<<40, rel), true)                                    // another log, same count
	f.Add(batchBytes(one, gen, rel+64), false)                                      // right generation, wrong place
	f.Add(base.a.Read(base.chunk+chunkHeader, 64), false)                           // a transplanted earlier batch
	f.Add(trailerShaped(base.a, int64(base.chunk), 256), false)                     // trailer-shaped value bytes
	f.Add(batchBytes([]*Entry{forgedTrailerEntry(700, gen, rel)}, gen, rel), false) // a value that forges its batch's trailer
	f.Add(append(valid[:len(valid):len(valid)], 1, 2, 3), false)                    // valid, then junk
	f.Add(append(append(valid[:len(valid):len(valid)], make([]byte, padEnd(rel+len(valid))-rel-len(valid))...),
		batchBytes(two, gen, padEnd(rel+len(valid)))...), true) // two valid batches
	f.Add(append(bytes.Repeat([]byte{9}, 128), batchBytes(two, gen, rel+128)...), false) // rot, then a valid batch

	f.Fuzz(func(t *testing.T, suffix []byte, witnessed bool) {
		if len(suffix) > 1<<16 {
			suffix = suffix[:1<<16]
		}
		a := base.a
		a.Write(base.tail, suffix)
		witness := uint64(base.chunk + chunkHeader)
		if witnessed {
			witness = uint64(base.tail)
		}
		a.WriteUint64(8, witness)
		defer clear(a.Mem()[base.tail : base.tail+len(suffix)])

		// Both views hold the planted bytes and recovery writes nothing,
		// so it can run on the base arena itself (a Crash copy per input
		// would be most of the cost of an execution).
		al := alloc.New(a, 1, 1, 1)
		al.BeginRecovery()
		l, err := Recover(a, al, 0)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		var got []uint64
		serr := l.Scan(func(_ int64, e Entry) bool { got = append(got, e.Key); return true })
		allowed := append(append([]uint64(nil), base.keys...), wellFormedPrefix(a.Mem()[base.tail:base.chunk+pmem.ChunkSize], gen, rel)...)
		if len(got) > len(allowed) || !equalKeys(got, allowed[:len(got)]) || len(got) < len(base.keys) {
			t.Fatalf("delivered %v, verified prefix %v, well-formed continuation %v (scan error: %v)",
				got, base.keys, allowed[len(base.keys):], serr)
		}
		if serr == nil && len(got) != len(allowed) {
			t.Fatalf("clean scan delivered %v and dropped well-formed batches %v", got, allowed[len(got):])
		}
	})
}
