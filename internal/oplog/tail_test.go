package oplog

// Tests for the one-persist-point append: a batch is its own commit record,
// the tail is found by verifying forward from the witness, and nothing from
// a chunk's earlier life, nor the remnant of a torn batch, ever verifies.

import (
	"bytes"
	"fmt"
	"testing"

	"flatstore/internal/alloc"
	"flatstore/internal/pmem"
)

// crashed is the panic value of an injected crash.
type crashed struct{}

// runCrash runs fn with a crash armed at a's n-th persist point (1-based):
// a flush there keeps only its first keep bytes (8-byte granular; keep < 0
// drops it whole) and the run panics out. It reports whether the point was
// reached.

func runCrash(a *pmem.Arena, n, keep int, fn func()) (hit bool) {
	points := 0
	a.SetHook(func(kind pmem.PointKind, off, size int) {
		points++
		if points != n {
			return
		}
		if kind == pmem.PointFlush && keep > 0 {
			a.CopyToMedia(off, min(keep&^7, size))
		}
		panic(crashed{})
	})
	defer a.SetHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashed); !ok {
				panic(r)
			}
			hit = true
		}
	}()
	fn()
	return false
}

// flushSizes runs fn and returns the byte count of every persist point it
// passes (0 for fences and drains).
func flushSizes(a *pmem.Arena, fn func()) (sizes []int) {
	a.SetHook(func(kind pmem.PointKind, _, size int) {
		if kind != pmem.PointFlush {
			size = 0
		}
		sizes = append(sizes, size)
	})
	defer a.SetHook(nil)
	fn()
	return sizes
}

// sweepCrashes runs trial once for every persist point of the swept part
// of a scenario and, at every flush, once for every 8-byte prefix that
// flush can tear to. build sets a fresh scenario up and returns the swept
// part.
func sweepCrashes(t *testing.T, build func() (*pmem.Arena, func()), check func(t *testing.T, media *pmem.Arena, what string)) {
	t.Helper()
	a, swept := build()
	sizes := flushSizes(a, swept)
	if len(sizes) == 0 {
		t.Fatal("swept part has no persist points")
	}
	trials := 0
	for n, size := range sizes {
		keeps := []int{-1}
		for k := 8; k < size; k += 8 {
			keeps = append(keeps, k)
		}
		for _, keep := range keeps {
			a, swept := build()
			if !runCrash(a, n+1, keep, swept) {
				t.Fatalf("point %d not reached on the rerun", n+1)
			}
			check(t, a.Crash(), fmt.Sprintf("point %d/%d keep %d/%d", n+1, len(sizes), keep, size))
			trials++
		}
	}
	t.Logf("%d persist points, %d crash trials", len(sizes), trials)
}

// keysOf recovers the log at metaOff from media and returns the keys its
// scan delivers, in order.
func keysOf(t *testing.T, media *pmem.Arena, al *alloc.Allocator, metaOff int, what string) (*Log, []uint64) {
	t.Helper()
	l, err := Recover(media, al, metaOff)
	if err != nil {
		t.Fatalf("%s: recover: %v", what, err)
	}
	var keys []uint64
	if err := l.Scan(func(_ int64, e Entry) bool { keys = append(keys, e.Key); return true }); err != nil {
		t.Fatalf("%s: scan: %v", what, err)
	}
	return l, keys
}

// checkKeys asserts that got is acked followed by a (possibly empty)
// prefix-closed run of whole in-flight batches.
func checkKeys(t *testing.T, what string, got, acked []uint64, inflight [][]uint64) {
	t.Helper()
	want := append([]uint64(nil), acked...)
	if len(got) < len(want) || !equalKeys(got[:len(want)], want) {
		t.Fatalf("%s: delivered %v, acknowledged %v", what, got, want)
	}
	rest := got[len(want):]
	for _, b := range inflight {
		if len(rest) == 0 {
			return
		}
		if len(rest) < len(b) || !equalKeys(rest[:len(b)], b) {
			break
		}
		rest = rest[len(b):]
	}
	if len(rest) != 0 {
		t.Fatalf("%s: delivered %v beyond the acknowledged %v: not the in-flight batches %v", what, rest, want, inflight)
	}
}

func equalKeys(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchOf builds a batch of n inline entries keyed from key up.
func batchOf(key uint64, n, vlen int) ([]*Entry, []uint64) {
	var es []*Entry
	var keys []uint64
	for i := 0; i < n; i++ {
		es = append(es, &Entry{Op: OpPut, Version: 1, Key: key + uint64(i), Inline: true,
			Value: bytes.Repeat([]byte{byte(key) + byte(i) + 1}, vlen)})
		keys = append(keys, key+uint64(i))
	}
	return es, keys
}

func mustAppend(t *testing.T, l *Log, f *pmem.Flusher, es []*Entry) {
	t.Helper()
	if _, err := l.AppendBatch(f, es); err != nil {
		t.Fatal(err)
	}
}

const (
	oldLife = 1 << 20 // keys of a chunk's previous life
	newLife = 1 << 40 // keys appended after the chunk was reused
)

// TestChunkReuseNeverReplaysPreviousLife fills a log chunk, lets the
// cleaner's unlink-and-free return it to the pool, and has a log roll into
// the same physical chunk — the log that owned it, and another log whose
// counter stands at the same value. The previous life's batches lie intact
// right behind the new tail, at their own offsets. Crashing at every
// persist point and every torn prefix of the roll and of the first batches
// of the new life, recovery must deliver the acknowledged new entries, at
// most the in-flight batch, and never an old one; and again after a second
// crash.
func TestChunkReuseNeverReplaysPreviousLife(t *testing.T) {
	for _, other := range []bool{false, true} {
		name := "same-log"
		if other {
			name = "other-log"
		}
		t.Run(name, func(t *testing.T) {
			const metaA, metaB = 0, 64
			var inflight [][]uint64
			var ackedB []uint64
			var reused int64
			build := func() (*pmem.Arena, func()) {
				a := pmem.New(5 * pmem.ChunkSize)
				al := alloc.New(a, 1, 4, 1)
				f := a.NewFlusher()
				la, err := New(a, al, metaA, f)
				if err != nil {
					t.Fatal(err)
				}
				lb, err := New(a, al, metaB, f)
				if err != nil {
					t.Fatal(err)
				}
				// A's second chunk gets the previous life, under A's count
				// of 2 — the count B's roll into it will reach as well.
				if err := la.roll(f); err != nil {
					t.Fatal(err)
				}
				reused = la.tailChunk
				for i := 0; i < 40; i++ {
					es, _ := batchOf(oldLife+uint64(i)*8, 1+i%5, 8+i*5%200)
					mustAppend(t, la, f, es)
				}
				if err := la.roll(f); err != nil {
					t.Fatal(err)
				}
				if err := la.Unlink(f, reused); err != nil {
					t.Fatal(err)
				}
				al.FreeRawChunk(reused, f)
				ackedB = nil
				es, ks := batchOf(newLife, 3, 30)
				mustAppend(t, lb, f, es)
				ackedB = append(ackedB, ks...)

				l := la
				if other {
					l = lb
				}
				inflight = nil
				var batches [][]*Entry
				for i, n := range []int{1, 3, 2} {
					es, ks := batchOf(newLife+100+uint64(i)*10, n, 10+i*50)
					batches = append(batches, es)
					inflight = append(inflight, ks)
				}
				return a, func() {
					if err := l.roll(f); err != nil {
						t.Fatal(err)
					}
					if l.tailChunk != reused {
						t.Fatalf("rolled into %#x, not the freed chunk %#x", l.tailChunk, reused)
					}
					for _, es := range batches {
						mustAppend(t, l, f, es)
					}
				}
			}
			sweepCrashes(t, build, func(t *testing.T, media *pmem.Arena, what string) {
				al := alloc.New(media, 1, 4, 1)
				al.BeginRecovery()
				la, keysA := keysOf(t, media, al, metaA, what)
				lb, keysB := keysOf(t, media, al, metaB, what)
				for _, k := range append(keysA, keysB...) {
					if k >= oldLife && k < newLife {
						t.Fatalf("%s: key %#x of the chunk's previous life was delivered", what, k)
					}
				}
				l, got, acked := la, keysA, []uint64(nil)
				if other {
					l, got, acked = lb, keysB, ackedB
					checkKeys(t, what+" (log A)", keysA, nil, nil)
				} else {
					checkKeys(t, what+" (log B)", keysB, ackedB, nil)
				}
				checkKeys(t, what, got, acked, inflight)
				al.FinishRecovery()

				// The recovered log takes appends, and a second crash
				// changes nothing but them.
				f := media.NewFlusher()
				es, ks := batchOf(newLife+900, 2, 20)
				mustAppend(t, l, f, es)
				media2 := media.Crash()
				al2 := alloc.New(media2, 1, 4, 1)
				al2.BeginRecovery()
				meta := metaA
				if other {
					meta = metaB
				}
				_, got2 := keysOf(t, media2, al2, meta, what+" second crash")
				if !equalKeys(got2, append(got, ks...)) {
					t.Fatalf("%s: second recovery delivered %v, want %v", what, got2, append(got, ks...))
				}
			})
		})
	}
}

// TestRollCrashWindows crashes between each of roll's persists (and at
// every torn prefix of them) and before the first batch in the new chunk:
// the chain ends either at the old chunk or at the new, still-empty one,
// which is then simply the tail — in use, linked once, and appendable. No
// acknowledged entry is lost and no chunk leaks.
func TestRollCrashWindows(t *testing.T) {
	var acked []uint64
	es, inflight := batchOf(newLife, 3, 40)
	build := func() (*pmem.Arena, func()) {
		a := pmem.New(3 * pmem.ChunkSize)
		al := alloc.New(a, 1, 2, 1)
		f := a.NewFlusher()
		l, err := New(a, al, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		acked = nil
		for i := 0; i < 5; i++ {
			es, ks := batchOf(uint64(100+i*10), 1+i, 24)
			mustAppend(t, l, f, es)
			acked = append(acked, ks...)
		}
		return a, func() {
			if err := l.roll(f); err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, f, es)
		}
	}
	sweepCrashes(t, build, func(t *testing.T, media *pmem.Arena, what string) {
		al := alloc.New(media, 1, 2, 1)
		al.BeginRecovery()
		l, got := keysOf(t, media, al, 0, what)
		checkKeys(t, what, got, acked, [][]uint64{inflight})
		chain := l.Chunks()
		if len(chain) == 2 && l.TailChunk() != chain[1] {
			t.Fatalf("%s: chain %#x but tail chunk %#x", what, chain, l.TailChunk())
		}
		if g := uint32(media.ReadUint64(int(l.TailChunk()) + genOff)); l.gen < g {
			t.Fatalf("%s: counter %d behind the tail chunk's generation %d", what, l.gen, g)
		}
		al.FinishRecovery()
		if free, raw := al.FreeChunks(), len(al.RawChunks()); raw != len(chain) || free+raw != 2 {
			t.Fatalf("%s: %d chain chunks, %d raw, %d free of 2", what, len(chain), raw, free)
		}
		f := media.NewFlusher()
		es, ks := batchOf(newLife+50, 1, 16)
		mustAppend(t, l, f, es)
		media2 := media.Crash()
		al2 := alloc.New(media2, 1, 2, 1)
		al2.BeginRecovery()
		_, got2 := keysOf(t, media2, al2, 0, what+" second crash")
		if !equalKeys(got2, append(got, ks...)) {
			t.Fatalf("%s: second recovery delivered %v, want %v", what, got2, append(got, ks...))
		}
	})
}

// trailerShaped fills a value with words a careless scanner could take for
// this chunk's trailers: the marker and generation of the chunk at chunk,
// lengths and start offsets that point at plausible batch starts.
func trailerShaped(a *pmem.Arena, chunk int64, n int) []byte {
	gen := a.ReadUint64(int(chunk)+genOff) & VersionMask
	out := make([]byte, n)
	for i := 0; i+16 <= n; i += 16 {
		start := uint64(chunkHeader + i/16*64)
		putUint64(out[i:], uint64(OpEnd)|1<<2|gen<<3|uint64(64+i)<<24)
		putUint64(out[i+8:], start<<32|0xdeadbeef)
	}
	return out
}

// TestTornBatchRemnant tears a long batch at every 8-byte prefix, recovers,
// appends a shorter batch over its start, crashes and recovers again. The
// long batch's values are trailer-shaped words, so its remnant behind the
// short batch looks as much like a batch as bytes can. Recovery delivers
// the acknowledged entries and the long batch whole or not at all, then
// exactly that and the short batch.
func TestTornBatchRemnant(t *testing.T) {
	var acked []uint64
	var long []*Entry
	build := func() (*pmem.Arena, func()) {
		a := pmem.New(2 * pmem.ChunkSize)
		al := alloc.New(a, 1, 1, 1)
		f := a.NewFlusher()
		l, err := New(a, al, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		es, ks := batchOf(7, 2, 33)
		mustAppend(t, l, f, es)
		acked = ks
		long = nil
		for i := 0; i < 4; i++ {
			long = append(long, &Entry{Op: OpPut, Version: 2, Key: oldLife + uint64(i), Inline: true,
				Value: trailerShaped(a, l.tailChunk, 256)})
		}
		return a, func() { mustAppend(t, l, f, long) }
	}
	sweepCrashes(t, build, func(t *testing.T, media *pmem.Arena, what string) {
		al := alloc.New(media, 1, 1, 1)
		al.BeginRecovery()
		l, got := keysOf(t, media, al, 0, what)
		// The whole batch on the media is a durable batch, fenced or not.
		checkKeys(t, what, got, acked, [][]uint64{{oldLife, oldLife + 1, oldLife + 2, oldLife + 3}})
		al.FinishRecovery()
		f := media.NewFlusher()
		es, ks := batchOf(newLife, 1, 9)
		mustAppend(t, l, f, es)
		media2 := media.Crash()
		al2 := alloc.New(media2, 1, 1, 1)
		al2.BeginRecovery()
		_, got2 := keysOf(t, media2, al2, 0, what+" after the short batch")
		if !equalKeys(got2, append(got, ks...)) {
			t.Fatalf("%s: delivered %v after the short batch, want %v then %v", what, got2, got, ks)
		}
	})
}

// TestTruncateBuriesAbandonedBatches cuts a log in front of valid batches
// of the chunk's current generation, then appends until the new tail
// reaches the offset one of them sat at. They must not come back.
func TestTruncateBuriesAbandonedBatches(t *testing.T) {
	l, a, _, f := newTestLog(t, 4)
	var offs []int64
	var keys [][]uint64
	for i := 0; i < 6; i++ {
		es, ks := batchOf(uint64(100+i*10), 2, 40) // 2 × 56 + 16 = 128 B each
		o, err := l.AppendBatch(f, es)
		if err != nil {
			t.Fatal(err)
		}
		offs, keys = append(offs, o[0]), append(keys, ks)
	}
	dropped, err := l.Truncate(f, offs[2])
	if err != nil || len(dropped) != 0 {
		t.Fatalf("truncate: %v, dropped %v", err, dropped)
	}
	// Two new batches of the same size land exactly where batches 2 and 3
	// were; batches 4 and 5 would follow at their own offsets.
	want := append(append([]uint64(nil), keys[0]...), keys[1]...)
	for i := 0; i < 2; i++ {
		es, ks := batchOf(newLife+uint64(i)*10, 2, 40)
		mustAppend(t, l, f, es)
		want = append(want, ks...)
	}
	if l.Tail() != offs[4] {
		t.Fatalf("tail %#x, want the old offset of batch 4 (%#x)", l.Tail(), offs[4])
	}
	media := a.Crash()
	al2 := alloc.New(media, 1, 4, 1)
	al2.BeginRecovery()
	l2, got := keysOf(t, media, al2, 0, "after truncate")
	if !equalKeys(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if l2.Tail() != offs[4] {
		t.Fatalf("recovered tail %#x, want %#x", l2.Tail(), offs[4])
	}
}

// TestStrandedSurvivorGeneration: a crash between a survivor chunk's flush
// and its journaling strands a chunk that holds a batch but is in no
// chain. Its generation must already be behind the persisted counter, or
// the next chunk of this log would repeat it.
func TestStrandedSurvivorGeneration(t *testing.T) {
	l, a, _, f := newTestLog(t, 4)
	es, _ := batchOf(5, 2, 20)
	mustAppend(t, l, f, es)
	c, _, err := l.WriteSurvivorChunk(f, es)
	if err != nil {
		t.Fatal(err)
	}
	stranded := uint32(a.ReadUint64(int(c) + genOff))
	media := a.Crash()
	al2 := alloc.New(media, 1, 4, 1)
	al2.BeginRecovery()
	l2, err := Recover(media, al2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.gen < stranded {
		t.Fatalf("recovered counter %d, stranded survivor has generation %d", l2.gen, stranded)
	}
	if r := l2.Recovered(); r.Witness != l.Tail() || r.Tail != l.Tail() {
		t.Fatalf("recovered witness %#x tail %#x, want both %#x", r.Witness, r.Tail, l.Tail())
	}
}

// TestWitnessMakesTailRotLoud: a flipped bit in the last batch reads as a
// torn tail while nothing witnesses the batch, and as corruption once the
// witness covers it.
func TestWitnessMakesTailRotLoud(t *testing.T) {
	for _, witnessed := range []bool{false, true} {
		l, a, _, f := newTestLog(t, 4)
		var want []uint64
		var last int64
		for i := 0; i < 3; i++ {
			es, ks := batchOf(uint64(10+i*10), 2, 24)
			o, err := l.AppendBatch(f, es)
			if err != nil {
				t.Fatal(err)
			}
			last = o[0]
			if i < 2 {
				want = append(want, ks...)
			}
		}
		if witnessed {
			l.PersistWitness(f)
		}
		a.CorruptMedia(int(last)+20, 1, func(b []byte) { b[0] ^= 4 })
		media := a.Crash()
		al2 := alloc.New(media, 1, 4, 1)
		al2.BeginRecovery()
		l2, err := Recover(media, al2, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		err = l2.Scan(func(_ int64, e Entry) bool { got = append(got, e.Key); return true })
		switch {
		case witnessed && err == nil:
			t.Fatalf("rot under the witness scanned clean (delivered %v)", got)
		case !witnessed && (err != nil || !equalKeys(got, want)):
			t.Fatalf("unwitnessed rotted tail: err %v, delivered %v, want %v", err, got, want)
		}
	}
}

// TestTransplantedBatchDoesNotVerify copies a valid batch, trailer and
// all, to the tail of the same chunk — same generation, same length, same
// bytes. Only the start offset in the trailer tells the copy from a batch
// written there.
func TestTransplantedBatchDoesNotVerify(t *testing.T) {
	l, a, _, f := newTestLog(t, 4)
	es, ks := batchOf(3, 2, 40)
	offs, err := l.AppendBatch(f, es)
	if err != nil {
		t.Fatal(err)
	}
	n := int(l.Tail() - offs[0])
	a.Write(int(l.Tail()), a.Read(int(offs[0]), n))
	f.Flush(int(l.Tail()), n)
	media := a.Crash()
	al2 := alloc.New(media, 1, 4, 1)
	al2.BeginRecovery()
	l2, got := keysOf(t, media, al2, 0, "transplant")
	if !equalKeys(got, ks) || l2.Tail() != l.Tail() {
		t.Fatalf("delivered %v with tail %#x, want %v with tail %#x", got, l2.Tail(), ks, l.Tail())
	}
}

// forgedTrailerEntry is one inline Put whose value holds, 16 bytes in, a
// trailer that verifies for the entry's own batch cut short there: right
// generation, the batch's real start offset (rel, chunk-relative), a true
// checksum over the bytes before it. A client that knows where its write
// will land can build this; only the entry walk tells it from a trailer.
func forgedTrailerEntry(key, gen uint64, rel int) *Entry {
	e := &Entry{Op: OpPut, Version: 1, Key: key, Inline: true, Value: bytes.Repeat([]byte{0x5a}, 64)}
	buf := make([]byte, e.EncodedSize())
	e.EncodeTo(buf)
	copy(e.Value[16:], refTrailer(buf[:HeaderSize+16], gen, rel))
	return e
}

// TestForgedTrailerInValue: the tail is found behind the whole batch, not
// behind the trailer its value carries, and the batch is delivered.
func TestForgedTrailerInValue(t *testing.T) {
	l, a, _, f := newTestLog(t, 4)
	es, ks := batchOf(3, 2, 40)
	mustAppend(t, l, f, es)
	c := l.TailChunk()
	forged := forgedTrailerEntry(77, a.ReadUint64(int(c)+genOff), int(l.Tail()-c))
	mustAppend(t, l, f, []*Entry{forged})
	media := a.Crash()
	al2 := alloc.New(media, 1, 4, 1)
	al2.BeginRecovery()
	l2, got := keysOf(t, media, al2, 0, "forged trailer")
	if want := append(ks, 77); !equalKeys(got, want) || l2.Tail() != l.Tail() {
		t.Fatalf("delivered %v with tail %#x, want %v with tail %#x", got, l2.Tail(), want, l.Tail())
	}
}

// TestBatchesStartOnCachelineGrid fills a chunk with batches sized so that
// the padded tail runs into the end-marker reserve, where padEnd stops
// padding: the next batch goes to a new chunk, never to the odd offset.
func TestBatchesStartOnCachelineGrid(t *testing.T) {
	l, _, _, f := newTestLog(t, 4)
	first := l.TailChunk()
	// 16 B header + 8 B value + 16 B trailer = 40 B, padded to 64.
	for int(l.Tail()-first) < pmem.ChunkSize-128 {
		mustAppend(t, l, f, []*Entry{{Op: OpPut, Key: 1, Inline: true, Value: make([]byte, 8)}})
	}
	// A 72 B batch ends 56 B short of the chunk end; padded it would sit on
	// the end, so the tail stays there — off the grid, with room for a 32 B
	// tombstone batch and the end marker.
	mustAppend(t, l, f, []*Entry{{Op: OpPut, Key: 2, Inline: true, Value: make([]byte, 40)}})
	if l.TailChunk() != first || int(l.Tail()-first) != pmem.ChunkSize-56 {
		t.Fatalf("tail %#x: want it 56 B short of the end of the first chunk %#x", l.Tail(), first)
	}
	off, err := l.Append(f, &Entry{Op: OpDelete, Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.TailChunk() == first || off%pmem.CachelineSize != 0 {
		t.Fatalf("batch written at %#x: want it on the grid in a new chunk", off)
	}
}
