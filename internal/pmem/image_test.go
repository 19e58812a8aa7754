package pmem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// snapshot is the arena's image stream.
func snapshot(t *testing.T, a *Arena) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// extentCases are arenas whose media differs from zero in each way the
// extent bookkeeping has to notice. Every case also leaves an unflushed
// store behind, which no reopen may see.
var extentCases = []struct {
	name    string
	touched int // extents the case writes
	build   func(a *Arena)
}{
	{"empty", 0, func(a *Arena) {}},
	{"line-in-first-extent", 1, func(a *Arena) {
		a.NewFlusher().Persist(128, pattern(CachelineSize, 1))
	}},
	{"line-in-last-extent", 1, func(a *Arena) {
		a.NewFlusher().Persist(a.Size()-CachelineSize, pattern(CachelineSize, 2))
	}},
	{"flush-straddling-extents", 2, func(a *Arena) {
		a.NewFlusher().Persist(3*extentSize-CachelineSize, pattern(2*CachelineSize, 3))
	}},
	{"torn-prefix", 1, func(a *Arena) {
		off := ChunkSize + 5*extentSize
		a.Write(off, pattern(CachelineSize, 4))
		a.CopyToMedia(off, 24)
	}},
	{"corrupt-media", 3, func(a *Arena) {
		a.NewFlusher().Persist(7*extentSize, pattern(CachelineSize, 5))
		a.CorruptMedia(9*extentSize-8, 16, func(b []byte) {
			for i := range b {
				b[i] ^= 0xA5
			}
		})
	}},
	{"corrupt-both-views", 1, func(a *Arena) {
		a.Corrupt(11*extentSize, 8, func(b []byte) { b[0] |= 1 })
	}},
	{"full-chunk", ChunkSize / extentSize, func(a *Arena) {
		a.NewFlusher().Persist(ChunkSize, pattern(ChunkSize, 6))
	}},
}

// checkReopens is the snapshot → reload → byte-exact check: a's image
// stream is its header and media view, and an arena reopened from it —
// streamed, over an Image, or by Crash — holds exactly those bytes in both
// views and writes the same stream again.
func checkReopens(t *testing.T, a *Arena) {
	t.Helper()
	want := append([]byte(nil), a.media...)
	stream := snapshot(t, a)
	if len(stream) != 16+len(want) || !bytes.Equal(stream[16:], want) {
		t.Fatal("WriteTo is not header + media view")
	}
	streamed, err := ReadArena(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Image()
	if err != nil {
		t.Fatal(err)
	}
	imaged, err := im.Open()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*Arena{"ReadArena": streamed, "Image.Open": imaged, "Crash": a.Crash()} {
		if !bytes.Equal(b.media, want) || !bytes.Equal(b.mem, want) {
			t.Errorf("%s: views differ from the source's media view", name)
		}
		if !bytes.Equal(snapshot(t, b), stream) {
			t.Errorf("%s: second image differs from the first", name)
		}
		if got := b.TouchedBytes(); got > a.TouchedBytes() {
			t.Errorf("%s: %d touched bytes, source has %d", name, got, a.TouchedBytes())
		}
		b.Release()
	}
}

func TestImageRoundTrip(t *testing.T) {
	for _, c := range extentCases {
		t.Run(c.name, func(t *testing.T) {
			a := New(2 * ChunkSize)
			c.build(a)
			a.Write(ChunkSize-64, []byte("unflushed"))
			if got, want := a.TouchedBytes(), uint64(c.touched*extentSize); got != want {
				t.Errorf("TouchedBytes = %d, want %d", got, want)
			}
			checkReopens(t, a)

			// The same writes on top of a non-empty base: what differs
			// from the base is tracked apart from what the base holds.
			base := New(2 * ChunkSize)
			base.NewFlusher().Persist(extentSize+64, pattern(3*extentSize, 9))
			baseWant := append([]byte(nil), base.media...)
			im, err := base.Image()
			if err != nil {
				t.Fatal(err)
			}
			over, err := im.Open()
			if err != nil {
				t.Fatal(err)
			}
			c.build(over)
			over.Write(ChunkSize-64, []byte("unflushed"))
			checkReopens(t, over)
			fresh, err := im.Open()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base.media, baseWant) || !bytes.Equal(fresh.media, baseWant) || !bytes.Equal(fresh.mem, baseWant) {
				t.Error("writes to an arena opened over an image reached the image or the imaged arena")
			}
		})
	}
}

// TestImageStreamFormat pins the stream an older build wrote: 8 bytes of
// magic, 8 of size, the whole media view. Such a stream opens, and is
// written back, unchanged.
func TestImageStreamFormat(t *testing.T) {
	old := make([]byte, 16+ChunkSize)
	binary.LittleEndian.PutUint64(old, 0xF1A7_11A6_0000_0001)
	binary.LittleEndian.PutUint64(old[8:], ChunkSize)
	copy(old[16+4096:], "superblock")
	copy(old[len(old)-8:], "trailing")
	a, err := ReadArena(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Read(4096, 10)) != "superblock" || string(a.Read(ChunkSize-8, 8)) != "trailing" {
		t.Fatal("image bytes misplaced")
	}
	if !bytes.Equal(snapshot(t, a), old) {
		t.Fatal("an old image is not written back byte for byte")
	}
	if got := a.TouchedBytes(); got != 2*extentSize {
		t.Errorf("TouchedBytes = %d: all-zero extents of the stream were not skipped", got)
	}
}

// TestCrashContract pins what Crash's callers rely on (the scoreboard
// crashes one serving arena five times and goes on using it): the source
// is not disturbed, nothing is shared, repeated calls agree, the hook is
// not inherited and statistics start at zero.
func TestCrashContract(t *testing.T) {
	sources := map[string]func(t *testing.T) *Arena{
		"zero-backed": func(t *testing.T) *Arena { return New(2 * ChunkSize) },
		"image-backed": func(t *testing.T) *Arena {
			b := New(2 * ChunkSize)
			b.NewFlusher().Persist(ChunkSize, pattern(2*extentSize, 1))
			im, err := b.Image()
			if err != nil {
				t.Fatal(err)
			}
			a, err := im.Open()
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			a := mk(t)
			f := a.NewFlusher()
			f.PersistUint64(0, 111)
			f.TakeEvents()
			hooked := 0
			a.SetHook(func(PointKind, int, int) { hooked++ })

			c1, c2 := a.Crash(), a.Crash()
			if !bytes.Equal(c1.media, c2.media) || !bytes.Equal(c1.mem, c2.mem) || !bytes.Equal(c1.media, a.media) {
				t.Fatal("two crashes with no flush between them differ")
			}
			if c1.Stats() != (StatsSnapshot{}) {
				t.Errorf("statistics inherited: %+v", c1.Stats())
			}

			// Persisting through the crashed arena touches neither the
			// source nor its sibling, and fires no hook.
			c1.NewFlusher().PersistUint64(0, 222)
			c1.NewFlusher().PersistUint64(ChunkSize+8, 333)
			if hooked != 0 {
				t.Error("hook inherited by the crashed arena")
			}
			for n, b := range map[string]*Arena{"source": a, "sibling": c2} {
				if b.ReadUint64(0) != 111 || b.Crash().ReadUint64(0) != 111 || b.ReadUint64(ChunkSize+8) == 333 {
					t.Errorf("a write through one crashed arena reached its %s", n)
				}
			}

			// The source goes on: its later persists are its own, a later
			// crash sees them, and releasing every crashed arena takes
			// nothing away from it.
			a.SetHook(nil)
			f.PersistUint64(64, 444)
			a.WriteUint64(128, 555) // unflushed
			if c1.ReadUint64(64) == 444 || c2.ReadUint64(64) == 444 {
				t.Error("a write through the source reached an earlier crashed arena")
			}
			c3 := a.Crash()
			c1.Release()
			c2.Release()
			if a.ReadUint64(0) != 111 || a.ReadUint64(128) != 555 || !a.IsPersisted(64, 8) {
				t.Error("source damaged by releasing its crashed arenas")
			}
			if c3.ReadUint64(0) != 111 || c3.ReadUint64(64) != 444 || c3.ReadUint64(128) != 0 {
				t.Errorf("third crash read %d %d %d, want 111 444 0", c3.ReadUint64(0), c3.ReadUint64(64), c3.ReadUint64(128))
			}
			c3.Release()
			f.PersistUint64(128, 555)
			if got := a.Crash().ReadUint64(128); got != 555 {
				t.Errorf("source unusable after its crashed arenas were released: read %d", got)
			}
		})
	}
}
