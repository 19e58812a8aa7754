package tier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flatstore/internal/index"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func val(key uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(key>>uint(8*(i%8))) ^ byte(i)
	}
	return b
}

// A cold read into a buffer that fits the record allocates nothing: the
// record lands in the buffer and the value aliases it. A core reads its
// cold Gets into its own scratch this way. A buffer too small is grown
// once, and the grown one is reused.
func TestGetIntoAllocFree(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	recs := []Rec{{Key: 7, Ver: 3, Val: val(7, 100)}, {Key: 8, Ver: 1, Val: val(8, 1000)}}
	refs, err := s.Write(recs)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	var buf []byte
	for i, ref := range refs {
		n := testing.AllocsPerRun(100, func() {
			k, v, b, err := s.GetInto(ref, &buf)
			if err != nil || k != recs[i].Key || v != recs[i].Ver || !bytes.Equal(b, recs[i].Val) {
				t.Fatalf("GetInto(%d): key %d ver %d len %d err %v", i, k, v, len(b), err)
			}
		})
		if n != 0 {
			t.Fatalf("GetInto of a %d B value into a buffer that fits it: %v allocs/op, want 0", len(recs[i].Val), n)
		}
	}
	if cap(buf) < len(recs[1].Val) {
		t.Fatalf("scratch of %d B after reading a %d B value: not grown", cap(buf), len(recs[1].Val))
	}
}

func TestWriteGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var recs []Rec
	for i := 0; i < 100; i++ {
		recs = append(recs, Rec{Key: uint64(i + 1), Ver: uint32(i%7 + 1), Val: val(uint64(i+1), i*13%900)})
	}
	refs, err := s.Write(recs)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if len(refs) != len(recs) {
		t.Fatalf("got %d refs, want %d", len(refs), len(recs))
	}
	for i, ref := range refs {
		if !index.Cold(ref) {
			t.Fatalf("ref %d not cold: %#x", i, ref)
		}
		k, v, b, err := s.Get(ref)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if k != recs[i].Key || v != recs[i].Ver || !bytes.Equal(b, recs[i].Val) {
			t.Fatalf("Get(%d) mismatch: key=%d ver=%d len=%d", i, k, v, len(b))
		}
		if !s.SegmentMayContain(ref, k) {
			t.Fatalf("bloom false negative for key %d", k)
		}
	}
	if !s.MayContain(50) {
		t.Fatal("MayContain(50) = false for a present key")
	}
	st := s.Stats()
	if st.Segments != 1 || st.Records != 100 || st.SegmentsWritten != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReopenRebuildsFromFooters(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	r1, err := s.Write([]Rec{{Key: 1, Ver: 1, Val: val(1, 64)}, {Key: 2, Ver: 3, Val: nil}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Write([]Rec{{Key: 3, Ver: 2, Val: val(3, 500)}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	var got []string
	s2.Range(func(ref int64, key uint64, ver uint32) bool {
		got = append(got, fmt.Sprintf("%d@%d", key, ver))
		return true
	})
	want := []string{"1@1", "2@3", "3@2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range after reopen = %v, want %v", got, want)
	}
	for _, ref := range append(append([]int64{}, r1...), r2...) {
		if _, _, _, err := s2.Get(ref); err != nil {
			t.Fatalf("Get after reopen: %v", err)
		}
	}
}

func TestOpenRemovesTmpAndQuarantinesBadFooter(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.Write([]Rec{{Key: 1, Ver: 1, Val: val(1, 32)}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A leftover tmp (crash mid-write) and a segment with a rotten footer.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000099.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, segName(7))
	img, _, _ := buildSegment(7, []Rec{{Key: 9, Ver: 1, Val: val(9, 16)}})
	img[len(img)-1] ^= 0xFF // corrupt the footer magic
	if err := os.WriteFile(bad, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s2.Close()
	if rep.TmpRemoved != 1 || rep.Quarantined != 1 {
		t.Fatalf("report = %+v, want 1 tmp removed + 1 quarantined", rep)
	}
	if tmps, _ := s2.TmpFiles(); len(tmps) != 0 {
		t.Fatalf("tmp files survived open: %v", tmps)
	}
	if _, err := os.Stat(bad + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if st := s2.Stats(); st.Segments != 1 {
		t.Fatalf("expected only the good segment, got %d", st.Segments)
	}
}

func TestHookErrorAbortsWriteCleanly(t *testing.T) {
	for _, stage := range []Stage{StageTmpWritten, StageTmpSynced} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		boom := errors.New("boom")
		s.SetHook(func(p Point) error {
			if p.Stage == stage {
				return boom
			}
			return nil
		})
		if _, err := s.Write([]Rec{{Key: 1, Ver: 1, Val: val(1, 64)}}); !errors.Is(err, boom) {
			t.Fatalf("stage %d: Write err = %v, want boom", stage, err)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 0 {
			t.Fatalf("stage %d: directory not clean after abort: %v", stage, ents)
		}
		if st := s.Stats(); st.Segments != 0 || st.SegmentsWritten != 0 {
			t.Fatalf("stage %d: store state changed on aborted write: %+v", stage, st)
		}
		s.SetHook(nil)
		if _, err := s.Write([]Rec{{Key: 1, Ver: 1, Val: val(1, 64)}}); err != nil {
			t.Fatalf("stage %d: retry after abort failed: %v", stage, err)
		}
		s.Close()
	}
}

func TestCorruptRecordFailsClosed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	refs, err := s.Write([]Rec{{Key: 1, Ver: 1, Val: val(1, 256)}, {Key: 2, Ver: 1, Val: val(2, 256)}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one bit inside the first record's value region on disk.
	path := filepath.Join(dir, segName(0))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, off := index.ColdParts(refs[0])
	img[int(off)+recHeaderSize+17] ^= 0x04
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if _, _, _, err := s2.Get(refs[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(corrupt) = %v, want ErrCorrupt", err)
	}
	if _, _, _, err := s2.Get(refs[1]); err != nil {
		t.Fatalf("Get(intact sibling) = %v", err)
	}
	if recs, corrupt := s2.VerifyAll(nil); recs != 2 || corrupt != 1 {
		t.Fatalf("VerifyAll = (%d, %d), want (2, 1)", recs, corrupt)
	}
	// Compaction must refuse to rewrite a segment whose live record is
	// corrupt (it would silently drop the only copy).
	_, err = s2.CompactOnce(-1,
		func(uint64, uint32, int64) bool { return true },
		func(uint64, int64, int64) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CompactOnce over corrupt live record = %v, want ErrCorrupt", err)
	}
}

// TestGetTakesExtentFromTable: a record is read in one piece whose bounds
// come from the footer table — up to the next record, or to the end of the
// record area for the last one. A ref the table does not list is refused
// before any read, and a length field that rot has stretched past the
// record's extent fails closed instead of sizing a read.
func TestGetTakesExtentFromTable(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	recs := []Rec{{Key: 1, Ver: 1, Val: val(1, 5)}, {Key: 2, Ver: 3, Val: val(2, 256)}, {Key: 3, Ver: 2, Val: val(3, 1000)}}
	refs, err := s.Write(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		k, v, got, err := s.Get(refs[i])
		if err != nil || k != r.Key || v != r.Ver || !bytes.Equal(got, r.Val) {
			t.Fatalf("Get(record %d) = key %d v%d, %d bytes, err %v", i, k, v, len(got), err)
		}
	}
	before := s.Stats().CorruptReads
	_, off := index.ColdParts(refs[1])
	for _, bad := range []uint32{off + 8, off - 8, segHeaderSize - 8, 1 << 30} {
		if _, _, _, err := s.Get(index.ColdRef(0, bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get(offset %d, not in the table) = %v, want ErrCorrupt", bad, err)
		}
	}
	if got := s.Stats().CorruptReads - before; got != 4 {
		t.Fatalf("4 unlisted offsets counted %d corrupt reads", got)
	}
	s.Close()

	// Stretch record 1's length field over record 2.
	path := filepath.Join(dir, segName(0))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img[int(off)+12:], 600)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if _, _, _, err := s2.Get(refs[1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(record with a stretched length) = %v, want ErrCorrupt", err)
	}
	if _, _, got, err := s2.Get(refs[2]); err != nil || !bytes.Equal(got, recs[2].Val) {
		t.Fatalf("Get(intact sibling) = %d bytes, err %v", len(got), err)
	}
}

func TestCompactOnceDropsDeadAndRepoints(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var recs []Rec
	for i := 1; i <= 20; i++ {
		recs = append(recs, Rec{Key: uint64(i), Ver: 1, Val: val(uint64(i), 100)})
	}
	refs, err := s.Write(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Keys 1..10 die; 11..20 stay live.
	liveRef := make(map[uint64]int64)
	for i, r := range recs {
		if r.Key > 10 {
			liveRef[r.Key] = refs[i]
		} else {
			s.MarkDead(refs[i])
		}
	}
	did, err := s.CompactOnce(0.4,
		func(key uint64, ver uint32, ref int64) bool { return liveRef[key] == ref },
		func(key uint64, old, new int64) bool {
			if liveRef[key] != old {
				return false
			}
			liveRef[key] = new
			return true
		})
	if err != nil || !did {
		t.Fatalf("CompactOnce = (%v, %v)", did, err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.Records != 10 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	for key, ref := range liveRef {
		k, _, b, err := s.Get(ref)
		if err != nil || k != key || !bytes.Equal(b, val(key, 100)) {
			t.Fatalf("live key %d unreadable after compaction: %v", key, err)
		}
	}
	for i, r := range recs {
		if r.Key <= 10 {
			if _, _, _, err := s.Get(refs[i]); err == nil {
				t.Fatalf("dead key %d still readable at old ref", r.Key)
			}
		}
	}
	// Nothing at or above threshold now.
	if did, err := s.CompactOnce(0.4, nil, nil); did || err != nil {
		t.Fatalf("second CompactOnce = (%v, %v), want no-op", did, err)
	}
}

// TestBloomFalseNegativeFreeHistories drives random demote / overwrite /
// delete histories against the store and asserts the satellite
// guarantee: for every key whose live copy is cold, both the global
// MayContain and the owning segment's bloom answer true — blooms may
// false-positive but never false-negative.
func TestBloomFalseNegativeFreeHistories(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(0xB100 + trial)))
		s := mustOpen(t, t.TempDir())
		live := make(map[uint64]int64) // key -> cold ref (live cold copies)
		keys := rng.Intn(200) + 10
		for step := 0; step < 30; step++ {
			switch rng.Intn(3) {
			case 0: // demote a random batch (overwrites re-demote under a new version)
				n := rng.Intn(20) + 1
				var recs []Rec
				for i := 0; i < n; i++ {
					k := uint64(rng.Intn(keys) + 1)
					recs = append(recs, Rec{Key: k, Ver: uint32(step + 1), Val: val(k, rng.Intn(128))})
				}
				refs, err := s.Write(recs)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range recs {
					if old, ok := live[r.Key]; ok {
						s.MarkDead(old)
					}
					live[r.Key] = refs[i]
				}
			case 1: // delete some live cold keys
				for k, ref := range live {
					if rng.Intn(4) == 0 {
						s.MarkDead(ref)
						delete(live, k)
					}
				}
			case 2: // compact
				_, err := s.CompactOnce(0.01,
					func(key uint64, ver uint32, ref int64) bool { return live[key] == ref },
					func(key uint64, old, new int64) bool {
						if live[key] != old {
							return false
						}
						live[key] = new
						return true
					})
				if err != nil {
					t.Fatal(err)
				}
			}
			for k, ref := range live {
				if !s.MayContain(k) {
					t.Fatalf("trial %d step %d: bloom false negative (MayContain) for key %d", trial, step, k)
				}
				if !s.SegmentMayContain(ref, k) {
					t.Fatalf("trial %d step %d: bloom false negative (segment) for key %d", trial, step, k)
				}
			}
		}
		s.Close()
	}
}

// TestBuildSegmentCopiesOnce pins what a segment build allocates: its
// image, table and bloom filter, each once, so the image is sized for
// everything appended to it and never regrown. A buffer sized without the
// bloom words reallocated and copied the whole image on every segment of
// more than 51 records, and a record header that escaped cost one
// allocation per record. Bytes, not objects, are counted: a race build
// adds small objects of its own.
func TestBuildSegmentCopiesOnce(t *testing.T) {
	recs := make([]Rec, 10_000)
	val := make([]byte, 100)
	for i := range recs {
		recs[i] = Rec{Key: uint64(i), Ver: 1, Val: val}
	}
	img, table, bloom := buildSegment(1, recs)
	want := uint64(cap(img) + len(table)*tableRecSize + len(bloom)*8)
	const builds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		img, _, _ = buildSegment(1, recs)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got > want+64<<10 || len(img) != cap(img) {
		t.Fatalf("a %d-record build allocated %d B for %d B of buffers; image %d B of %d B capacity",
			len(recs), got, want, len(img), cap(img))
	}
}
