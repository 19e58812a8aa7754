package tier

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"flatstore/internal/index"
	"flatstore/internal/obs"
)

// Rec is one record handed to Write: the durable (key, version, value)
// triple demoted out of the PM arena.
type Rec struct {
	Key uint64
	Ver uint32
	Val []byte
}

// Stage identifies a disk persist-ordering point inside the segment
// write/remove protocol. The fault injector arms crashes at these the
// same way it arms PM persist points.
type Stage uint8

const (
	// StageTmpWritten fires after the segment bytes are written to the
	// .tmp file but before fsync — a crash here may leave a torn tmp.
	StageTmpWritten Stage = iota + 1
	// StageTmpSynced fires after fsync(.tmp), before the rename.
	StageTmpSynced
	// StageRenamed fires after rename(.tmp → .seg), before the
	// directory fsync that makes the rename durable.
	StageRenamed
	// StageDirSynced fires after the directory fsync — the segment is
	// fully durable.
	StageDirSynced
	// StageRemoved fires after compaction unlinks an old segment.
	StageRemoved
)

// Point is one fired persist point: which stage, on which file.
type Point struct {
	Stage Stage
	Path  string
}

// Hook observes persist points. Returning an error aborts the write in
// progress (the tmp file is removed and Write fails with that error,
// leaving PM state untouched — the GC demotion fallback depends on
// this). Hooks may also panic to simulate a crash; the in-progress file
// is then left behind exactly as a real crash would leave it.
type Hook func(Point) error

// OpenReport summarizes what Open had to clean up.
type OpenReport struct {
	TmpRemoved  int
	Quarantined int
}

type segment struct {
	id      uint32
	path    string
	f       *os.File
	size    int64
	dataEnd int64      // end of the record area, where the footer table starts
	recs    []TableRec // footer table, in offset order
	bloom   []uint64
	dead    atomic.Uint32
}

// newSegment describes an open segment file of size bytes whose footer
// decoded to table and bloom; the record area ends where that footer starts.
func newSegment(id uint32, path string, f *os.File, size int, table []TableRec, bloom []uint64) *segment {
	return &segment{id: id, path: path, f: f, size: int64(size), recs: table, bloom: bloom,
		dataEnd: int64(size - len(table)*tableRecSize - len(bloom)*8 - trailerSize)}
}

// extent returns the end of the record the footer table lists at off: the
// next record's offset, or the end of the record area for the last one.
// An offset the table does not list has no extent.
func (seg *segment) extent(off uint32) (end int64, ok bool) {
	i := sort.Search(len(seg.recs), func(i int) bool { return seg.recs[i].Off >= off })
	if i == len(seg.recs) || seg.recs[i].Off != off {
		return 0, false
	}
	end = seg.dataEnd
	if i+1 < len(seg.recs) {
		end = int64(seg.recs[i+1].Off)
	}
	// Open validated every offset against the record area but not their
	// order: a table out of order yields no extent rather than a short one.
	return end, end-int64(off) >= recHeaderSize
}

// Store is the cold tier: a directory of immutable segment files plus
// the in-memory footer tables and blooms. Reads take mu.RLock for the
// duration of the pread; compaction takes mu.Lock only to swap the
// segment set, never across file IO of live reads.
type Store struct {
	dir string

	mu   sync.RWMutex
	segs map[uint32]*segment
	next uint32
	hook Hook

	reads        atomic.Uint64
	bloomNeg     atomic.Uint64
	writes       atomic.Uint64
	compactions  atomic.Uint64
	demoted      atomic.Uint64
	promoted     atomic.Uint64
	promoteDefer atomic.Uint64
	promoteFail  atomic.Uint64
	corruptReads atomic.Uint64
	quarantined  atomic.Uint64
}

// Open opens (creating if needed) the cold store rooted at dir. Leftover
// *.tmp files — crashes mid-write — are removed; segments whose footer
// fails validation are renamed *.quarantined and counted, never trusted.
func Open(dir string) (*Store, OpenReport, error) {
	var rep OpenReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, err
	}
	s := &Store{dir: dir, segs: make(map[uint32]*segment)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, rep, err
	}
	for _, de := range ents {
		name := de.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if err := os.Remove(path); err != nil {
				return nil, rep, err
			}
			rep.TmpRemoved++
		case strings.HasSuffix(name, ".seg"):
			seg, err := openSegment(path)
			if err != nil {
				if qerr := os.Rename(path, path+".quarantined"); qerr != nil {
					return nil, rep, qerr
				}
				rep.Quarantined++
				continue
			}
			s.segs[seg.id] = seg
			if seg.id >= s.next {
				s.next = seg.id + 1
			}
		}
	}
	s.quarantined.Store(uint64(rep.Quarantined))
	if err := syncDir(dir); err != nil {
		s.Close()
		return nil, rep, err
	}
	return s, rep, nil
}

func segName(id uint32) string { return fmt.Sprintf("seg-%08d.seg", id) }

// openSegment reads and validates one segment file's header + footer.
func openSegment(path string) (*segment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	id, table, bloom, _, err := parseFooter(b)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	if base != segName(id) {
		return nil, fmt.Errorf("%w: segment %s claims id %d", ErrCorrupt, base, id)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return newSegment(id, path, f, len(b), table, bloom), nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// SetHook installs (or, with nil, removes) the persist-point hook.
// Like the pmem arena hook, it is for single-goroutine fault drivers
// and must not be changed while the store is serving traffic.
func (s *Store) SetHook(h Hook) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

func (s *Store) fire(st Stage, path string) error {
	s.mu.RLock()
	h := s.hook
	s.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(Point{Stage: st, Path: path})
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Write durably persists recs as one new immutable segment and returns
// a cold index ref per record (same order). The protocol is
// tmp-write → fsync → rename → dir-fsync; the segment is registered
// only after the final stage, so a crash at any point leaves either no
// segment or a complete, self-validating one — never a half-trusted
// file. A hook error aborts cleanly: the tmp file is removed and no
// store state changes.
func (s *Store) Write(recs []Rec) ([]int64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	id := s.next
	if uint64(id) >= uint64(index.MaxTierSeg) {
		s.mu.Unlock()
		return nil, fmt.Errorf("tier: segment id space exhausted")
	}
	s.next++
	s.mu.Unlock()

	buf, table, bloom := buildSegment(id, recs)
	tmp := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.tmp", id))
	final := filepath.Join(s.dir, segName(id))

	abort := func(f *os.File, err error) ([]int64, error) {
		if f != nil {
			f.Close()
		}
		os.Remove(tmp)
		return nil, err
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(buf); err != nil {
		return abort(f, err)
	}
	if err := s.fire(StageTmpWritten, tmp); err != nil {
		return abort(f, err)
	}
	if err := f.Sync(); err != nil {
		return abort(f, err)
	}
	if err := s.fire(StageTmpSynced, tmp); err != nil {
		return abort(f, err)
	}
	if err := f.Close(); err != nil {
		return abort(nil, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return abort(nil, err)
	}
	if err := s.fire(StageRenamed, final); err != nil {
		os.Remove(final)
		return nil, err
	}
	if err := syncDir(s.dir); err != nil {
		os.Remove(final)
		return nil, err
	}
	if err := s.fire(StageDirSynced, final); err != nil {
		os.Remove(final)
		return nil, err
	}
	rf, err := os.Open(final)
	if err != nil {
		return nil, err
	}
	seg := newSegment(id, final, rf, len(buf), table, bloom)
	s.mu.Lock()
	s.segs[id] = seg
	s.mu.Unlock()
	s.writes.Add(1)
	refs := make([]int64, len(table))
	for i := range table {
		refs[i] = index.ColdRef(id, table[i].Off)
	}
	return refs, nil
}

// Get reads and CRC-verifies the record named by cold ref, in one pread:
// the record's extent comes from the in-memory footer table, so the length
// in the on-disk header is checked against the bytes read and never used to
// size a read. It returns the record's stored key (callers compare it
// against the key they looked up — a mismatch means corruption or a stale
// ref) and a fresh value copy. Any validation failure, an offset the table
// does not list included, is ErrCorrupt: Get fails closed.
func (s *Store) Get(ref int64) (key uint64, ver uint32, val []byte, err error) {
	return s.GetInto(ref, nil)
}

// GetInto is Get reading into the caller's buffer: the record lands in
// *buf, grown first if it is too small, and val aliases it. A buf of nil
// reads into a fresh buffer, as Get does. A core passes its own scratch,
// so its cold reads allocate nothing once the scratch fits the records.
func (s *Store) GetInto(ref int64, buf *[]byte) (key uint64, ver uint32, val []byte, err error) {
	segID, off := index.ColdParts(ref)
	s.mu.RLock()
	defer s.mu.RUnlock()
	seg := s.segs[segID]
	if seg == nil {
		s.corruptReads.Add(1)
		return 0, 0, nil, fmt.Errorf("%w: no such segment %d", ErrCorrupt, segID)
	}
	s.reads.Add(1)
	end, ok := seg.extent(off)
	if !ok {
		s.corruptReads.Add(1)
		return 0, 0, nil, fmt.Errorf("%w: no record at offset %d of segment %d", ErrCorrupt, off, segID)
	}
	n := int(end - int64(off))
	var rec []byte
	if buf == nil {
		rec = make([]byte, n)
	} else {
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		rec = (*buf)[:n]
	}
	if _, err := seg.f.ReadAt(rec, int64(off)); err != nil {
		s.corruptReads.Add(1)
		return 0, 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	key, ver, val, err = verifyRecord(rec)
	if err != nil {
		s.corruptReads.Add(1)
		return 0, 0, nil, err
	}
	return key, ver, val, nil
}

// MayContain consults every segment's bloom filter. False means the key
// is definitely not in the cold tier (the filters are false-negative-
// free); true means some segment may hold it.
func (s *Store) MayContain(key uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, seg := range s.segs {
		if bloomHas(seg.bloom, key) {
			return true
		}
	}
	s.bloomNeg.Add(1)
	return false
}

// SegmentMayContain asks only the bloom of the segment holding ref.
func (s *Store) SegmentMayContain(ref int64, key uint64) bool {
	segID, _ := index.ColdParts(ref)
	s.mu.RLock()
	defer s.mu.RUnlock()
	seg := s.segs[segID]
	return seg != nil && bloomHas(seg.bloom, key)
}

// MarkDead records that the cold record named by ref is no longer the
// index target (overwritten, deleted, or promoted back to PM). Dead
// counts only steer compaction; they are volatile and rebuilt lazily
// after recovery.
func (s *Store) MarkDead(ref int64) {
	segID, _ := index.ColdParts(ref)
	s.mu.RLock()
	seg := s.segs[segID]
	s.mu.RUnlock()
	if seg != nil {
		seg.dead.Add(1)
	}
}

// NoteDemoted / NotePromoted account records the engine moved between
// tiers (multi-writer: GC cleaners and cores both call these).
func (s *Store) NoteDemoted(n int)  { s.demoted.Add(uint64(n)) }
func (s *Store) NotePromoted(n int) { s.promoted.Add(uint64(n)) }

// NotePromoteDeferred / NotePromoteFailed account the cold Gets that did
// not move their record: the engine chose to leave it cold, or tried and
// could not.
func (s *Store) NotePromoteDeferred() { s.promoteDefer.Add(1) }
func (s *Store) NotePromoteFailed()   { s.promoteFail.Add(1) }

// orderedIDs returns the live segment IDs in ascending order.
// Ascending ID = write order, which recovery relies on for a
// deterministic first-wins rule among equal-version duplicates.
func (s *Store) orderedIDs() []uint32 {
	s.mu.RLock()
	ids := make([]uint32, 0, len(s.segs))
	for id := range s.segs {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Range walks every live record reference in ascending segment order,
// stopping early if fn returns false. It reads only the in-memory
// footer tables (already CRC-validated at open) — recovery's index
// rebuild path.
func (s *Store) Range(fn func(ref int64, key uint64, ver uint32) bool) {
	for _, id := range s.orderedIDs() {
		s.mu.RLock()
		seg := s.segs[id]
		s.mu.RUnlock()
		if seg == nil {
			continue
		}
		for i := range seg.recs {
			if !fn(index.ColdRef(id, seg.recs[i].Off), seg.recs[i].Key, seg.recs[i].Ver) {
				return
			}
		}
	}
}

// VerifyAll preads and CRC-checks every record in every segment —
// the scrubber/fsck pass over the cold tier. fn (optional) observes
// each record; a nil error means it verified.
func (s *Store) VerifyAll(fn func(ref int64, key uint64, ver uint32, err error)) (records, corrupt int) {
	for _, id := range s.orderedIDs() {
		s.mu.RLock()
		seg := s.segs[id]
		s.mu.RUnlock()
		if seg == nil {
			continue
		}
		for i := range seg.recs {
			ref := index.ColdRef(id, seg.recs[i].Off)
			key, ver, _, err := s.Get(ref)
			if err == nil && (key != seg.recs[i].Key || ver != seg.recs[i].Ver) {
				err = fmt.Errorf("%w: record disagrees with footer table", ErrCorrupt)
			}
			records++
			if err != nil {
				corrupt++
			}
			if fn != nil {
				fn(ref, seg.recs[i].Key, seg.recs[i].Ver, err)
			}
		}
	}
	return records, corrupt
}

// CompactOnce picks the segment with the highest dead fraction at or
// above minDead, rewrites its still-live records into a fresh segment,
// repoints the index, and removes the old file. isLive asks the engine
// whether (key, ver, oldRef) is still the index target; repoint CASes
// the index from the old ref to the new one (false means a concurrent
// writer superseded the record — the new copy is immediately dead).
// The new segment is fully durable before the old one is unlinked, so a
// crash anywhere leaves every live record readable from at least one
// file; recovery's first-wins rule collapses the duplicates.
func (s *Store) CompactOnce(minDead float64, isLive func(key uint64, ver uint32, ref int64) bool, repoint func(key uint64, old, new int64) bool) (bool, error) {
	var victim *segment
	best := minDead
	s.mu.RLock()
	for _, seg := range s.segs {
		if len(seg.recs) == 0 {
			continue
		}
		ratio := float64(seg.dead.Load()) / float64(len(seg.recs))
		if ratio >= best {
			best = ratio
			victim = seg
		}
	}
	s.mu.RUnlock()
	if victim == nil {
		return false, nil
	}

	var live []Rec
	var oldRefs []int64
	for i := range victim.recs {
		tr := victim.recs[i]
		ref := index.ColdRef(victim.id, tr.Off)
		if !isLive(tr.Key, tr.Ver, ref) {
			continue
		}
		key, ver, val, err := s.Get(ref)
		if err != nil || key != tr.Key || ver != tr.Ver {
			// A live record we cannot verify must not be dropped by
			// compaction — leave the segment in place; the read path
			// and scrubber quarantine the key instead.
			return false, fmt.Errorf("tier: compaction aborted, segment %d: %w", victim.id, ErrCorrupt)
		}
		live = append(live, Rec{Key: key, Ver: ver, Val: val})
		oldRefs = append(oldRefs, ref)
	}
	if len(live) > 0 {
		newRefs, err := s.Write(live)
		if err != nil {
			return false, err
		}
		for i := range live {
			if !repoint(live[i].Key, oldRefs[i], newRefs[i]) {
				s.MarkDead(newRefs[i])
			}
		}
	}
	s.mu.Lock()
	delete(s.segs, victim.id)
	s.mu.Unlock()
	victim.f.Close()
	if err := os.Remove(victim.path); err != nil {
		return false, err
	}
	if err := syncDir(s.dir); err != nil {
		return false, err
	}
	if err := s.fire(StageRemoved, victim.path); err != nil {
		return false, err
	}
	s.compactions.Add(1)
	return true, nil
}

// TmpFiles lists leftover *.tmp files in the store directory (the
// invariant checker asserts none survive recovery).
func (s *Store) TmpFiles() ([]string, error) {
	return filepath.Glob(filepath.Join(s.dir, "*.tmp"))
}

// Stats snapshots the tier counters as the snapshot's Tier block.
func (s *Store) Stats() obs.TierSnap {
	st := obs.TierSnap{
		Enabled:         true,
		Reads:           s.reads.Load(),
		BloomFiltered:   s.bloomNeg.Load(),
		SegmentsWritten: s.writes.Load(),
		Compactions:     s.compactions.Load(),
		Demoted:         s.demoted.Load(),
		Promoted:        s.promoted.Load(),
		PromoteDeferred: s.promoteDefer.Load(),
		PromoteFailed:   s.promoteFail.Load(),
		CorruptReads:    s.corruptReads.Load(),
		Quarantined:     s.quarantined.Load(),
	}
	s.mu.RLock()
	st.Segments = uint64(len(s.segs))
	for _, seg := range s.segs {
		st.Records += uint64(len(seg.recs))
		st.DeadRecords += uint64(seg.dead.Load())
		st.Bytes += uint64(seg.size)
	}
	s.mu.RUnlock()
	return st
}

// Close releases all open segment files.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.segs = make(map[uint32]*segment)
}

// QuarantinedFiles lists segment files quarantined at open (renamed
// *.seg.quarantined). Salvage recovery scans them with ScanQuarantined
// to quarantine the keys whose only copy may have lived there.
func (s *Store) QuarantinedFiles() ([]string, error) {
	return filepath.Glob(filepath.Join(s.dir, "*.quarantined"))
}
