// Package hashidx is the volatile hash index used by FlatStore-H (§4.1):
// a CCEH-style extendible hash table (directory → segments → 4-slot
// buckets) placed entirely in DRAM with every flush removed, because the
// OpLog already guarantees persistence. One instance is owned by one
// server core, so there is no locking at all.
package hashidx

import "flatstore/internal/index"

const (
	// SlotsPerBucket matches CCEH's 4 slots per bucket. A slot here is
	// 24 B (CCEH's is 16 B), so a bucket is 96 B, not one 64 B line.
	SlotsPerBucket = 4
	// bucketsPerSegment is CCEH's 256 buckets. With 96 B buckets a segment
	// is 24 584 B, which the Go allocator rounds up to its 27 264 B size
	// class (CCEH's segment is 16 KB).
	bucketsPerSegment = 256
	// probeDistance is CCEH's linear-probing range: a key may land in
	// its home bucket or the next one.
	probeDistance = 2
)

type slot struct {
	key     uint64
	ref     index.Ref
	version uint32
	used    bool
}

type bucket struct {
	slots [SlotsPerBucket]slot
}

type segment struct {
	localDepth uint8
	buckets    [bucketsPerSegment]bucket
}

// Table is one core's hash index. Not safe for concurrent use (by
// design: FlatStore-H partitions the key space per core).
type Table struct {
	globalDepth uint8
	dir         []*segment
	count       int
}

// New returns an empty table with a single segment.
func New() *Table {
	return &Table{globalDepth: 0, dir: []*segment{{localDepth: 0}}}
}

// hash mixes the key; keys are already well-distributed in tests but a
// production engine cannot rely on that (splitmix64 finalizer).
func hash(key uint64) uint64 {
	x := key + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// dirIndex selects the directory slot from the hash's top bits.
func (t *Table) dirIndex(h uint64) int {
	if t.globalDepth == 0 {
		return 0
	}
	return int(h >> (64 - t.globalDepth))
}

// bucketIndex selects the in-segment bucket from the hash's low bits,
// disjoint from the directory bits.
func bucketIndex(h uint64) int { return int(h & (bucketsPerSegment - 1)) }

// Len returns the number of live keys.
func (t *Table) Len() int { return t.count }

// Depth returns the directory's global depth (for tests and stats).
func (t *Table) Depth() int { return int(t.globalDepth) }

// Get looks up key.
func (t *Table) Get(key uint64) (index.Ref, uint32, bool) {
	h := hash(key)
	seg := t.dir[t.dirIndex(h)]
	bi := bucketIndex(h)
	for p := 0; p < probeDistance; p++ {
		b := &seg.buckets[(bi+p)%bucketsPerSegment]
		for i := range b.slots {
			if s := &b.slots[i]; s.used && s.key == key {
				return s.ref, s.version, true
			}
		}
	}
	return 0, 0, false
}

// Put inserts or updates key, splitting segments (and doubling the
// directory) as needed.
func (t *Table) Put(key uint64, ref index.Ref, version uint32) {
	h := hash(key)
	for {
		seg := t.dir[t.dirIndex(h)]
		bi := bucketIndex(h)
		var free *slot
		for p := 0; p < probeDistance; p++ {
			b := &seg.buckets[(bi+p)%bucketsPerSegment]
			for i := range b.slots {
				s := &b.slots[i]
				if s.used && s.key == key {
					s.ref = ref
					s.version = version
					return
				}
				if !s.used && free == nil {
					free = s
				}
			}
		}
		if free != nil {
			*free = slot{key: key, ref: ref, version: version, used: true}
			t.count++
			return
		}
		t.split(seg)
	}
}

// split rehashes one segment into two with localDepth+1, doubling the
// directory when the segment is at global depth — CCEH's lazy split.
func (t *Table) split(seg *segment) {
	if seg.localDepth == t.globalDepth {
		// Double the directory.
		old := t.dir
		t.dir = make([]*segment, 2*len(old))
		for i, s := range old {
			t.dir[2*i] = s
			t.dir[2*i+1] = s
		}
		t.globalDepth++
	}
	a := &segment{localDepth: seg.localDepth + 1}
	b := &segment{localDepth: seg.localDepth + 1}
	// The bit that distinguishes a from b is bit (64 - localDepth - 1)
	// from the top.
	shift := 63 - uint(seg.localDepth)
	var overflow []slot
	for bi := range seg.buckets {
		for si := range seg.buckets[bi].slots {
			s := seg.buckets[bi].slots[si]
			if !s.used {
				continue
			}
			h := hash(s.key)
			dst := a
			if h>>shift&1 == 1 {
				dst = b
			}
			if !dst.insertNoSplit(h, s) {
				// Pathological rehash overflow (possible but rare
				// with 4-slot buckets × probe 2): reinsert through
				// Put after the split, which splits further.
				overflow = append(overflow, s)
			}
		}
	}
	t.replaceSegment(seg, a, b)
	for _, s := range overflow {
		t.count-- // Put re-counts the reinserted key
		t.Put(s.key, s.ref, s.version)
	}
}

// insertNoSplit inserts into a freshly built segment; false on overflow.
func (s *segment) insertNoSplit(h uint64, sl slot) bool {
	bi := bucketIndex(h)
	for p := 0; p < probeDistance; p++ {
		b := &s.buckets[(bi+p)%bucketsPerSegment]
		for i := range b.slots {
			if !b.slots[i].used {
				b.slots[i] = sl
				return true
			}
		}
	}
	return false
}

// replaceSegment repoints every directory slot of old to a (0-branch) and
// b (1-branch).
func (t *Table) replaceSegment(old, a, b *segment) {
	stride := 1 << (t.globalDepth - old.localDepth)
	// Find the first directory slot pointing at old.
	first := -1
	for i, s := range t.dir {
		if s == old {
			first = i
			break
		}
	}
	if first < 0 {
		// old may already have been replaced by a recursive split.
		return
	}
	for i := 0; i < stride; i++ {
		if i < stride/2 {
			t.dir[first+i] = a
		} else {
			t.dir[first+i] = b
		}
	}
}

// CompareAndSwapRef repoints key from old to new (cleaner relocation).
func (t *Table) CompareAndSwapRef(key uint64, old, new index.Ref) bool {
	h := hash(key)
	seg := t.dir[t.dirIndex(h)]
	bi := bucketIndex(h)
	for p := 0; p < probeDistance; p++ {
		b := &seg.buckets[(bi+p)%bucketsPerSegment]
		for i := range b.slots {
			if s := &b.slots[i]; s.used && s.key == key {
				if s.ref != old {
					return false
				}
				s.ref = new
				return true
			}
		}
	}
	return false
}

// Delete removes key.
func (t *Table) Delete(key uint64) bool {
	h := hash(key)
	seg := t.dir[t.dirIndex(h)]
	bi := bucketIndex(h)
	for p := 0; p < probeDistance; p++ {
		b := &seg.buckets[(bi+p)%bucketsPerSegment]
		for i := range b.slots {
			if s := &b.slots[i]; s.used && s.key == key {
				s.used = false
				t.count--
				return true
			}
		}
	}
	return false
}

// Range iterates every live slot. Distinct segments appear once even
// though multiple directory slots may point at them.
func (t *Table) Range(fn func(key uint64, ref index.Ref, version uint32) bool) {
	seen := map[*segment]bool{}
	for _, seg := range t.dir {
		if seen[seg] {
			continue
		}
		seen[seg] = true
		for bi := range seg.buckets {
			for si := range seg.buckets[bi].slots {
				s := &seg.buckets[bi].slots[si]
				if s.used && !fn(s.key, s.ref, s.version) {
					return
				}
			}
		}
	}
}

var _ index.Index = (*Table)(nil)
