// Package masstree provides the ordered volatile index used by
// FlatStore-M (§4.2). The paper uses Masstree (Mao et al., EuroSys'12), a
// trie of B+-trees over variable-length keys; with FlatStore's fixed
// 8-byte keys the trie collapses to a single layer, so what remains — and
// what this package implements — is a concurrent B+-tree shared by all
// server cores.
//
// Layout: a leaf holds sorted keys, their refs and versions (separate
// arrays, so a value pays no padding) and the next-leaf link; an inner
// node holds separator keys and children. Both embed a common header, and
// a child pointer is a *header that is cast to its node kind.
//
// Locking: every node has a read/write lock. Get, Scan, an update, a CAS,
// a Delete and an insert into a leaf with room descend with read locks
// hand over hand and lock only the leaf — for writing if they change it —
// so writers to different leaves run in parallel. Only an insert into a
// full leaf takes the exclusive top-down path, which write-locks each
// node it passes (at most two at a time) and splits every full one.
// Scans walk the leaf chain hand over hand.
//
// Splits: a split whose inserting key lies past the full node's last key
// (an ascending insert) keeps the left node full — an inner one gives up
// only its last separator and child — so ascending loads leave nodes
// full; every other split is at the middle. Leaves are never merged.
package masstree

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"flatstore/internal/index"
)

// maxKeys is the node fanout minus one. 15 keys + 16 children keeps an
// inner node near two cachelines, the sweet spot Masstree also targets.
const maxKeys = 15

// header begins every node; keys[:n] are sorted. isLeaf never changes,
// so it may be read without the lock.
type header struct {
	mu     sync.RWMutex
	n      int
	isLeaf bool
	keys   [maxKeys]uint64
}

// leaf maps keys[i] to (refs[i], versions[i]); next is the leaf to its
// right.
type leaf struct {
	header
	refs     [maxKeys]index.Ref
	versions [maxKeys]uint32
	next     *leaf
}

// newLeaf returns an empty, unlinked leaf.
func newLeaf() *leaf { return &leaf{header: header{isLeaf: true}} }

// inner routes keys below keys[i] (and at least keys[i-1]) to children[i].
type inner struct {
	header
	children [maxKeys + 1]*header
}

// leaf and inner name the node that embeds h, as isLeaf says.
func (h *header) leaf() *leaf   { return (*leaf)(unsafe.Pointer(h)) }
func (h *header) inner() *inner { return (*inner)(unsafe.Pointer(h)) }

// upperBound returns the number of keys ≤ key — the child index to
// descend into.
func (h *header) upperBound(key uint64) int {
	lo, hi := 0, h.n
	for lo < hi {
		mid := (lo + hi) / 2
		if h.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the position of key, or -1.
func (h *header) find(key uint64) int {
	if i := h.upperBound(key); i > 0 && h.keys[i-1] == key {
		return i - 1
	}
	return -1
}

// Tree is a concurrent ordered index. The zero value is not usable; call
// New.
type Tree struct {
	mu    sync.RWMutex // guards the root pointer
	root  *header
	count atomic.Int64
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &newLeaf().header}
}

// Len returns the number of live keys.
func (t *Tree) Len() int { return int(t.count.Load()) }

// lockLeaf descends with read locks, hand over hand, to the leaf that may
// hold key and returns it read-locked, or write-locked if write.
func (t *Tree) lockLeaf(key uint64, write bool) *leaf {
	t.mu.RLock()
	nd := t.root
	lock(nd, write)
	t.mu.RUnlock()
	for !nd.isLeaf {
		c := nd.inner().children[nd.upperBound(key)]
		lock(c, write)
		nd.mu.RUnlock()
		nd = c
	}
	return nd.leaf()
}

// lock takes h's lock: for writing if h is a leaf and write is set.
func lock(h *header, write bool) {
	if write && h.isLeaf {
		h.mu.Lock()
	} else {
		h.mu.RLock()
	}
}

// Get looks up key.
func (t *Tree) Get(key uint64) (index.Ref, uint32, bool) {
	lf := t.lockLeaf(key, false)
	defer lf.mu.RUnlock()
	if i := lf.find(key); i >= 0 {
		return lf.refs[i], lf.versions[i], true
	}
	return 0, 0, false
}

// splitChild splits the full child at position i of parent (both
// write-locked; parent not full) on behalf of an insert of key, and
// returns the new right sibling.
func splitChild(parent *inner, i int, key uint64) *header {
	child := parent.children[i]
	mid := maxKeys / 2
	if key > child.keys[maxKeys-1] {
		mid = maxKeys // append: the left node stays full
	}
	var sep uint64
	var sib *header
	if child.isLeaf {
		// Keys from mid on move right; the separator is the sibling's
		// first key, or key itself when the sibling starts empty.
		l, s := child.leaf(), newLeaf()
		copy(s.keys[:], l.keys[mid:l.n])
		copy(s.refs[:], l.refs[mid:l.n])
		copy(s.versions[:], l.versions[mid:l.n])
		s.n, l.n = l.n-mid, mid
		sep = key
		if s.n > 0 {
			sep = s.keys[0]
		}
		s.next, l.next = l.next, s
		sib = &s.header
	} else {
		// The key at mid moves up (for an append, the last one).
		mid = min(mid, maxKeys-1)
		in, s := child.inner(), &inner{}
		sep = in.keys[mid]
		copy(s.keys[:], in.keys[mid+1:in.n])
		copy(s.children[:], in.children[mid+1:in.n+1])
		s.n, in.n = in.n-mid-1, mid
		sib = &s.header
	}
	// Insert sep and sib into parent after position i.
	copy(parent.keys[i+1:parent.n+1], parent.keys[i:parent.n])
	copy(parent.children[i+2:parent.n+2], parent.children[i+1:parent.n+1])
	parent.keys[i] = sep
	parent.children[i+1] = sib
	parent.n++
	return sib
}

// lockLeafSplitting is the exclusive top-down path for an insert of key:
// it write-locks each node it passes, splitting every full one, and
// returns the target leaf write-locked and guaranteed non-full.
func (t *Tree) lockLeafSplitting(key uint64) *leaf {
	t.mu.Lock()
	nd := t.root
	nd.mu.Lock()
	if nd.n == maxKeys {
		// Grow the tree: a fresh root with the old one as only child.
		nr := &inner{}
		nr.children[0] = nd
		splitChild(nr, 0, key)
		nr.mu.Lock()
		t.root = &nr.header
		nd.mu.Unlock()
		nd = &nr.header
	}
	t.mu.Unlock()
	for !nd.isLeaf {
		in := nd.inner()
		i := in.upperBound(key)
		c := in.children[i]
		c.mu.Lock()
		if c.n == maxKeys {
			sib := splitChild(in, i, key)
			if key >= in.keys[i] {
				// The key belongs in the new right sibling.
				sib.mu.Lock()
				c.mu.Unlock()
				c = sib
			}
		}
		nd.mu.Unlock()
		nd = c
	}
	return nd.leaf()
}

// Put inserts or updates key. Only an insert into a full leaf leaves the
// read-locked descent for the exclusive, splitting one.
func (t *Tree) Put(key uint64, ref index.Ref, version uint32) {
	lf := t.lockLeaf(key, true)
	i := lf.find(key)
	if i < 0 && lf.n == maxKeys {
		lf.mu.Unlock()
		lf = t.lockLeafSplitting(key)
		i = lf.find(key)
	}
	defer lf.mu.Unlock()
	if i >= 0 {
		lf.refs[i], lf.versions[i] = ref, version
		return
	}
	i = lf.upperBound(key)
	copy(lf.keys[i+1:lf.n+1], lf.keys[i:lf.n])
	copy(lf.refs[i+1:lf.n+1], lf.refs[i:lf.n])
	copy(lf.versions[i+1:lf.n+1], lf.versions[i:lf.n])
	lf.keys[i], lf.refs[i], lf.versions[i] = key, ref, version
	lf.n++
	t.count.Add(1)
}

// CompareAndSwapRef repoints key from old to new without changing the
// version (the log cleaner's relocation CAS, §3.4).
func (t *Tree) CompareAndSwapRef(key uint64, old, new index.Ref) bool {
	lf := t.lockLeaf(key, true)
	defer lf.mu.Unlock()
	i := lf.find(key)
	if i < 0 || lf.refs[i] != old {
		return false
	}
	lf.refs[i] = new
	return true
}

// Delete removes key. Leaves are not merged (Masstree-style lazy
// structure maintenance): separators remain valid bounds, and empty
// leaves are reclaimed only if the tree is rebuilt.
func (t *Tree) Delete(key uint64) bool {
	lf := t.lockLeaf(key, true)
	defer lf.mu.Unlock()
	i := lf.find(key)
	if i < 0 {
		return false
	}
	copy(lf.keys[i:lf.n-1], lf.keys[i+1:lf.n])
	copy(lf.refs[i:lf.n-1], lf.refs[i+1:lf.n])
	copy(lf.versions[i:lf.n-1], lf.versions[i+1:lf.n])
	lf.n--
	t.count.Add(-1)
	return true
}

// Scan visits keys in [lo, hi] ascending, walking the leaf chain
// hand-over-hand so concurrent splits cannot be missed.
func (t *Tree) Scan(lo, hi uint64, fn func(key uint64, ref index.Ref, version uint32) bool) {
	lf := t.lockLeaf(lo, false)
	for {
		for i := 0; i < lf.n; i++ {
			k := lf.keys[i]
			if k < lo {
				continue
			}
			if k > hi || !fn(k, lf.refs[i], lf.versions[i]) {
				lf.mu.RUnlock()
				return
			}
		}
		next := lf.next
		if next == nil {
			lf.mu.RUnlock()
			return
		}
		next.mu.RLock()
		lf.mu.RUnlock()
		lf = next
	}
}

// Range iterates every entry in ascending key order.
func (t *Tree) Range(fn func(key uint64, ref index.Ref, version uint32) bool) {
	t.Scan(0, ^uint64(0), fn)
}

var _ index.Ordered = (*Tree)(nil)
