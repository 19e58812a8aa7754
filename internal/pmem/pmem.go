// Package pmem emulates a byte-addressable persistent memory device with
// the persistence semantics and access granularities of Intel Optane DC
// Persistent Memory.
//
// The emulator keeps two views of the address space:
//
//   - the cache view (Mem): every store lands here first, exactly like a
//     store that is still sitting in a volatile CPU cache;
//   - the media view: the bytes that survive a crash. Flush copies whole
//     64-byte cachelines from the cache view to the media view, modelling
//     clwb/clflushopt followed by an sfence.
//
// Both views are lazily backed, like a mapped device: zero until touched
// for New, copy-on-write over an immutable Image for Image.Open, so an
// arena costs the pages it has written. A bitmap of 64 KiB extents records
// which media bytes differ from that base; Crash, Image and the
// TouchedBytes statistic are walks of it.
//
// Crash discards everything that was never flushed, which makes
// crash-consistency bugs observable in tests: a recovery path that relies
// on an unflushed store will read stale bytes.
//
// The emulator also records the device-level statistics that FlatStore's
// design argument is built on: how many cachelines were flushed, how many
// 256-byte XPLine blocks were touched, how often the same line was flushed
// repeatedly within a short window (the ~800 ns in-place-update stall from
// the paper's §2.3), and whether a flush continued the previous block
// (sequential, eligible for write combining) or switched blocks (random).
package pmem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Device granularities of the emulated hardware.
const (
	// CachelineSize is the CPU flush granularity (clwb/clflushopt).
	CachelineSize = 64
	// BlockSize is the internal write granularity of the media
	// (the 256-byte XPLine of Optane DCPMM).
	BlockSize = 256
	// ChunkSize is the allocation unit used by the lazy-persist
	// allocator and the OpLog (4 MB, as in the paper).
	ChunkSize = 4 << 20
)

// PointKind classifies a persist-ordering point — a moment at which the
// engine's crash-consistency argument depends on what has (or has not)
// reached the media view. Fault injectors hook these points to crash the
// engine at every possible flush/fence boundary.
type PointKind uint8

const (
	// PointFlush is a cacheline writeback about to take effect (clwb /
	// clflushopt). The hook runs BEFORE the lines reach the media view,
	// so a crash raised here drops the in-flight flush.
	PointFlush PointKind = iota + 1
	// PointFence is an ordering fence (sfence) after preceding flushes
	// have taken effect.
	PointFence
	// PointDrain is a flush-event drain (TakeEvents/FlushEvents) — the
	// engine's per-operation accounting boundary.
	PointDrain
)

// Hook observes every persist-ordering point on an arena. For PointFlush,
// off and n describe the byte range about to be flushed; for other kinds
// they are zero. A hook may panic to simulate a power failure — the
// engine state being driven must then be abandoned (exactly like
// Arena.Crash) and the media view recovered through the normal open path.
// Hooks are for single-goroutine fault drivers; SetHook must not be
// called concurrently with arena use.
type Hook func(kind PointKind, off, n int)

// Clock supplies the notion of "now" used for repeated-flush detection.
// The real engine uses a wall clock; the virtual-time simulator supplies
// the virtual core clock so penalties are assessed in simulated time.
type Clock interface {
	Now() int64 // nanoseconds
}

// nullClock disables time-based penalties (always returns 0).
type nullClock struct{}

func (nullClock) Now() int64 { return 0 }

// Arena is one emulated persistent memory device.
//
// Concurrent use: distinct goroutines may freely operate on disjoint byte
// ranges. Statistics are atomic. The per-line flush timestamps used for
// repeated-flush detection are atomic as well, so concurrent flushes of
// overlapping lines do not race, although their data content would (just
// as on real hardware).
type Arena struct {
	*views

	// base is what the views were opened over (nil: zeroes), and dirty the
	// media extents written since: every media write goes through
	// flushRange, CopyToMedia, CorruptMedia or Corrupt, which mark it.
	base  *Image
	dirty extents

	clock Clock
	stats Stats

	// hook, when set, observes every persist-ordering point (fault
	// injection). Nil in production use.
	hook Hook

	// window is the time window (ns) within which a second flush of the
	// same line counts as a repeated flush.
	window int64
}

// views are the regions behind one arena. How they are obtained and
// released is the backing's business (views_mmap.go, views_heap.go);
// everything else in the package is shared.
type views struct {
	mem   []byte
	media []byte

	// lineTime[i] is the emulated time at which cacheline i was last
	// flushed, used to detect the repeated-flush-to-same-line stall.
	lineTime []int64
}

// Option configures an Arena.
type Option func(*Arena)

// WithClock sets the clock used for repeated-flush detection.
func WithClock(c Clock) Option { return func(a *Arena) { a.clock = c } }

// WithSameLineWindow sets the repeated-flush detection window in
// nanoseconds. Zero disables detection.
func WithSameLineWindow(ns int64) Option { return func(a *Arena) { a.window = ns } }

// New creates an arena of the given size, rounded up to a whole number of
// chunks. The memory starts zeroed in both views.
func New(size int, opts ...Option) *Arena {
	if size <= 0 {
		panic("pmem: non-positive arena size")
	}
	size = (size + ChunkSize - 1) &^ (ChunkSize - 1)
	a, err := open(size, nil, opts)
	if err != nil {
		panic(err) // address space or mapping count exhausted, as fatal as a failed make
	}
	return a
}

// open builds an arena of size bytes over base (nil: zeroes).
func open(size int, base *Image, opts []Option) (*Arena, error) {
	v, err := newViews(size, base)
	if err != nil {
		return nil, err
	}
	a := &Arena{
		views:  v,
		base:   base,
		dirty:  newExtents(size),
		clock:  nullClock{},
		window: 1000, // 1 µs default window
	}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// Release gives the arena's memory back at once. An arena that is simply
// dropped is reclaimed too, some time after the collector finds it
// unreachable; a caller that opens arenas in a loop (a crash sweep) should
// not wait for that. Nothing may use the arena afterwards — nor any slice
// obtained from Mem, which keeps neither the arena nor its memory alive.
func (a *Arena) Release() { a.views.release() }

// Size returns the arena size in bytes.
func (a *Arena) Size() int { return len(a.mem) }

// Chunks returns the number of 4 MB chunks in the arena.
func (a *Arena) Chunks() int { return len(a.mem) / ChunkSize }

// Mem exposes the cache view. Stores through this slice behave like
// ordinary cached stores: they are NOT persistent until flushed.
func (a *Arena) Mem() []byte { return a.mem }

// Stats returns a snapshot of the device statistics.
func (a *Arena) Stats() StatsSnapshot { return a.stats.snapshot() }

// TouchedBytes returns how much of the device has ever been written, in
// whole extents: those dirtied since the base plus the base's non-zero
// ones. It is what each view costs in memory. (A method and not a field of
// StatsSnapshot, whose layout has to stay convertible to Events.)
func (a *Arena) TouchedBytes() uint64 {
	return uint64(a.dirty.countWith(a.baseExtents())) * extentSize
}

// baseExtents returns the base's non-zero extents (nil without a base).
func (a *Arena) baseExtents() extents {
	if a.base == nil {
		return nil
	}
	return a.base.nonzero
}

// ResetStats zeroes all device statistics.
func (a *Arena) ResetStats() { a.stats.reset() }

func (a *Arena) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(a.mem) {
		panic(fmt.Sprintf("pmem: access [%d,%d) out of arena of size %d", off, off+n, len(a.mem)))
	}
}

// Write copies data into the cache view at off.
func (a *Arena) Write(off int, data []byte) {
	a.check(off, len(data))
	copy(a.mem[off:], data)
}

// WriteUint64 stores v little-endian at off in the cache view.
func (a *Arena) WriteUint64(off int, v uint64) {
	a.check(off, 8)
	binary.LittleEndian.PutUint64(a.mem[off:], v)
}

// ReadUint64 loads a little-endian uint64 from the cache view.
func (a *Arena) ReadUint64(off int) uint64 {
	a.check(off, 8)
	return binary.LittleEndian.Uint64(a.mem[off:])
}

// Read copies n bytes at off from the cache view into a fresh slice.
func (a *Arena) Read(off, n int) []byte {
	a.check(off, n)
	out := make([]byte, n)
	copy(out, a.mem[off:])
	return out
}

// SetHook installs (or, with nil, removes) the persist-point hook. The
// hook is not inherited by Crash — recovery runs uninstrumented.
func (a *Arena) SetHook(h Hook) { a.hook = h }

// CopyToMedia copies [off, off+n) verbatim from the cache view to the
// media view without statistics or ordering-point accounting. Fault
// injectors use it to apply a torn (partial) flush before crashing:
// real hardware guarantees only 8-byte store atomicity, so any 8-byte-
// granular prefix of an in-flight flush is a reachable crash state.
func (a *Arena) CopyToMedia(off, n int) {
	a.check(off, n)
	a.dirty.mark(off, n)
	copy(a.media[off:off+n], a.mem[off:off+n])
}

// CorruptMedia applies fn to the media-view bytes [off, off+n) in place —
// at-rest media corruption (bit rot, a failing DIMM region). The cache
// view is untouched, so the damage surfaces only after a Crash/restart,
// exactly like an error on the medium under a still-warm CPU cache.
func (a *Arena) CorruptMedia(off, n int, fn func(b []byte)) {
	a.check(off, n)
	a.dirty.mark(off, n)
	fn(a.media[off : off+n])
}

// Corrupt applies fn to BOTH views of [off, off+n): a media error that a
// read would observe immediately (nothing caches the line). Online
// scrub/quarantine tests use it; CorruptMedia models the at-rest variant.
func (a *Arena) Corrupt(off, n int, fn func(b []byte)) {
	a.check(off, n)
	a.dirty.mark(off, n)
	fn(a.media[off : off+n])
	fn(a.mem[off : off+n])
}

// IsPersisted reports whether the byte range matches between the cache and
// media views, i.e. whether every store in the range has been flushed.
// Intended for tests.
func (a *Arena) IsPersisted(off, n int) bool {
	a.check(off, n)
	for i := off; i < off+n; i++ {
		if a.mem[i] != a.media[i] {
			return false
		}
	}
	return true
}

// Crash simulates a power failure: a new arena is returned whose two views
// are exactly this arena's media view (all unflushed stores are lost). It
// shares nothing writable with its source — fresh views over the same
// base, plus a copy of the extents written since — so the source stays
// fully usable, Crash may be called any number of times, and two calls
// with no flush between them return byte-identical arenas. The clock and
// the same-line window carry over; the hook does not, and statistics start
// at zero.
func (a *Arena) Crash() *Arena {
	n, err := open(len(a.media), a.base, nil)
	if err != nil {
		panic(err)
	}
	n.clock, n.window = a.clock, a.window
	n.fill(a.media, a.dirty)
	for i := range a.dirty {
		n.dirty[i].Store(a.dirty[i].Load())
	}
	return n
}

// fill copies the extents of src that x names into both byte views.
func (v *views) fill(src []byte, x extents) {
	for e := 0; e < len(src)/extentSize; e++ {
		if x.has(e) {
			lo, hi := e*extentSize, (e+1)*extentSize
			copy(v.mem[lo:hi], src[lo:hi])
			copy(v.media[lo:hi], src[lo:hi])
		}
	}
}

// flushRange copies the cachelines covering [off, off+n) from the cache
// view to the media view, updating ev and the arena statistics. lastBlock
// is the flusher's previously-flushed block index (or -1), and the new
// last block index is returned.
func (a *Arena) flushRange(off, n int, ev *Events, lastBlock int64) int64 {
	a.check(off, n)
	if n == 0 {
		return lastBlock
	}
	a.dirty.mark(off, n)
	now := a.clock.Now()
	first := off / CachelineSize
	last := (off + n - 1) / CachelineSize
	for line := first; line <= last; line++ {
		lo := line * CachelineSize
		copy(a.media[lo:lo+CachelineSize], a.mem[lo:lo+CachelineSize])

		ev.Lines++
		if a.window > 0 {
			prev := atomic.LoadInt64(&a.lineTime[line])
			if prev != 0 && now-prev < a.window {
				ev.SameLineRepeats++
			}
			atomic.StoreInt64(&a.lineTime[line], now+1)
		}
		block := int64(lo / BlockSize)
		switch {
		case block == lastBlock:
			// Write-combined with the preceding flush inside the
			// same XPLine: only the line itself consumes media
			// bandwidth.
			ev.CombinedLines++
			ev.MediaBytes += CachelineSize
		case block == lastBlock+1:
			// Streaming to the next block: a full XPLine write,
			// but the device recognizes the sequential pattern
			// (no random-activation penalty).
			ev.SeqBlocks++
			ev.MediaBytes += BlockSize
		default:
			// Random block activation: full XPLine write plus the
			// device-side activation penalty charged by the cost
			// model.
			ev.RndBlocks++
			ev.MediaBytes += BlockSize
		}
		lastBlock = block
	}
	ev.Flushes++
	return lastBlock
}

// Flusher issues flushes on behalf of one CPU core. It tracks the core's
// last-flushed block (for sequential write-combining accounting) and
// accumulates an Events delta that the virtual-time simulator drains
// between operations. A Flusher must not be used concurrently.
type Flusher struct {
	a         *Arena
	lastBlock int64
	ev        Events
}

// NewFlusher returns a flusher bound to the arena.
func (a *Arena) NewFlusher() *Flusher {
	// lastBlock starts at -2 so that the first flush (even of block 0)
	// counts as a random block activation.
	return &Flusher{a: a, lastBlock: -2}
}

// Flush writes back the cachelines covering [off, off+n). This is a
// persist-ordering point: an installed hook runs before the lines reach
// the media view.
func (f *Flusher) Flush(off, n int) {
	if f.a.hook != nil {
		f.a.hook(PointFlush, off, n)
	}
	f.lastBlock = f.a.flushRange(off, n, &f.ev, f.lastBlock)
}

// Fence models sfence/mfence ordering. In the emulator flushes take effect
// eagerly, so Fence only records the event for cost accounting. It is a
// persist-ordering point: all preceding flushes are on media here.
func (f *Flusher) Fence() {
	if f.a.hook != nil {
		f.a.hook(PointFence, 0, 0)
	}
	f.ev.Fences++
}

// PersistUint64 stores v at off and immediately flushes and fences it —
// the common pattern for pointer updates (store; clwb; sfence).
func (f *Flusher) PersistUint64(off int, v uint64) {
	f.a.WriteUint64(off, v)
	f.Flush(off, 8)
	f.Fence()
}

// Persist stores data at off, flushes the covered lines and fences.
func (f *Flusher) Persist(off int, data []byte) {
	f.a.Write(off, data)
	f.Flush(off, len(data))
	f.Fence()
}

// Arena returns the underlying arena.
func (f *Flusher) Arena() *Arena { return f.a }

// TakeEvents returns the events accumulated since the previous call and
// clears the delta. It also folds the delta into the arena-wide totals.
// The drain is a persist-ordering point (an operation boundary).
func (f *Flusher) TakeEvents() Events {
	if f.a.hook != nil {
		f.a.hook(PointDrain, 0, 0)
	}
	ev := f.ev
	f.ev = Events{}
	f.a.stats.add(ev)
	return ev
}

// FlushEvents folds any pending event delta into the arena totals without
// returning it. Call when the per-op delta is not needed. Like TakeEvents
// it is a persist-ordering point.
func (f *Flusher) FlushEvents() {
	if f.a.hook != nil {
		f.a.hook(PointDrain, 0, 0)
	}
	f.a.stats.add(f.ev)
	f.ev = Events{}
}

// PendingEvents returns the current (not yet taken) event delta.
func (f *Flusher) PendingEvents() Events { return f.ev }
