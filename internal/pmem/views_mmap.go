//go:build unix && !race

package pmem

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The mapped backing: views are private mappings, so a page costs memory
// once it is written, the runtime never clears it and the collector's
// pacing does not see it. An image is an unlinked temporary file that any
// number of arenas map copy-on-write.

// liveBytes is the address space of the mapped, not yet released view
// sets. The collector cannot see what a mapping costs, so a program that
// drops arenas without Release would fill memory, or reach
// vm.max_map_count (65 530 on Linux, three mappings an arena), long before
// its small heap asked for a collection: each time liveBytes grows past a
// multiple of collectEvery a collection is forced, which queues the
// finalizers of the unreachable sets. The smallest arena maps 8.5 MiB, so
// at most ~250 sets (750 mappings) pile up between two collections.
var liveBytes atomic.Int64

const collectEvery = 1 << 30

type imageStore struct{ f *os.File }

func newImageStore(size int) (*imageStore, error) {
	f, err := os.CreateTemp("", "flatstore-image-*")
	if err != nil {
		return nil, fmt.Errorf("pmem: image file: %w", err)
	}
	// The name goes at once; the file lives as long as the descriptor
	// (which os.File's own finalizer closes) or a mapping of it.
	os.Remove(f.Name())
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("pmem: image file: %w", err)
	}
	return &imageStore{f: f}, nil
}

func (s *imageStore) writeAt(b []byte, off int) error {
	_, err := s.f.WriteAt(b, int64(off))
	return err
}

// newViews maps the three regions of a size-byte arena: zero on first
// touch without a base, the two byte views copy-on-write over the base's
// file with one.
func newViews(size int, base *Image) (*views, error) {
	fd := -1
	if base != nil {
		fd = int(base.store.f.Fd())
		defer runtime.KeepAlive(base.store.f)
	}
	var b [3][]byte
	for i, r := range [3]struct{ fd, n int }{{fd, size}, {fd, size}, {-1, size / CachelineSize * 8}} {
		flags := syscall.MAP_PRIVATE
		if r.fd < 0 {
			flags |= syscall.MAP_ANON
		}
		var err error
		if b[i], err = syscall.Mmap(r.fd, 0, r.n, syscall.PROT_READ|syscall.PROT_WRITE, flags); err != nil {
			for _, m := range b[:i] {
				syscall.Munmap(m)
			}
			return nil, fmt.Errorf("pmem: mapping %d bytes: %w", r.n, err)
		}
	}
	v := &views{mem: b[0], media: b[1], lineTime: unsafe.Slice((*int64)(unsafe.Pointer(&b[2][0])), len(b[2])/8)}
	runtime.SetFinalizer(v, (*views).release)
	n := int64(2*size + len(b[2]))
	if live := liveBytes.Add(n); live/collectEvery != (live-n)/collectEvery {
		runtime.GC()
	}
	return v, nil
}

// release unmaps the views; a second call does nothing. Any slice still
// pointing into them faults from here on.
func (v *views) release() {
	if v.mem == nil {
		return
	}
	lt := unsafe.Slice((*byte)(unsafe.Pointer(&v.lineTime[0])), len(v.lineTime)*8)
	for _, m := range [3][]byte{v.mem, v.media, lt} {
		syscall.Munmap(m)
		liveBytes.Add(-int64(len(m)))
	}
	runtime.SetFinalizer(v, nil)
	*v = views{}
}
