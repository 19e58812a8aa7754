//go:build !unix || race

package pmem

// The heap backing, for targets without mmap and for race builds: the
// race detector drops every address outside the Go heap and data segments
// (racecalladdr), so on mapped views two unsynchronised writers to one PM
// byte would go unreported. Views are ordinary slices, an image is one
// more; opening over an image copies its non-zero extents.

type imageStore struct{ b []byte }

func newImageStore(size int) (*imageStore, error) {
	return &imageStore{b: make([]byte, size)}, nil
}

func (s *imageStore) writeAt(b []byte, off int) error {
	copy(s.b[off:], b)
	return nil
}

func newViews(size int, base *Image) (*views, error) {
	v := &views{
		mem:      make([]byte, size),
		media:    make([]byte, size),
		lineTime: make([]int64, size/CachelineSize),
	}
	if base != nil {
		v.fill(base.store.b, base.nonzero)
	}
	return v, nil
}

// release drops the views for the collector to reclaim.
func (v *views) release() { *v = views{} }
