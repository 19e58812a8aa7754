package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Arena images can be saved to and loaded from ordinary files, giving the
// emulated device real durability across process restarts: WriteTo saves
// the MEDIA view — exactly the bytes that would survive a power failure —
// so a loaded arena behaves as if the machine had lost power at save
// time, and core.Open recovers it through the normal crash (or
// clean-shutdown) path.

// imageMagic identifies an arena image stream (followed by the size).
const imageMagic uint64 = 0xF1A7_11A6_0000_0001

// WriteTo serializes the arena's media view. It implements
// io.WriterTo.
func (a *Arena) WriteTo(w io.Writer) (int64, error) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(a.media)))
	n, err := w.Write(hdr[:])
	total := int64(n)
	if err != nil {
		return total, err
	}
	m, err := w.Write(a.media)
	return total + int64(m), err
}

// ReadArena loads an arena image. Both views start from the saved media
// bytes, exactly like a reboot. Extents of the image that hold only
// zeroes are not written, so the arena costs what the image contains.
func ReadArena(r io.Reader, opts ...Option) (*Arena, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pmem: reading image header: %w", err)
	}
	if got := binary.LittleEndian.Uint64(hdr[:]); got != imageMagic {
		return nil, fmt.Errorf("pmem: not an arena image (magic %#x)", got)
	}
	size := binary.LittleEndian.Uint64(hdr[8:])
	if size == 0 || size%ChunkSize != 0 || size > 1<<40 {
		return nil, fmt.Errorf("pmem: implausible arena size %d", size)
	}
	a, err := open(int(size), nil, opts)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, extentSize)
	for off := 0; off < int(size); off += extentSize {
		if _, err := io.ReadFull(r, buf); err != nil {
			a.Release()
			return nil, fmt.Errorf("pmem: reading image body: %w", err)
		}
		if !allZero(buf) {
			a.dirty.mark(off, extentSize)
			copy(a.media[off:], buf)
			copy(a.mem[off:], buf)
		}
	}
	return a, nil
}

var zeroExtent [extentSize]byte

func allZero(b []byte) bool { return bytes.Equal(b, zeroExtent[:len(b)]) }

// Image is an immutable copy of a media view that any number of arenas can
// be opened over. Opening costs no copy (where views are mapped, they map
// the image copy-on-write), so an arena opened over an image pays only for
// what it then writes — what a crash sweep wants from the prelude state
// that each of its trials starts at.
type Image struct {
	size    int
	nonzero extents // extents holding anything but zeroes
	store   *imageStore
}

// Image captures the arena's media view as it is now.
func (a *Arena) Image() (*Image, error) {
	size := len(a.media)
	store, err := newImageStore(size)
	if err != nil {
		return nil, err
	}
	im := &Image{size: size, nonzero: newExtents(size), store: store}
	base := a.baseExtents()
	for e := 0; e < size/extentSize; e++ {
		if !a.dirty.has(e) && (base == nil || !base.has(e)) {
			continue
		}
		lo, hi := e*extentSize, (e+1)*extentSize
		if allZero(a.media[lo:hi]) {
			continue
		}
		if err := store.writeAt(a.media[lo:hi], lo); err != nil {
			return nil, fmt.Errorf("pmem: writing image: %w", err)
		}
		im.nonzero.set(e)
	}
	return im, nil
}

// Open returns a new arena whose two views start as the image, exactly
// like ReadArena of the stream the imaged arena's WriteTo would have
// produced.
func (im *Image) Open(opts ...Option) (*Arena, error) {
	return open(im.size, im, opts)
}
