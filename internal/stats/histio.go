package stats

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// This file is the histogram's exchange surface: the pieces that let a
// live metrics registry (internal/obs) record into its own single-writer
// cell arrays and still hand readers ordinary *Histogram values, and the
// sparse binary encoding the stats wire op ships snapshots with.

// BucketOf exposes the histogram's cell mapping: the (bucket, sub-bucket)
// pair a sample lands in. External recorders (per-core metric cells) use
// it so their layout matches Histogram exactly. Negative samples clamp to
// zero, like Record.
func BucketOf(v int64) (bucket, sub int) {
	if v < 0 {
		v = 0
	}
	return bucketOf(v)
}

// BucketValue is the representative sample reconstructed for a cell — the
// value Percentile reports for samples in that cell. The relative error
// of the representation is bounded by 1/16th of the bucket.
func BucketValue(bucket, sub int) int64 { return valueOf(bucket, sub) }

// Sum returns the exact running total of all recorded samples. (It wraps
// on int64 overflow, like any int64 accumulator.)
func Sum(h *Histogram) int64 { return h.sum }

// Restore builds a Histogram from an externally maintained cell array and
// exact moments. The obs registry records into atomic cells and tracks
// count/sum/min/max itself; Restore lets its snapshot reader rehydrate a
// first-class Histogram without losing the exact sum to bucket
// quantization. min is ignored when count is zero.
func Restore(cells *[64][16]uint64, count uint64, sum, min, max int64) *Histogram {
	h := NewHistogram()
	h.buckets = *cells
	h.count = count
	h.sum = sum
	if count > 0 {
		h.min = min
		h.max = max
	}
	return h
}

// AppendBinary encodes h onto b in a sparse little-endian format:
//
//	u64 count, u64 sum, u64 min, u64 max,
//	u32 ncells, ncells × (u16 cellIndex, u64 cellCount)
//
// Only non-zero cells are written, so an idle histogram costs 36 bytes.
func (h *Histogram) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, h.count)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.sum))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.min))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.max))
	n := 0
	for bi := range h.buckets {
		for si := range h.buckets[bi] {
			if h.buckets[bi][si] != 0 {
				n++
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for bi := range h.buckets {
		for si := range h.buckets[bi] {
			if c := h.buckets[bi][si]; c != 0 {
				b = binary.LittleEndian.AppendUint16(b, uint16(bi*16+si))
				b = binary.LittleEndian.AppendUint64(b, c)
			}
		}
	}
	return b
}

// DecodeHistogram decodes what AppendBinary produced, returning the
// histogram and the number of bytes consumed. It accepts only the bytes
// AppendBinary writes — cells non-zero and in ascending order, an empty
// histogram carrying the empty minimum — so re-encoding what it accepted
// reproduces the input.
func DecodeHistogram(b []byte) (*Histogram, int, error) {
	if len(b) < 36 {
		return nil, 0, fmt.Errorf("stats: short histogram payload (%d bytes)", len(b))
	}
	h := NewHistogram()
	h.count = binary.LittleEndian.Uint64(b)
	h.sum = int64(binary.LittleEndian.Uint64(b[8:]))
	min := int64(binary.LittleEndian.Uint64(b[16:]))
	h.max = int64(binary.LittleEndian.Uint64(b[24:]))
	if h.count == 0 && min != h.min {
		return nil, 0, fmt.Errorf("stats: empty histogram with minimum %d", min)
	}
	h.min = min
	n := int(binary.LittleEndian.Uint32(b[32:]))
	pos := 36
	if n > 64*16 || len(b) < pos+n*10 {
		return nil, 0, fmt.Errorf("stats: corrupt histogram payload (%d cells)", n)
	}
	for i, prev := 0, -1; i < n; i++ {
		cell := int(binary.LittleEndian.Uint16(b[pos:]))
		c := binary.LittleEndian.Uint64(b[pos+2:])
		if cell >= 64*16 || cell <= prev || c == 0 {
			return nil, 0, fmt.Errorf("stats: histogram cell %d (count %d) after cell %d", cell, c, prev)
		}
		h.buckets[cell/16][cell%16] = c
		prev = cell
		pos += 10
	}
	return h, pos, nil
}

// MarshalJSON digests the histogram for the JSON metrics view: moments
// and percentiles, not cells. The digest is one-way (a Histogram decoded
// from it is empty).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count uint64  `json:"count"`
		Sum   int64   `json:"sum"`
		Mean  float64 `json:"mean"`
		Min   int64   `json:"min"`
		Max   int64   `json:"max"`
		P50   int64   `json:"p50"`
		P90   int64   `json:"p90"`
		P99   int64   `json:"p99"`
		P999  int64   `json:"p999"`
	}{
		h.count, h.sum, h.Mean(), h.Min(), h.max,
		h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Percentile(99.9),
	})
}
