package stats_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"flatstore/internal/stats"
)

// histBound is the histogram's documented accuracy contract: a value is
// reported as the representative of its cell, and cells are 1/16th of
// their power-of-two bucket wide, so the absolute error of any estimate
// is at most exact/16 (+1 absorbs the half-step rounding of the
// representative at tiny values).
func histBound(exact int64) int64 {
	return exact/16 + 1
}

func checkPercentiles(t *testing.T, h *stats.Histogram, samples []int64) {
	t.Helper()
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		// The same rank the histogram targets: floor(p/100*count),
		// clamped to the last sample.
		target := uint64(p / 100 * float64(len(sorted)))
		if target >= uint64(len(sorted)) {
			target = uint64(len(sorted)) - 1
		}
		exact := sorted[target]
		est := h.Percentile(p)
		if diff := est - exact; diff < -histBound(exact) || diff > histBound(exact) {
			t.Errorf("p%v = %d, exact %d: error %d exceeds bound %d",
				p, est, exact, diff, histBound(exact))
		}
	}
}

func recordAll(samples []int64) *stats.Histogram {
	h := stats.NewHistogram()
	for _, v := range samples {
		h.Record(v)
	}
	return h
}

// sampleSets generates the property-test corpus: random sets across
// magnitudes plus the documented edge cases (empty is tested separately).
func sampleSets(rng *rand.Rand) [][]int64 {
	sets := [][]int64{
		{0},
		{math.MaxInt64},
		{0, math.MaxInt64},
		{42},
		{7, 7, 7, 7, 7, 7, 7},
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(2000)
		s := make([]int64, n)
		// Mix magnitudes so every trial spans several buckets.
		for i := range s {
			switch rng.Intn(4) {
			case 0:
				s[i] = int64(rng.Intn(16)) // bucket 0: exact cells
			case 1:
				s[i] = rng.Int63n(100_000)
			case 2:
				s[i] = rng.Int63n(1 << 40)
			default:
				s[i] = rng.Int63() // up to MaxInt64-1
			}
		}
		sets = append(sets, s)
	}
	return sets
}

func TestHistogramPercentileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, samples := range sampleSets(rng) {
		h := recordAll(samples)
		if h.Count() != uint64(len(samples)) {
			t.Fatalf("set %d: count = %d, want %d", i, h.Count(), len(samples))
		}
		var sum int64
		minV, maxV := int64(math.MaxInt64), int64(0)
		for _, v := range samples {
			sum += v // wraps like the histogram's accumulator
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		if got := stats.Sum(h); got != sum {
			t.Errorf("set %d: sum = %d, want %d", i, got, sum)
		}
		if h.Min() != minV || h.Max() != maxV {
			t.Errorf("set %d: min/max = %d/%d, want %d/%d", i, h.Min(), h.Max(), minV, maxV)
		}
		checkPercentiles(t, h, samples)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := stats.NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero: count=%d min=%d max=%d mean=%v",
			h.Count(), h.Min(), h.Max(), h.Mean())
	}
	if p := h.Percentile(50); p != 0 {
		t.Fatalf("empty histogram p50 = %d", p)
	}
}

// TestHistogramMergeEquivalence checks that merging two histograms is
// indistinguishable from recording the union into one.
func TestHistogramMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		a := make([]int64, 1+rng.Intn(500))
		b := make([]int64, rng.Intn(500))
		for i := range a {
			a[i] = rng.Int63n(1 << uint(10+rng.Intn(50)))
		}
		for i := range b {
			b[i] = rng.Int63n(1 << uint(10+rng.Intn(50)))
		}
		ha, hb := recordAll(a), recordAll(b)
		ha.Merge(hb)
		union := recordAll(append(append([]int64(nil), a...), b...))
		if ha.Count() != union.Count() || stats.Sum(ha) != stats.Sum(union) ||
			ha.Min() != union.Min() || ha.Max() != union.Max() {
			t.Fatalf("trial %d: merged moments differ from union", trial)
		}
		for _, p := range []float64{0, 25, 50, 75, 95, 99.9, 100} {
			if ha.Percentile(p) != union.Percentile(p) {
				t.Fatalf("trial %d: merged p%v = %d, union %d",
					trial, p, ha.Percentile(p), union.Percentile(p))
			}
		}
	}
}

// TestBucketRoundTrip checks the exchange surface used by the obs
// registry: BucketOf must land every value in a cell whose BucketValue
// representative is within the documented error bound.
func TestBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []int64{0, 1, 15, 16, 17, 255, 256, 1 << 20, math.MaxInt64}
	for i := 0; i < 10000; i++ {
		values = append(values, rng.Int63())
	}
	for _, v := range values {
		b, s := stats.BucketOf(v)
		rep := stats.BucketValue(b, s)
		if diff := rep - v; diff < -histBound(v) || diff > histBound(v) {
			t.Fatalf("BucketValue(BucketOf(%d)) = %d: error %d exceeds bound %d",
				v, rep, diff, histBound(v))
		}
	}
	if b, s := stats.BucketOf(-5); !(b == 0 && s == 0) {
		t.Fatalf("BucketOf(-5) = (%d,%d), want (0,0)", b, s)
	}
}

// TestRestoreMatchesRecord checks that a histogram rebuilt from external
// cells and exact moments (the obs snapshot path) is indistinguishable
// from one recorded directly.
func TestRestoreMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := make([]int64, 1000)
	var cells [64][16]uint64
	var sum int64
	minV, maxV := int64(math.MaxInt64), int64(0)
	for i := range samples {
		v := rng.Int63n(1 << 50)
		samples[i] = v
		b, s := stats.BucketOf(v)
		cells[b][s]++
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	direct := recordAll(samples)
	restored := stats.Restore(&cells, uint64(len(samples)), sum, minV, maxV)
	if restored.Count() != direct.Count() || stats.Sum(restored) != stats.Sum(direct) ||
		restored.Min() != direct.Min() || restored.Max() != direct.Max() {
		t.Fatal("restored moments differ from direct recording")
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if restored.Percentile(p) != direct.Percentile(p) {
			t.Fatalf("restored p%v = %d, direct %d", p, restored.Percentile(p), direct.Percentile(p))
		}
	}
	// Restore with count 0 must stay empty regardless of the min argument.
	var empty [64][16]uint64
	if h := stats.Restore(&empty, 0, 0, 123, 0); h.Min() != 0 || h.Count() != 0 {
		t.Fatal("Restore with zero count leaked a min")
	}
}

// TestHistogramBinaryRoundTrip checks the sparse wire encoding.
func TestHistogramBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hists := []*stats.Histogram{
		stats.NewHistogram(), // idle: 36-byte encoding
		recordAll([]int64{0}),
		recordAll([]int64{math.MaxInt64}),
		recordAll([]int64{0, math.MaxInt64}),
	}
	for trial := 0; trial < 5; trial++ {
		s := make([]int64, 1+rng.Intn(3000))
		for i := range s {
			s[i] = rng.Int63()
		}
		hists = append(hists, recordAll(s))
	}
	for i, h := range hists {
		enc := h.AppendBinary(nil)
		if h.Count() == 0 && len(enc) != 36 {
			t.Fatalf("hist %d: idle encoding is %d bytes, want 36", i, len(enc))
		}
		// Trailing bytes must be left unconsumed.
		got, n, err := stats.DecodeHistogram(append(enc, 0xAA, 0xBB))
		if err != nil {
			t.Fatalf("hist %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("hist %d: consumed %d bytes, want %d", i, n, len(enc))
		}
		if got.Count() != h.Count() || stats.Sum(got) != stats.Sum(h) ||
			got.Min() != h.Min() || got.Max() != h.Max() {
			t.Fatalf("hist %d: decoded moments differ", i)
		}
		for _, p := range []float64{0, 50, 99.9, 100} {
			if got.Percentile(p) != h.Percentile(p) {
				t.Fatalf("hist %d: decoded p%v = %d, want %d", i, p, got.Percentile(p), h.Percentile(p))
			}
		}
	}
	// Corrupt payloads must error, not panic or mis-decode.
	if _, _, err := stats.DecodeHistogram([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload decoded")
	}
	enc := hists[len(hists)-1].AppendBinary(nil)
	if _, _, err := stats.DecodeHistogram(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	bad := append([]byte(nil), enc...)
	bad[36] = 0xFF // cell index low byte
	bad[37] = 0xFF // cell index high byte -> 65535, out of range
	if _, _, err := stats.DecodeHistogram(bad); err == nil {
		t.Fatal("out-of-range cell index decoded")
	}
	// Only AppendBinary's own bytes decode: a zero-count cell, cells out
	// of order, or an empty histogram with a minimum would re-encode to
	// different bytes.
	two := recordAll([]int64{1, 1000}).AppendBinary(nil)
	for name, mutate := range map[string]func(b []byte){
		"zero-count cell":     func(b []byte) { binary.LittleEndian.PutUint64(b[36+2:], 0) },
		"cells out of order":  func(b []byte) { copy(b[36:46], b[46:56]) },
		"minimum on an empty": func(b []byte) { copy(b, make([]byte, 8)); binary.LittleEndian.PutUint32(b[32:], 0) },
	} {
		bad := append([]byte(nil), two...)
		mutate(bad)
		if _, _, err := stats.DecodeHistogram(bad); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
}
