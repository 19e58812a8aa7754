package hashidx

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestLayoutSizes pins the sizes the SlotsPerBucket and
// bucketsPerSegment comments state.
func TestLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"slot", unsafe.Sizeof(slot{}), 24},
		{"bucket", unsafe.Sizeof(bucket{}), 96},
		{"segment", unsafe.Sizeof(segment{}), 24_584},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

func TestPutGet(t *testing.T) {
	h := New()
	h.Put(1, 100, 1)
	h.Put(2, 200, 1)
	ref, ver, ok := h.Get(1)
	if !ok || ref != 100 || ver != 1 {
		t.Fatalf("Get(1) = %d,%d,%v", ref, ver, ok)
	}
	if _, _, ok := h.Get(3); ok {
		t.Fatal("Get(3) found a missing key")
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	h := New()
	h.Put(1, 100, 1)
	h.Put(1, 300, 2)
	ref, ver, _ := h.Get(1)
	if ref != 300 || ver != 2 {
		t.Fatalf("update lost: %d,%d", ref, ver)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d after update", h.Len())
	}
}

func TestDelete(t *testing.T) {
	h := New()
	h.Put(1, 100, 1)
	if !h.Delete(1) {
		t.Fatal("Delete(1) = false")
	}
	if h.Delete(1) {
		t.Fatal("second Delete(1) = true")
	}
	if _, _, ok := h.Get(1); ok {
		t.Fatal("deleted key found")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestCompareAndSwapRef(t *testing.T) {
	h := New()
	h.Put(1, 100, 5)
	if h.CompareAndSwapRef(1, 999, 200) {
		t.Fatal("CAS with wrong old succeeded")
	}
	if !h.CompareAndSwapRef(1, 100, 200) {
		t.Fatal("CAS with right old failed")
	}
	ref, ver, _ := h.Get(1)
	if ref != 200 || ver != 5 {
		t.Fatalf("after CAS: ref=%d ver=%d (version must be untouched)", ref, ver)
	}
	if h.CompareAndSwapRef(42, 0, 1) {
		t.Fatal("CAS on missing key succeeded")
	}
}

func TestSplitGrowth(t *testing.T) {
	h := New()
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		h.Put(i, int64(i*16), uint32(i%100))
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	if h.Depth() == 0 {
		t.Fatal("directory never doubled under 100k inserts")
	}
	for i := uint64(0); i < n; i++ {
		ref, _, ok := h.Get(i)
		if !ok || ref != int64(i*16) {
			t.Fatalf("key %d lost after splits: ref=%d ok=%v", i, ref, ok)
		}
	}
}

func TestRange(t *testing.T) {
	h := New()
	for i := uint64(0); i < 1000; i++ {
		h.Put(i, int64(i), 1)
	}
	seen := map[uint64]bool{}
	h.Range(func(k uint64, ref int64, ver uint32) bool {
		if seen[k] {
			t.Fatalf("key %d visited twice", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 1000 {
		t.Fatalf("Range visited %d keys, want 1000", len(seen))
	}
	// Early stop.
	count := 0
	h.Range(func(k uint64, ref int64, ver uint32) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Property: the table behaves exactly like a map under random workloads.
func TestQuickVsModel(t *testing.T) {
	type mv struct {
		ref int64
		ver uint32
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New()
		model := map[uint64]mv{}
		for i := 0; i < 5000; i++ {
			key := uint64(rng.Intn(800)) // small key space forces collisions
			switch rng.Intn(4) {
			case 0, 1: // put
				v := mv{rng.Int63(), uint32(rng.Intn(1000))}
				h.Put(key, v.ref, v.ver)
				model[key] = v
			case 2: // get
				ref, ver, ok := h.Get(key)
				want, wok := model[key]
				if ok != wok || (ok && (ref != want.ref || ver != want.ver)) {
					return false
				}
			case 3: // delete
				ok := h.Delete(key)
				_, wok := model[key]
				if ok != wok {
					return false
				}
				delete(model, key)
			}
		}
		if h.Len() != len(model) {
			return false
		}
		for k, v := range model {
			ref, ver, ok := h.Get(k)
			if !ok || ref != v.ref || ver != v.ver {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	h := New()
	for i := 0; i < b.N; i++ {
		h.Put(uint64(i), int64(i), 1)
	}
}

func BenchmarkGet(b *testing.B) {
	h := New()
	for i := 0; i < 1<<20; i++ {
		h.Put(uint64(i), int64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(uint64(i) & (1<<20 - 1))
	}
}
