package masstree

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	tr := New()
	tr.Put(5, 500, 1)
	tr.Put(3, 300, 1)
	tr.Put(8, 800, 2)
	if ref, ver, ok := tr.Get(3); !ok || ref != 300 || ver != 1 {
		t.Fatalf("Get(3) = %d,%d,%v", ref, ver, ok)
	}
	if _, _, ok := tr.Get(4); ok {
		t.Fatal("found missing key")
	}
	if !tr.Delete(3) || tr.Delete(3) {
		t.Fatal("delete semantics wrong")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestUpdate(t *testing.T) {
	tr := New()
	tr.Put(1, 10, 1)
	tr.Put(1, 20, 2)
	if ref, ver, _ := tr.Get(1); ref != 20 || ver != 2 {
		t.Fatalf("update lost: %d,%d", ref, ver)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestCompareAndSwapRef(t *testing.T) {
	tr := New()
	tr.Put(1, 100, 7)
	if tr.CompareAndSwapRef(1, 5, 200) {
		t.Fatal("CAS wrong old succeeded")
	}
	if !tr.CompareAndSwapRef(1, 100, 200) {
		t.Fatal("CAS failed")
	}
	if ref, ver, _ := tr.Get(1); ref != 200 || ver != 7 {
		t.Fatalf("after CAS: %d,%d", ref, ver)
	}
}

func TestLargeSequentialAndSplits(t *testing.T) {
	tr := New()
	const n = 50_000
	for i := uint64(0); i < n; i++ {
		tr.Put(i, int64(i*2), 1)
	}
	for i := uint64(0); i < n; i++ {
		if ref, _, ok := tr.Get(i); !ok || ref != int64(i*2) {
			t.Fatalf("key %d lost: %d %v", i, ref, ok)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestScanOrdered(t *testing.T) {
	tr := New()
	keys := rand.New(rand.NewSource(1)).Perm(10_000)
	for _, k := range keys {
		tr.Put(uint64(k), int64(k), 1)
	}
	var got []uint64
	tr.Scan(100, 500, func(k uint64, ref int64, ver uint32) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 401 {
		t.Fatalf("Scan[100,500] returned %d keys, want 401", len(got))
	}
	for i, k := range got {
		if k != uint64(100+i) {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Put(i, int64(i), 1)
	}
	count := 0
	tr.Scan(0, 99, func(k uint64, ref int64, ver uint32) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRangeFullOrder(t *testing.T) {
	tr := New()
	for _, k := range []uint64{9, 2, 7, 4, 0, ^uint64(0)} {
		tr.Put(k, int64(k%100), 1)
	}
	var got []uint64
	tr.Range(func(k uint64, ref int64, ver uint32) bool {
		got = append(got, k)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Range not sorted: %v", got)
	}
	if len(got) != 6 {
		t.Fatalf("Range visited %d", len(got))
	}
}

func TestConcurrentPutGet(t *testing.T) {
	tr := New()
	const (
		goroutines = 8
		perG       = 5000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint64(g*perG + i)
				tr.Put(k, int64(k), 1)
				if ref, _, ok := tr.Get(k); !ok || ref != int64(k) {
					t.Errorf("goroutine %d: key %d lost", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", tr.Len(), goroutines*perG)
	}
}

func TestConcurrentMixed(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(2000))
				switch rng.Intn(3) {
				case 0:
					tr.Put(k, int64(k), uint32(i))
				case 1:
					tr.Get(k)
				case 2:
					tr.Delete(k)
				}
			}
		}(g)
	}
	// Concurrent scans must never see unsorted keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			last := int64(-1)
			tr.Scan(0, ^uint64(0), func(k uint64, ref int64, ver uint32) bool {
				if int64(k) <= last {
					t.Errorf("scan out of order: %d after %d", k, last)
					return false
				}
				last = int64(k)
				return true
			})
		}
	}()
	wg.Wait()
}

// Property: tree matches a model map and iterates in sorted order.
func TestQuickVsModel(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := map[uint64]int64{}
		for i := 0; i < 4000; i++ {
			k := uint64(rng.Intn(600))
			switch rng.Intn(3) {
			case 0:
				v := rng.Int63()
				tr.Put(k, v, 1)
				model[k] = v
			case 1:
				ref, _, ok := tr.Get(k)
				want, wok := model[k]
				if ok != wok || (ok && ref != want) {
					return false
				}
			case 2:
				if tr.Delete(k) != (func() bool { _, ok := model[k]; return ok }()) {
					return false
				}
				delete(model, k)
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		var want []uint64
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		tr.Range(func(k uint64, ref int64, ver uint32) bool {
			if model[k] != ref {
				return false
			}
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Put(uint64(i), int64(i), 1)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 1<<20; i++ {
		tr.Put(uint64(i), int64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i) & (1<<20 - 1))
	}
}

// shape counts the tree's leaf and inner nodes. Not safe against
// concurrent writers.
func shape(tr *Tree) (leaves, inners int) {
	var walk func(h *header)
	walk = func(h *header) {
		if h.isLeaf {
			leaves++
			return
		}
		inners++
		in := h.inner()
		for _, c := range in.children[:in.n+1] {
			walk(c)
		}
	}
	walk(tr.root)
	return leaves, inners
}

// Ascending inserts split at the append point, so every leaf but the last
// stays full instead of half full.
func TestAscendingInsertsFillLeaves(t *testing.T) {
	tr := New()
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		tr.Put(i, int64(i), 1)
	}
	leaves, inners := shape(tr)
	if limit := (n+maxKeys-2)/(maxKeys-1) + 1; leaves > limit {
		t.Fatalf("%d ascending keys made %d leaves (%d inner), want at most %d", n, leaves, inners, limit)
	}
	var next uint64
	tr.Range(func(k uint64, ref int64, ver uint32) bool {
		if k != next || ref != int64(k) {
			t.Fatalf("Range: key %d ref %d, want key %d", k, ref, next)
		}
		next++
		return true
	})
	if next != n {
		t.Fatalf("Range visited %d keys", next)
	}
}

// An update, a CAS or a Delete locks only the leaf, so a full leaf is not
// split by any of them; only an insert that does not fit splits.
func TestLeafWritesDoNotSplit(t *testing.T) {
	tr := New()
	for i := uint64(0); i < maxKeys; i++ {
		tr.Put(i*10, int64(i), 1)
	}
	nodes := func() int { l, in := shape(tr); return l + in }
	if got := nodes(); got != 1 {
		t.Fatalf("%d keys fill %d nodes, want one full leaf", maxKeys, got)
	}
	steps := []struct {
		name string
		do   func() bool
	}{
		{"update", func() bool { tr.Put(70, 700, 2); return true }},
		{"CAS", func() bool { return tr.CompareAndSwapRef(70, 700, 701) }},
		{"Delete", func() bool { return tr.Delete(70) }},
	}
	for _, s := range steps {
		if !s.do() {
			t.Fatalf("%s failed", s.name)
		}
		if got := nodes(); got != 1 {
			t.Fatalf("%s of a key in a full leaf left %d nodes, want 1", s.name, got)
		}
	}
	tr.Put(70, 702, 3)
	tr.Put(75, 750, 1)
	if got := nodes(); got != 3 {
		t.Fatalf("insert into a full leaf left %d nodes, want a root and two leaves", got)
	}
}

// Concurrent ascending appends, random inserts, updates, CASes, deletes,
// Gets and Scans. Each goroutine owns the keys ≡ g (mod goroutines), so it
// can check its own Gets and CASes exactly against its model; Scans must
// come back ascending; at the end every key must match the models.
func TestRaceHammer(t *testing.T) {
	const (
		goroutines = 4
		ops        = 20_000
		randSpace  = 1 << 16 // random keys lie below the appended ones
	)
	tr := New()
	models := make([]map[uint64]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		models[g] = map[uint64]int64{}
		wg.Add(1)
		go func(g int, model map[uint64]int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			own := func(k uint64) uint64 { return k - k%goroutines + uint64(g) }
			next := uint64(randSpace)
			for i := 0; i < ops; i++ {
				k := own(uint64(rng.Intn(randSpace)))
				v := rng.Int63()
				switch op := rng.Intn(16); {
				case op < 4: // ascending append
					k, next = own(next), next+goroutines
					tr.Put(k, v, 1)
					model[k] = v
				case op < 7: // random insert or update
					tr.Put(k, v, 1)
					model[k] = v
				case op < 9:
					old, ok := model[k]
					if tr.CompareAndSwapRef(k, old, v) != ok {
						t.Errorf("CAS(%d) = %v, want %v", k, !ok, ok)
						return
					}
					if ok {
						model[k] = v
					}
				case op < 11:
					_, ok := model[k]
					if tr.Delete(k) != ok {
						t.Errorf("Delete(%d) = %v, want %v", k, !ok, ok)
						return
					}
					delete(model, k)
				case op < 15:
					ref, _, ok := tr.Get(k)
					if want, wok := model[k]; ok != wok || ref != want {
						t.Errorf("Get(%d) = %d,%v, want %d,%v", k, ref, ok, want, wok)
						return
					}
				default:
					lo := uint64(rng.Intn(randSpace + ops))
					last, seen := lo, false
					tr.Scan(lo, lo+256, func(k uint64, ref int64, ver uint32) bool {
						if k < lo || k > lo+256 || (seen && k <= last) {
							t.Errorf("Scan[%d,%d]: %d after %d", lo, lo+256, k, last)
							return false
						}
						last, seen = k, true
						return true
					})
				}
			}
		}(g, models[g])
	}
	wg.Wait()
	total := 0
	for g, model := range models {
		total += len(model)
		for k, v := range model {
			if ref, _, ok := tr.Get(k); !ok || ref != v {
				t.Fatalf("goroutine %d key %d: got %d,%v, want %d", g, k, ref, ok, v)
			}
		}
	}
	n := 0
	tr.Range(func(k uint64, ref int64, ver uint32) bool {
		if v, ok := models[k%goroutines][k]; !ok || v != ref {
			t.Fatalf("Range: stray key %d ref %d", k, ref)
		}
		n++
		return true
	})
	if n != total || tr.Len() != total {
		t.Fatalf("Range visited %d, Len %d, models hold %d", n, tr.Len(), total)
	}
}

// BenchmarkMixedParallel runs 90 % Gets and 10 % updates over 400 k keys
// from every parallel goroutine.
func BenchmarkMixedParallel(b *testing.B) {
	const n = 400_000
	tr := New()
	for i := 0; i < n; i++ {
		tr.Put(uint64(i), int64(i), 1)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			k := uint64(rng.Intn(n))
			if rng.Intn(10) == 0 {
				tr.Put(k, int64(k), 2)
			} else {
				tr.Get(k)
			}
		}
	})
}
