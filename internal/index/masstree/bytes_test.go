//go:build !race

package masstree

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestBytesPerKey logs the heap the tree takes per key for ascending and
// random inserts. A -race build is left out: it pads allocations, so its
// heap says nothing about a normal build's.
func TestBytesPerKey(t *testing.T) {
	const n = 400_000
	for _, order := range []string{"ascending", "random"} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		if order == "random" {
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := New()
		for _, k := range keys {
			tr.Put(k, int64(k), 1)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		leaves, inners := shape(tr)
		runtime.KeepAlive(keys)
		t.Logf("%d %s inserts: %.1f B/key (%d leaves, %d inner nodes)", n, order,
			float64(after.HeapAlloc-before.HeapAlloc)/n, leaves, inners)
		runtime.KeepAlive(tr)
	}
}
