//go:build unix && !race

package pmem

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// mappings counts this process's mappings, or skips where /proc is absent.
func mappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	return bytes.Count(maps, []byte("\n"))
}

// churn opens n one-chunk arenas over one image, writes a line through
// each and hands it to drop. It returns the highest mapping count seen.
func churn(t *testing.T, n int, drop func(*Arena)) (peak int) {
	t.Helper()
	base := New(ChunkSize)
	base.NewFlusher().Persist(4096, pattern(CachelineSize, 1))
	im, err := base.Image()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a, err := im.Open()
		if err != nil {
			t.Fatalf("arena %d: %v", i, err)
		}
		a.NewFlusher().PersistUint64(8192, uint64(i))
		drop(a)
		if i%500 == 0 {
			peak = max(peak, mappings(t))
		}
	}
	return peak
}

// TestReleaseUnmaps: an explicit Release leaves nothing mapped behind, so a
// sweep of any length holds only its live arenas' mappings.
func TestReleaseUnmaps(t *testing.T) {
	start := mappings(t)
	churn(t, 20_000, (*Arena).Release)
	if end := mappings(t); end > start+16 {
		t.Fatalf("%d mappings before 20 000 released arenas, %d after", start, end)
	}
}

// TestDroppedArenasAreReclaimed: without Release the finalizer unmaps, and
// the forced collection every collectEvery mapped bytes keeps the backlog
// far below vm.max_map_count (65 530) although the heap never grows enough
// to ask for a collection itself. The bound is three mappings an arena and
// twice the arenas that fit one collectEvery, the finalizer goroutine being
// allowed to lag one round behind.
func TestDroppedArenasAreReclaimed(t *testing.T) {
	start := mappings(t)
	const arenaBytes = 2*ChunkSize + ChunkSize/CachelineSize*8
	bound := start + 3*2*(collectEvery/arenaBytes)
	if peak := churn(t, 20_000, func(*Arena) {}); peak > bound {
		t.Fatalf("%d mappings at the peak of 20 000 dropped arenas, bound %d", peak, bound)
	}
	runtime.GC()
}
