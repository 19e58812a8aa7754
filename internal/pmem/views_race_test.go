//go:build race

package pmem

import "testing"

// TestRaceBuildIsHeapBacked: the race detector ignores addresses outside
// the Go heap, so a race build must not map its views — or every
// unsynchronised pair of PM writers the -race batteries exist to catch
// would pass unreported. The image's bytes being a slice (imageStore.b) is
// the heap backing's mark: under the mapped one this file does not compile.
func TestRaceBuildIsHeapBacked(t *testing.T) {
	a := New(ChunkSize)
	a.NewFlusher().Persist(0, []byte("on the heap"))
	im, err := a.Image()
	if err != nil {
		t.Fatal(err)
	}
	if string(im.store.b[:11]) != "on the heap" {
		t.Fatal("a race build's image does not hold its bytes on the heap")
	}
}
