package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// reuseVal is a 9 KB value stamped with its key and generation: it takes
// the 16 KiB class, 255 blocks a chunk, so a few hundred keys span chunks.
func reuseVal(key uint64, gen int) []byte {
	v := bytes.Repeat([]byte{byte(gen)}, 9000)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], uint64(gen))
	return v
}

func classChunks(st *core.Store) int {
	n := 0
	for _, cl := range st.Allocator().Occupancy().Classes {
		n += cl.Chunks
	}
	return n
}

// churnKeys overwrites the store's keys from one client per core, each
// client touching only the keys that route to its core, with a skewed
// choice so that most chunks keep a few cold blocks. Under -race this is
// the proof that no chunk is allocated from by one core while another
// frees into it: every overwrite allocates on the key's core and frees the
// old record there.
func churnKeys(t *testing.T, st *core.Store, nkeys, rounds int, gen []int) {
	t.Helper()
	cores := st.Cores()
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := st.Connect()
			defer cl.Close()
			var mine []uint64
			for k := uint64(0); k < uint64(nkeys); k++ {
				if st.CoreOf(k) == c {
					mine = append(mine, k)
				}
			}
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for n := 0; n < rounds*len(mine); n++ {
				k := mine[rng.Intn(len(mine)/5)]
				if rng.Intn(5) == 0 {
					k = mine[rng.Intn(len(mine))]
				}
				gen[k]++
				if err := cl.Put(k, reuseVal(k, gen[k])); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRecoverReuseUnderLoad fills a two-core store with out-of-place
// values, churns it so both cores hold several partly filled class chunks,
// and restarts it by power cut and by clean shutdown. After each restart
// the cores churn on: the class chunks held must still follow the live
// data (⌈live/capacity⌉ + cores + 1) instead of growing with the number of
// overwrites, the allocator's audit must be clean, and every key must read
// back its last value.
func TestRecoverReuseUnderLoad(t *testing.T) {
	const nkeys, capacity = 1500, 255
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 24}
	st, cl := newRunning(t, cfg)
	gen := make([]int, nkeys)
	for k := uint64(0); k < nkeys; k++ {
		if err := cl.Put(k, reuseVal(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	bound := (nkeys+capacity-1)/capacity + cfg.Cores + 1
	verify := func(st *core.Store, when string) {
		t.Helper()
		if got := classChunks(st); got > bound {
			t.Fatalf("%s: %d class chunks for %d live blocks of %d a chunk, bound %d", when, got, nkeys, capacity, bound)
		}
		cl := st.Connect()
		defer cl.Close()
		for k := uint64(0); k < nkeys; k++ {
			v, ok, err := cl.Get(k)
			if err != nil || !ok || !bytes.Equal(v, reuseVal(k, gen[k])) {
				t.Fatalf("%s: key %d does not hold generation %d (ok=%v err=%v)", when, k, gen[k], ok, err)
			}
		}
	}
	churnKeys(t, st, nkeys, 4, gen)
	verify(st, "before any restart")

	for _, clean := range []bool{false, true} {
		when := fmt.Sprintf("after restart (clean=%v)", clean)
		st.Stop()
		if clean {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		before := classChunks(st)
		ocfg := cfg
		ocfg.Arena = st.Arena().Crash()
		re, err := core.Open(ocfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Allocator().Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got := classChunks(re); got > before {
			t.Fatalf("%s: %d class chunks, %d before it", when, got, before)
		}
		re.Run()
		t.Cleanup(re.Stop)
		st = re
		churnKeys(t, st, nkeys, 4, gen)
		verify(st, when)
	}
	st.Stop()
	if err := st.Allocator().Audit(); err != nil {
		t.Fatal(err)
	}
}
