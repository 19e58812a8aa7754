package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"flatstore/internal/alloc"
	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/rpc"
)

// sized builds the value of one (key, step) at a given size, different in
// every byte position from the same key's other steps.
func sized(key uint64, step, size int) []byte {
	out := make([]byte, size)
	seed := key*2654435761 + uint64(step)*40503 + 1
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 56)
	}
	return out
}

// inlinePut drives one Put to its acknowledgement on a store that is not
// running, so the test decides which batch lands where in which log.
func inlinePut(t *testing.T, st *core.Store, req rpc.Request) {
	t.Helper()
	c := st.Core(st.CoreOf(req.Key))
	c.Submit(req, 0)
	for spins := 0; spins < 1000; spins++ {
		for i := 0; i < st.Cores(); i++ {
			st.Core(i).TryLead()
			st.Core(i).DrainCompleted()
		}
		if out := c.TakeResponses(); len(out) > 0 {
			if s := out[len(out)-1].Resp.Status; s != rpc.StatusOK && s != rpc.StatusNotFound {
				t.Fatalf("op %d on key %d: status %d", req.Op, req.Key, s)
			}
			return
		}
	}
	t.Fatalf("op %d on key %d never completed", req.Op, req.Key)
}

// fillTailTo appends filler puts (keys of core 0, counted up from key) to
// core 0's log until its tail chunk has exactly room bytes left, and
// returns that chunk. One inline put is one batch on the cacheline grid.
func fillTailTo(t *testing.T, st *core.Store, key uint64, room int64) int64 {
	t.Helper()
	log := st.Core(0).Log()
	chunk := log.TailChunk()
	target := chunk + pmem.ChunkSize - room
	for log.Tail() < target {
		for st.CoreOf(key) != 0 {
			key++
		}
		size := 240 // 16 + 240 + 16 → 320 B a batch
		if target-log.Tail() < 320 {
			size = 8 // 16 + 8 + 16 → 64 B a batch
		}
		inlinePut(t, st, rpcPut(key, sized(key, 0, size)))
		key++
	}
	if log.Tail() != target || log.TailChunk() != chunk {
		t.Fatalf("filler overshot: tail %#x, want %#x in chunk %#x", log.Tail(), target, chunk)
	}
	return chunk
}

// TestRecoveryRoundTripAtFormatBoundaries writes values of the sizes at
// which their storage changes hands — inline in the log entry / a record in
// a class block / the next class / whole chunks, and the last batch a log
// chunk holds / the first one that rolls — takes the store through a clean
// shutdown or a power cut, and reads everything back byte-exact: after the
// reopen, after overwriting and adding on top of the recovered allocator,
// and after a second power cut.
func TestRecoveryRoundTripAtFormatBoundaries(t *testing.T) {
	type sizeCase struct {
		name string
		size int
		// fill: core 0's tail chunk is first filled up to the last 256
		// bytes, so that the case's first put is the batch that decides
		// whether the chunk rolls.
		fill, rolls bool
	}
	var cases []sizeCase
	for d := -1; d <= 1; d++ {
		cases = append(cases, sizeCase{name: fmt.Sprintf("inline%+d", d), size: oplog.MaxInline + d})
	}
	// A value's record fits class i up to ClassSize(i) less the record
	// header. Class 0 is never reached (values that small are inline);
	// one past the largest class is the first huge size.
	for _, i := range []int{1, alloc.NumClasses / 2, alloc.NumClasses - 1} {
		for d := -1; d <= 1; d++ {
			name := fmt.Sprintf("class%d%+d", alloc.ClassSize(i), d)
			if i == alloc.NumClasses-1 && d == 1 {
				name = "first-huge"
			}
			cases = append(cases, sizeCase{name: name, size: alloc.ClassSize(i) - record.HeaderSize + d})
		}
	}
	// Entry header, 208 or 209 value bytes (padded to 8) and the trailer:
	// 240 bytes end exactly at the end-marker reserve of a chunk with 256
	// left, 248 do not fit.
	cases = append(cases,
		sizeCase{name: "batch-fills-chunk", size: 208, fill: true},
		sizeCase{name: "batch-one-byte-more", size: 209, fill: true, rolls: true})

	for _, idx := range []core.IndexKind{core.IndexHash, core.IndexMasstree} {
		for _, path := range []string{"close", "crash"} {
			for _, c := range cases {
				t.Run(fmt.Sprintf("%v/%s/%s", idx, path, c.name), func(t *testing.T) {
					cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, Index: idx, ArenaChunks: 32}
					st, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(st.Arena().Release)
					keyOnce := uint64(1 << 32) // put once; core 0's, for the batch cases
					for st.CoreOf(keyOnce) != 0 {
						keyOnce++
					}
					keyTwice := keyOnce + 1   // put twice: the first value must not come back
					keyDeleted := keyOnce + 2 // put twice and deleted: no resurrection
					keyLater := keyOnce + 3   // first put after the recovery
					var chunk int64
					if c.fill {
						chunk = fillTailTo(t, st, 1<<40, 256)
					}
					inlinePut(t, st, rpcPut(keyOnce, sized(keyOnce, 0, c.size)))
					if log := st.Core(0).Log(); c.fill {
						if rolled := log.TailChunk() != chunk; rolled != c.rolls {
							t.Fatalf("log rolled: %v, want %v", rolled, c.rolls)
						}
						if end := chunk + pmem.ChunkSize - oplog.HeaderSize; !c.rolls && log.Tail() != end {
							t.Fatalf("tail %#x: the batch does not end at the end-marker reserve %#x", log.Tail(), end)
						}
					}
					inlinePut(t, st, rpcPut(keyTwice, sized(keyTwice, 0, c.size)))
					inlinePut(t, st, rpcPut(keyTwice, sized(keyTwice, 1, c.size)))
					inlinePut(t, st, rpcPut(keyDeleted, sized(keyDeleted, 0, c.size)))
					inlinePut(t, st, rpcPut(keyDeleted, sized(keyDeleted, 1, c.size)))
					inlinePut(t, st, rpc.Request{Op: rpc.OpDelete, Key: keyDeleted})
					want := map[uint64][]byte{keyOnce: sized(keyOnce, 0, c.size), keyTwice: sized(keyTwice, 1, c.size)}
					fillers := st.Len() - len(want)

					if path == "close" {
						if err := st.Close(); err != nil {
							t.Fatal(err)
						}
					} else {
						st.Run() // so that Stop has cores to park and logs to witness
						st.Stop()
					}
					reopen := func(from *core.Store) (*core.Store, *core.Client) {
						cfg.Arena = from.Arena().Crash()
						t.Cleanup(cfg.Arena.Release)
						re, err := core.Open(cfg)
						if err != nil {
							t.Fatal(err)
						}
						re.Run()
						t.Cleanup(re.Stop)
						return re, re.Connect()
					}
					check := func(when string, re *core.Store, cl *core.Client) {
						t.Helper()
						if re.Len() != fillers+len(want) {
							t.Errorf("%s: %d keys, want %d", when, re.Len(), fillers+len(want))
						}
						for k, w := range want {
							if v, ok, err := cl.Get(k); err != nil || !ok || !bytes.Equal(v, w) {
								t.Errorf("%s: key %#x: %d bytes, present %v, err %v; want the %d bytes last acknowledged", when, k, len(v), ok, err, len(w))
							}
						}
						if _, ok, _ := cl.Get(keyDeleted); ok {
							t.Errorf("%s: deleted key resurrected", when)
						}
						if idx != core.IndexMasstree {
							return
						}
						pairs, err := cl.Scan(keyOnce, keyLater, 0)
						if err != nil || len(pairs) != len(want) {
							t.Fatalf("%s: scan: %d pairs, err %v; want %d", when, len(pairs), err, len(want))
						}
						for i, p := range pairs {
							if i > 0 && p.Key <= pairs[i-1].Key || !bytes.Equal(p.Value, want[p.Key]) {
								t.Errorf("%s: scan pair %d: key %#x out of order or with the wrong value", when, i, p.Key)
							}
						}
					}

					re, cl := reopen(st)
					check("after the reopen", re, cl)
					// The recovered allocator and log keep serving: nothing
					// it hands out may overlap what recovery found live.
					for _, k := range []uint64{keyOnce, keyLater} {
						want[k] = sized(k, 2, c.size)
						if err := cl.Put(k, want[k]); err != nil {
							t.Fatal(err)
						}
					}
					check("after writing to the recovered store", re, cl)
					re.Stop()
					re2, cl2 := reopen(re)
					check("after the second power cut", re2, cl2)
				})
			}
		}
	}
}
