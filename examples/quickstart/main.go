// Quickstart: create a FlatStore node, put/get/delete a few keys, and
// show the engine's persistence statistics — the smallest end-to-end use
// of the public engine API.
package main

import (
	"fmt"
	"log"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

func main() {
	// A FlatStore node: 4 server cores, pipelined horizontal batching,
	// a CCEH-style volatile hash index per core (FlatStore-H), and a
	// 128 MB emulated persistent-memory arena.
	st, err := core.New(core.Config{
		Cores:       4,
		Mode:        batch.ModePipelinedHB,
		Index:       core.IndexHash,
		ArenaChunks: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	st.Run()
	defer st.Stop()

	// Clients talk to the engine through FlatRPC: requests are routed
	// to the server core owning each key.
	cl := st.Connect()

	if err := cl.Put(42, []byte("hello, persistent memory")); err != nil {
		log.Fatal(err)
	}
	v, ok, err := cl.Get(42)
	if err != nil || !ok {
		log.Fatalf("get: %v %v", ok, err)
	}
	fmt.Printf("key 42 -> %q\n", v)

	// Values up to 256 B are embedded in 16-byte-header log entries;
	// larger ones go through the lazy-persist allocator.
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	if err := cl.Put(43, big); err != nil {
		log.Fatal(err)
	}
	v, _, _ = cl.Get(43)
	fmt.Printf("key 43 -> %d bytes (out-of-place record)\n", len(v))

	if ok, _ := cl.Delete(42); ok {
		fmt.Println("key 42 deleted (tombstone appended)")
	}
	if _, ok, _ := cl.Get(42); !ok {
		fmt.Println("key 42 is gone")
	}

	// The emulated device keeps the statistics FlatStore's design is
	// about: how few flushes the compacted, batched log needs.
	st.Stop()
	for i := 0; i < st.Cores(); i++ {
		st.Core(i).Flusher().FlushEvents()
	}
	s := st.Metrics()
	fmt.Printf("\nPM traffic: %d flushes, %d fences, %d cachelines, %d media bytes\n",
		s.PM.Flushes, s.PM.Fences, s.PM.Lines, s.PM.MediaBytes)
	for g, gs := range s.Groups {
		fmt.Printf("HB group %d: %d batches, %d entries stolen across cores\n",
			g, gs.Batches, gs.Stolen)
	}
}
