// etcpool drives a FlatStore node with the Facebook ETC production
// workload from §5.2 of the paper — the trimodal size distribution
// (40 % tiny 1-13 B, 55 % small 14-300 B, 5 % large >300 B) with zipfian
// popularity — using several concurrent TCP client connections with the
// resilient transport options (dial/request deadlines, reconnect with
// backoff, write retry over server-side dedup), and reports throughput
// plus the batching behaviour that makes small writes cheap.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/tcp"
	"flatstore/internal/workload"
)

const (
	keys      = 100_000
	clients   = 4
	opsPerCli = 25_000
	getRatio  = 0.5 // the write-intensive 50:50 mix
)

func main() {
	st, err := core.New(core.Config{
		Cores:       4,
		Mode:        batch.ModePipelinedHB,
		Index:       core.IndexHash,
		ArenaChunks: 96,
		GC:          core.GCConfig{Enabled: true, DeadRatio: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	st.Run()
	defer st.Stop()

	// Serve the node over TCP on a loopback port; the workload clients
	// dial it like any remote peer would.
	srv := tcp.NewServer(st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	// Explicit resilient-transport options: bounded dial and request
	// deadlines, a handful of reconnect attempts with jittered backoff.
	// Writes are safe to retry because the server dedups by session.
	opts := tcp.Options{
		DialTimeout:    5 * time.Second,
		RequestTimeout: 10 * time.Second,
		MaxAttempts:    5,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     100 * time.Millisecond,
	}

	// Preload every key so Gets hit (in-process: setup, not workload).
	pre := workload.NewETC(1, keys, 0)
	cl := st.Connect()
	for k := uint64(0); k < keys; k++ {
		if err := cl.Put(k, pre.Value(pre.SizeOf(k))); err != nil {
			log.Fatalf("preload key %d: %v", k, err)
		}
	}
	fmt.Printf("preloaded %d ETC keys (%d live in index)\n", keys, st.Len())
	var preBatches uint64
	for _, gs := range st.Metrics().Groups {
		preBatches += gs.Batches
	}

	start := time.Now()
	var wg sync.WaitGroup
	var gets, puts, misses int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewETC(seed, keys, getRatio)
			conn, err := tcp.DialOptions(lis.Addr().String(), opts)
			if err != nil {
				log.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			var g, p, miss int64
			for i := 0; i < opsPerCli; i++ {
				op := gen.Next()
				switch op.Type {
				case workload.OpGet:
					g++
					if _, ok, _ := conn.Get(op.Key); !ok {
						miss++
					}
				case workload.OpPut:
					p++
					if err := conn.Put(op.Key, gen.Value(op.ValueSize)); err != nil {
						log.Fatalf("put: %v", err)
					}
				}
			}
			mu.Lock()
			gets += g
			puts += p
			misses += miss
			mu.Unlock()
		}(int64(c) + 100)
	}
	wg.Wait()
	el := time.Since(start)

	total := gets + puts
	fmt.Printf("ran %d ops over TCP (%d gets, %d puts, %d misses) in %v — %.0f Kops/s wall-clock on this host\n",
		total, gets, puts, misses, el.Round(time.Millisecond), float64(total)/el.Seconds()/1e3)
	if s := srv.Stats(); s.Shed > 0 || s.DedupHits > 0 || s.BadFrames > 0 {
		fmt.Printf("transport: %d sheds, %d dedup hits, %d bad frames\n",
			s.Shed, s.DedupHits, s.BadFrames)
	}

	srv.Close()
	st.Stop()
	for i := 0; i < st.Cores(); i++ {
		st.Core(i).Flusher().FlushEvents()
	}
	s := st.Metrics()
	var batches, stolen uint64
	for _, gs := range s.Groups {
		batches += gs.Batches
		stolen += gs.Stolen
	}
	batches -= preBatches
	fmt.Printf("horizontal batching: %d batches for %d puts (avg %.1f entries/batch), %d stolen across cores\n",
		batches, puts, float64(puts)/float64(batches), stolen)
	fmt.Printf("PM: %.2f fences per put, %d free chunks remain\n",
		float64(s.PM.Fences)/float64(puts), s.FreeChunks)
}
