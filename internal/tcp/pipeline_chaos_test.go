package tcp

// Chaos coverage for the pipelined client: a full window of asynchronous
// submissions and multi-op frames driven through the netfault proxy while
// it resets and delays connections mid-window. The properties pinned
// here are the exactly-once contract of the dedup table composed with
// replayed frames — every acked submit applied exactly once, no
// completion delivered twice — and window liveness across reconnects.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/netfault"
)

func TestPipelinedChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	_, _, addr := startServerOpts(t,
		core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 64},
		ServerOptions{})
	in := netfault.NewInjector(netfault.Config{
		Seed:      42,
		ResetProb: 0.02, // mid-window connection kills force replay of in-flight frames
		DelayProb: 0.05,
		DelayMax:  2 * time.Millisecond,
	})
	px, err := netfault.NewProxy(addr, in)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	cl, err := DialOptions(px.Addr(), Options{
		Window:      8,
		DialTimeout: 2 * time.Second,
		MaxAttempts: 50, // ride out clustered resets
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Phase 1: pipelined puts of unique keys through the faulty link,
	// reaped by a concurrent Poll. Count every delivery per key (Poll
	// hands its tickets back for reuse): a replayed frame must never
	// surface as a second completion.
	const nPuts = 400
	var mu sync.Mutex
	polled, reaped := make([]int, nPuts), 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, tk := range cl.Poll(0) {
				mu.Lock()
				polled[tk.Key()]++
				reaped++
				mu.Unlock()
				if tk.Err() != nil {
					t.Errorf("put %d failed under chaos: %v", tk.Key(), tk.Err())
				}
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(100 * time.Microsecond) // the background poller's pace, not a wait
			}
		}
	}()
	for i := 0; i < nPuts; i++ {
		if _, err := cl.SubmitPut(ctx, uint64(i), []byte(fmt.Sprintf("chaos%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%97 == 0 {
			in.Force(netfault.KindReset) // guarantee kills land inside busy windows
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := reaped
		mu.Unlock()
		if n >= nPuts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d puts reaped", n, nPuts)
		}
	}
	close(stop)
	wg.Wait()
	for key, n := range polled {
		if n != 1 {
			t.Fatalf("put %d delivered %d times", key, n)
		}
	}

	// Phase 2: multi-op frames through resets. A batch frame that dies
	// mid-flight is replayed whole; the dedup table must hand back the
	// recorded first responses for sub-ops that already executed.
	const nBatch = 300
	pairs := make([]Pair, nBatch)
	for i := range pairs {
		pairs[i] = Pair{Key: uint64(10_000 + i), Value: []byte(fmt.Sprintf("b%d", i))}
	}
	in.Force(netfault.KindReset)
	if err := cl.MultiPut(pairs); err != nil {
		t.Fatalf("multiput under chaos: %v", err)
	}

	// Phase 3: deletes pin exactly-once replay semantics. Every key above
	// was acked as stored; if a replayed delete were re-executed instead
	// of answered from the dedup table, its second run would report the
	// key absent and the ack here would read existed=false.
	delKeys := make([]uint64, 0, nPuts+nBatch)
	for i := 0; i < nPuts; i++ {
		delKeys = append(delKeys, uint64(i))
	}
	for i := 0; i < nBatch; i++ {
		delKeys = append(delKeys, uint64(10_000+i))
	}
	in.Force(netfault.KindReset)
	existed, err := cl.MultiDelete(delKeys)
	if err != nil {
		t.Fatalf("multidelete under chaos: %v", err)
	}
	for i, ex := range existed {
		if !ex {
			t.Fatalf("acked put of key %d vanished (or delete executed twice)", delKeys[i])
		}
	}

	// The run must actually have exercised reconnects, and the window
	// must still be live after them.
	if st := in.Stats(); st.Resets == 0 {
		t.Fatal("chaos run injected no resets; test proved nothing")
	}
	tk, err := cl.SubmitPut(ctx, 999_999, []byte("post-chaos"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(ctx); err != nil {
		t.Fatalf("window dead after reconnects: %v", err)
	}

	// Final audit through a fresh, fault-free client straight at the
	// server: all chaos-phase keys deleted, the liveness key present.
	direct, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	res, err := direct.MultiGet(delKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].OK {
			t.Fatalf("deleted key %d still present", delKeys[i])
		}
	}
	if v, ok, err := direct.Get(999_999); err != nil || !ok || string(v) != "post-chaos" {
		t.Fatalf("liveness key: %q %v %v", v, ok, err)
	}
}
