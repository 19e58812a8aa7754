package tcp

// Tests of the one client path: wire order is submission order (also
// across a replay), and an op costs no goroutine and a fixed handful of
// allocations whether it is a sync call or a pipelined ticket.

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/netfault"
)

// TestPipelinedSameKeyOrder: a full window of puts to ONE key, stamps
// increasing in submission order, must leave the last stamp behind —
// every round, with nothing shed. The second case kills the connection
// once mid-window each round: the replay has to go out in id order, ahead
// of the submissions that follow it.
func TestPipelinedSameKeyOrder(t *testing.T) {
	const window, key = 32, 7
	run := func(t *testing.T, cl *Client, rounds int, midWindow func()) {
		ctx := context.Background()
		var stamp uint64
		tickets := make([]*Ticket, window)
		for round := 0; round < rounds; round++ {
			for i := range tickets {
				if i == window/2 {
					midWindow()
				}
				stamp++
				tk, err := cl.SubmitPut(ctx, key, binary.LittleEndian.AppendUint64(nil, stamp))
				if err != nil {
					t.Fatalf("round %d: submit: %v", round, err)
				}
				tickets[i] = tk
			}
			for _, tk := range tickets {
				if err := tk.Wait(ctx); err != nil {
					t.Fatalf("round %d: put: %v", round, err)
				}
			}
			v, ok, err := cl.Get(key)
			if err != nil || !ok {
				t.Fatalf("round %d: get: ok=%v err=%v", round, ok, err)
			}
			if got := binary.LittleEndian.Uint64(v); got != stamp {
				t.Fatalf("round %d: key holds stamp %d, last submitted %d: puts were applied out of submission order",
					round, got, stamp)
			}
		}
	}
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}

	t.Run("steady", func(t *testing.T) {
		_, srv, addr := startServerOpts(t, cfg, ServerOptions{})
		cl, err := DialOptions(addr, Options{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		run(t, cl, 200, func() {})
		if shed := srv.Stats().Shed; shed != 0 {
			t.Fatalf("%d requests were shed: the run did not test submission order alone", shed)
		}
	})

	t.Run("reset", func(t *testing.T) {
		_, _, addr := startServerOpts(t, cfg, ServerOptions{})
		in := netfault.NewInjector(netfault.Config{Seed: 5})
		px, err := netfault.NewProxy(addr, in)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		cl, err := DialOptions(px.Addr(), Options{
			Window: window, DialTimeout: 2 * time.Second, MaxAttempts: 20,
			BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		const rounds = 20
		run(t, cl, rounds, func() { in.Force(netfault.KindReset) })
		if got := in.Stats().Resets; got < rounds {
			t.Fatalf("%d resets over %d rounds: the replay path was not exercised every round", got, rounds)
		}
	})
}

// TestClientPathBudget is the hot-path gate as a plain test. Requests in
// flight cost no goroutines: the count with a full window outstanding is
// the count with one. And an op allocates its ticket, the ticket's
// completion signal and the response frame — the budget leaves the slack
// the old per-attempt scaffolding used to fill, and not a goroutine's or a
// timer's worth more. A 16-pair Scan measures 12 (its budget is short of
// one allocation per pair more).
func TestClientPathBudget(t *testing.T) {
	const window, budget, scanBudget = 32, 6, 16
	ctx := context.Background()

	t.Run("goroutines", func(t *testing.T) {
		release := make(chan struct{})
		cl, err := DialOptions(stallServer(t, release), Options{Window: window, MaxAttempts: 1, RequestTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		tickets := make([]*Ticket, 0, window)
		submit := func() {
			tk, err := cl.SubmitPut(ctx, uint64(len(tickets)), []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		// The count once it stops moving: the stall server starts its own
		// goroutines a moment after the dial returns.
		settled := func() int {
			for n := runtime.NumGoroutine(); ; {
				time.Sleep(10 * time.Millisecond)
				m := runtime.NumGoroutine()
				if m == n {
					return n
				}
				n = m
			}
		}
		submit()
		one := settled()
		for len(tickets) < window {
			submit()
		}
		if full := settled(); full != one {
			t.Errorf("%d goroutines with %d tickets in flight, %d with one: requests in flight cost goroutines",
				full, window, one)
		}
		close(release)
		for _, tk := range tickets {
			if err := tk.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("allocs", func(t *testing.T) {
		_, _, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}, ServerOptions{})
		cl, err := DialOptions(addr, Options{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		value := make([]byte, 64)
		var key uint64
		if n := testing.AllocsPerRun(300, func() {
			key++
			if err := cl.Put(key%128, value); err != nil {
				t.Fatal(err)
			}
		}); n > budget {
			t.Errorf("sync Put: %v allocs/op, budget %d", n, budget)
		}
		if n := testing.AllocsPerRun(300, func() {
			key++
			if _, _, err := cl.Get(key % 128); err != nil {
				t.Fatal(err)
			}
		}); n > budget {
			t.Errorf("sync Get: %v allocs/op, budget %d", n, budget)
		}
		// A Scan needs an ordered index, so it has a server of its own. Its
		// reply carries 16 pairs: the ticket and frames of a Get, plus the
		// pair slices the server, the decoder and the caller each build.
		_, _, ordered := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32,
			Index: core.IndexMasstree}, ServerOptions{})
		sc, err := DialOptions(ordered, Options{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		for k := uint64(0); k < 128; k++ {
			if err := sc.Put(k, value); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(300, func() {
			key++
			lo := key % 112
			if pairs, err := sc.Scan(lo, lo+15, 16); err != nil || len(pairs) != 16 {
				t.Fatalf("scan from %d: %d pairs, err=%v", lo, len(pairs), err)
			}
		}); n > scanBudget && !raceDetector { // 24 under -race: see raceDetector
			t.Errorf("sync Scan of 16 pairs: %v allocs/op, budget %d", n, scanBudget)
		}
		// One run is a full window through Submit and Poll, the way a
		// closed-loop load generator drives it.
		reap := func() {
			for _, tk := range cl.Poll(0) {
				if err := tk.Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			for i := 0; i < window; i++ {
				key++
				if _, err := cl.SubmitPut(ctx, key%128, value); err != nil {
					t.Fatal(err)
				}
				reap()
			}
			for cl.InFlight() > 0 {
				runtime.Gosched()
			}
			reap()
		}); n > budget*window {
			t.Errorf("pipelined Put at window %d: %.1f allocs/op, budget %d", window, n/window, budget)
		}
	})
}
