package tcp

// Tests of the one client path: wire order is submission order (also
// across a replay), and an op costs no goroutine and a fixed handful of
// allocations whether it is a sync call or a pipelined ticket.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
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

// TestPipelinedFlushCoalescing: a closed loop at window 32 — submit, reap
// what is done, the way a load generator drives the client — must put a
// burst of submissions on the wire with one socket write, not one each:
// at most one flush per two requests. The server's reader then finds
// bursts too: on average at least one frame beyond the first per wakeup.
func TestPipelinedFlushCoalescing(t *testing.T) {
	const window, n = 32, 4000
	_, srv, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}, ServerOptions{})
	cl, err := DialOptions(addr, Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	value := make([]byte, 32)
	reap := func() {
		for _, tk := range cl.Poll(0) {
			if err := tk.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushes, coalesced := cl.flushes.Load(), srv.Stats().FramesCoalesced
	for i := 0; i < n; i++ {
		if _, err := cl.SubmitPut(ctx, uint64(i%512), value); err != nil {
			t.Fatal(err)
		}
		reap()
	}
	for cl.InFlight() > 0 {
		reap()
	}
	flushes = cl.flushes.Load() - flushes
	coalesced = srv.Stats().FramesCoalesced - coalesced
	wakeups := n - coalesced // each wakeup reads one frame, then the coalesced ones
	t.Logf("%d requests: %d client flushes, %d server reader wakeups", n, flushes, wakeups)
	if flushes*2 > n {
		t.Errorf("%d flushes for %d requests: more than one per two", flushes, n)
	}
	if coalesced < wakeups {
		t.Errorf("%d frames coalesced over %d reader wakeups: fewer than one per wakeup", coalesced, wakeups)
	}
}

// TestPipelinedNoStrandedRequest: a frame held in the writer must reach
// the server however the caller reaps. Two submits at window 8 against a
// server that answers nothing yet: the first is flushed, the second held
// behind it. Spinning on Done, calling only Poll, or calling only Wait
// must each see both complete; a large frame behind them, or a Busy
// resend, must carry the held one to the server.
func TestPipelinedNoStrandedRequest(t *testing.T) {
	const window = 8
	deadline := func(t *testing.T, what string) func() {
		t.Helper()
		end := time.Now().Add(10 * time.Second)
		return func() {
			if time.Now().After(end) {
				t.Fatalf("%s: a held request was never flushed", what)
			}
			runtime.Gosched()
		}
	}
	start := func(t *testing.T) (*Client, chan struct{}, [2]*Ticket) {
		release := make(chan struct{})
		cl, err := DialOptions(stallServer(t, release), Options{Window: window, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		var ts [2]*Ticket
		for i := range ts {
			if ts[i], err = cl.SubmitPut(context.Background(), uint64(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if held := cl.held.Load(); held != 1 {
			t.Fatalf("%d frames held after two submits with the first unanswered, want 1", held)
		}
		return cl, release, ts
	}

	t.Run("done", func(t *testing.T) {
		_, release, ts := start(t)
		close(release)
		tick := deadline(t, "spinning on Done")
		for !ts[0].Done() || !ts[1].Done() {
			tick()
		}
	})

	t.Run("poll", func(t *testing.T) {
		cl, release, _ := start(t)
		close(release)
		tick := deadline(t, "calling Poll")
		for reaped := 0; reaped < 2; reaped += len(cl.Poll(0)) {
			tick()
		}
	})

	t.Run("wait", func(t *testing.T) {
		// Wait flushes the held frame itself: the server has both requests
		// before it answers either.
		cl, release, ts := start(t)
		errc := make(chan error, 1)
		go func() { errc <- ts[1].Wait(context.Background()) }()
		tick := deadline(t, "calling Wait")
		for cl.held.Load() != 0 {
			tick()
		}
		close(release)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if err := ts[0].Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("large", func(t *testing.T) {
		// A frame larger than holdMax is not held: it goes at once and
		// carries the held one with it.
		cl, release, _ := start(t)
		defer close(release)
		if _, err := cl.SubmitPut(context.Background(), 2, make([]byte, holdMax)); err != nil {
			t.Fatal(err)
		}
		if held := cl.held.Load(); held != 0 {
			t.Fatalf("%d frames held after a %d-byte value, want 0", held, holdMax)
		}
	})

	t.Run("busy-resend", func(t *testing.T) {
		// The server sheds request 1, takes request 2 and answers nothing
		// until request 1 comes back. Request 3, submitted behind the
		// unanswered 2, is held, and the resend of 1 carries it: the server
		// reads 3 before the resent 1. Seed 1 puts the resend ≈150 ms out.
		addr, order := shedFirstServer(t)
		cl, err := DialOptions(addr, Options{Window: window, Seed: 1,
			BackoffBase: 200 * time.Millisecond, BackoffMax: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ctx := context.Background()
		submit := func(key uint64) *Ticket {
			tk, err := cl.SubmitPut(ctx, key, []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			return tk
		}
		t1 := submit(1)
		tick := deadline(t, "waiting for the shed")
		for cl.onWire.Load() != 0 { // the Busy answer is in
			tick()
		}
		t2, t3 := submit(2), submit(3)
		if held := cl.held.Load(); held != 1 {
			t.Fatalf("%d frames held behind the unanswered request 2, want 1", held)
		}
		tick = deadline(t, "spinning on Done")
		for !t1.Done() || !t2.Done() || !t3.Done() {
			tick()
		}
		for _, tk := range []*Ticket{t1, t2, t3} {
			if err := tk.Err(); err != nil {
				t.Fatalf("put %d: %v", tk.Key(), err)
			}
		}
		if got, want := order(), []uint64{1, 2, 3, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("server read request ids %v, want %v", got, want)
		}
	})
}

// shedFirstServer handshakes, answers the first request it reads with
// statusBusy, and withholds every later answer until that request comes
// back; then it acks everything it has seen and everything after at once.
// order returns the request ids in the order the server read them.
func shedFirstServer(t *testing.T) (addr string, order func() []uint64) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var mu sync.Mutex
	var ids []uint64
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br, bw := bufio.NewReader(c), bufio.NewWriter(c)
		var hs []byte
		hs = binary.LittleEndian.AppendUint64(hs, wireMagic)
		hs = binary.LittleEndian.AppendUint32(hs, 1)
		hs = binary.LittleEndian.AppendUint64(hs, 0xFAFE) // server identity
		if writeFrame(bw, hs) != nil || bw.Flush() != nil {
			return
		}
		if _, err := readFrame(br); err != nil { // hello
			return
		}
		var shed uint64   // the request answered Busy
		var held []uint64 // withheld answers
		for {
			payload, err := readFrame(br)
			if err != nil {
				return
			}
			q, err := decodeRequest(payload)
			if err != nil {
				return
			}
			mu.Lock()
			ids = append(ids, q.id)
			mu.Unlock()
			if shed == 0 {
				shed = q.id
				if writeFrame(bw, encodeResponse(response{id: q.id, status: statusBusy})) != nil || bw.Flush() != nil {
					return
				}
				continue
			}
			held = append(held, q.id)
			if q.id == shed {
				shed = ^uint64(0) // back: answer from now on
			}
			if shed != ^uint64(0) {
				continue
			}
			for _, id := range held {
				if writeFrame(bw, encodeResponse(response{id: id, status: statusOK})) != nil {
					return
				}
			}
			held = held[:0]
			if bw.Flush() != nil {
				return
			}
		}
	}()
	return lis.Addr().String(), func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), ids...)
	}
}

// TestClientPathBudget is the hot-path gate as a plain test. Requests in
// flight cost no goroutines: the count with a full window outstanding is
// the count with one. And a response frame is allocated only when the
// answer carries a value or pairs, a bare answer being read into the
// reader's scratch. Every ticket is reused, wake channel and all, once
// its reaper is done with it, so a sync Put allocates nothing and a sync
// Get only the frame its value rides in: budgets 0 and 1 (AllocsPerRun
// rounds down), where a ticket per call measured 2 and 3. A pipelined Put
// reaped by Poll measures 0, its ticket going back at the next Poll and
// Poll reusing its result slice; a ticket per Submit measured 1.0, which
// its budget fails. A 16-pair Scan measures 12 (its budget is short of one
// allocation per pair more).
func TestClientPathBudget(t *testing.T) {
	const window, putBudget, scanBudget = 32, 0, 16
	getBudget, pipeBudget := 1.0, 0.25
	if raceDetector {
		// sync.Pool drops buffers, the server's included: a Get measures
		// 2, a pipelined Put 0.72–0.81.
		getBudget, pipeBudget = 2, 1
	}
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
		}); n > putBudget {
			t.Errorf("sync Put: %v allocs/op, budget %d", n, putBudget)
		}
		if n := testing.AllocsPerRun(300, func() {
			key++
			if _, _, err := cl.Get(key % 128); err != nil {
				t.Fatal(err)
			}
		}); n > getBudget {
			t.Errorf("sync Get: %v allocs/op, budget %v", n, getBudget)
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
		n := testing.AllocsPerRun(50, func() {
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
		})
		if n > pipeBudget*window {
			t.Errorf("pipelined Put at window %d: %.2f allocs/op, budget %v", window, n/window, pipeBudget)
		}
	})
}
