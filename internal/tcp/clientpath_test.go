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
	"slices"
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
	var out inFlight
	flushes, coalesced := cl.flushes.Load(), srv.Stats().FramesCoalesced
	for i := 0; i < n; i++ {
		tk, err := cl.SubmitPut(ctx, uint64(i%512), value)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tk)
		out.reap(t, cl, nil)
	}
	out.drain(t)
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

// inFlight is a closed loop's record of its tickets not yet reaped: a
// ticket joins at Submit and leaves when Poll delivers it, and what is
// left is reaped with Wait, which blocks, rather than by polling until
// nothing is in flight.
type inFlight []*Ticket

// reap takes what Poll delivers, failing on an error and handing each
// ticket to check (if not nil) before the next Poll recycles it.
func (o *inFlight) reap(t *testing.T, cl *Client, check func(*Ticket)) {
	t.Helper()
	for _, tk := range cl.Poll(0) {
		if err := tk.Err(); err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(tk)
		}
		i := slices.Index(*o, tk)
		*o = slices.Delete(*o, i, i+1)
	}
}

// drain Waits for every ticket still out. Those tickets stay the caller's:
// unlike a polled one, none goes back to the client for reuse.
func (o *inFlight) drain(t *testing.T) {
	t.Helper()
	for _, tk := range *o {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	*o = (*o)[:0]
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

// TestRecycleSkipsFailedAttempt: a ticket an attempt failed on does not go
// back to the client for reuse, since a resend timer may still name it.
// The server sheds the first request Busy and hangs up; the redial's
// replay completes the ticket while the Busy backoff's timer still runs
// (seed 412 draws 944 ms for the backoff, then 0.8 ms for the redial). The
// test reaps the ticket with Poll, polls again — the Poll that hands a
// ticket back — and lets the timer fire: under -race its read of the
// ticket must not meet a reset of it, and the next Submit must get a
// ticket of its own, not one a timer names.
func TestRecycleSkipsFailedAttempt(t *testing.T) {
	addr := shedOnceServer(t)
	cl, err := DialOptions(addr, Options{Window: 4, Seed: 412, BackoffBase: time.Second, BackoffMax: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	start := time.Now()
	tk, err := cl.SubmitGet(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Ticket
	for len(got) == 0 {
		if time.Since(start) > 800*time.Millisecond {
			t.Fatal("the replay did not complete the ticket well before its Busy resend")
		}
		if got = cl.Poll(0); len(got) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if v, ok := got[0].Value(); got[0] != tk || !ok || binary.LittleEndian.Uint64(v) != 7 {
		t.Fatalf("Poll delivered %d tickets, the first for key %d (value %x): want the Get of key 7", len(got), got[0].Key(), v)
	}
	cl.Poll(0)                                                 // hands back what the last Poll delivered, if it may
	time.Sleep(time.Until(start.Add(1200 * time.Millisecond))) // the resend timer fires
	tk2, err := cl.SubmitGet(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tk2 == tk {
		t.Fatal("the ticket a Busy answer left a resend timer on was handed to a new request")
	}
	if err := tk2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if v, ok := tk2.Value(); !ok || binary.LittleEndian.Uint64(v) != 8 {
		t.Fatalf("Get of key 8: %x, found=%v", v, ok)
	}
}

// shedOnceServer sheds the first request it reads with statusBusy and
// hangs up; on every later connection it answers each Get with the key
// as its 8-byte value.
func shedOnceServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for first := true; ; first = false {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn, first bool) {
				defer c.Close()
				br, bw, ok := fakeHandshake(c)
				for ok {
					payload, err := readFrame(br)
					if err != nil {
						return
					}
					q, err := decodeRequest(payload)
					if err != nil {
						return
					}
					rs := response{id: q.id, status: statusOK, value: binary.LittleEndian.AppendUint64(nil, q.key)}
					if first {
						rs = response{id: q.id, status: statusBusy}
					}
					ok = writeFrame(bw, encodeResponse(rs)) == nil && bw.Flush() == nil && !first
				}
			}(c, first)
		}
	}()
	return lis.Addr().String()
}

// fakeHandshake plays a server's side of the handshake on c: the
// handshake frame out, the hello in.
func fakeHandshake(c net.Conn) (*bufio.Reader, *bufio.Writer, bool) {
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	var hs []byte
	hs = binary.LittleEndian.AppendUint64(hs, wireMagic)
	hs = binary.LittleEndian.AppendUint32(hs, 1)
	hs = binary.LittleEndian.AppendUint64(hs, 0xFAFE) // server identity
	if writeFrame(bw, hs) != nil || bw.Flush() != nil {
		return nil, nil, false
	}
	_, err := readFrame(br) // hello
	return br, bw, err == nil
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
		br, bw, ok := fakeHandshake(c)
		if !ok {
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
// the count with one. And an answer costs the client nothing of its own:
// the reader reads every frame into one buffer it keeps, and copies a
// value or pairs into the ticket's buffer, which the ticket keeps across
// reuse. Every ticket is reused, wake channel and all, once its reaper is
// done with it. So a sync Put allocates nothing and a sync Get only the
// copy of the value it hands its caller: budgets 0 and 1 (AllocsPerRun
// rounds down), where a ticket per call measured 2 and 3. A pipelined Put
// or Get reaped by Poll measures 0, its ticket going back at the next Poll
// and Poll reusing its result slice; a ticket per Submit measured 1.0, and
// a frame per Get answer 1.0, which their budgets fail. A 16-pair Scan
// measures 2, the caller's pairs and one buffer for their values; a frame,
// a decoded pair list and its copy, and a pair slice and walk closure per
// scan on the server measured 6.
func TestClientPathBudget(t *testing.T) {
	const window, putBudget, scanBudget = 32, 0, 2
	getBudget, pipePutBudget, pipeGetBudget := 1.0, 0.25, 0.25
	if raceDetector {
		// sync.Pool drops buffers, the server's included: a Get measures
		// 2, a pipelined Put 0.72–0.81 (one pooled buffer on the server)
		// and a pipelined Get 1.44 (two).
		getBudget, pipePutBudget, pipeGetBudget = 2, 1, 2
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
		check := func(what string, n, budget float64) {
			t.Logf("%s: %.3f allocs/op", what, n)
			if n > budget {
				t.Errorf("%s: %.3f allocs/op, budget %v", what, n, budget)
			}
		}
		check("sync Put", testing.AllocsPerRun(300, func() {
			key++
			if err := cl.Put(key%128, value); err != nil {
				t.Fatal(err)
			}
		}), putBudget)
		check("sync Get", testing.AllocsPerRun(300, func() {
			key++
			if _, _, err := cl.Get(key % 128); err != nil {
				t.Fatal(err)
			}
		}), getBudget)
		// A Scan needs an ordered index, so it has a server of its own. Its
		// reply carries 16 pairs, which the caller gets in a slice of its
		// own over one buffer of its own; the server's pair slice is pooled.
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
		n := testing.AllocsPerRun(300, func() {
			key++
			lo := key % 112
			if pairs, err := sc.Scan(lo, lo+15, 16); err != nil || len(pairs) != 16 {
				t.Fatalf("scan from %d: %d pairs, err=%v", lo, len(pairs), err)
			}
		})
		if !raceDetector { // one pooled buffer per pair: see raceDetector
			check("sync Scan of 16 pairs", n, scanBudget)
		}
		// A closed loop through Submit and Poll, the way a load generator
		// drives the client: a run submits a full window and reaps what is
		// done, and what it leaves in flight the next run reaps. Each row
		// has a client of its own, whose spare tickets only Poll refills.
		pipelined := func(what string, budget float64, submit func(*Client, uint64) (*Ticket, error), read func(*Ticket)) {
			pc, err := DialOptions(addr, Options{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			out := make(inFlight, 0, window)
			run := func() {
				for i := 0; i < window; i++ {
					key++
					tk, err := submit(pc, key%128)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, tk)
					out.reap(t, pc, read)
				}
			}
			for i := 0; i < 20; i++ {
				run() // a fresh client's tables, and its session's on the server, grow to size
			}
			n := testing.AllocsPerRun(50, run)
			out.drain(t)
			check("pipelined "+what+" reaped by Poll", n/window, budget)
		}
		pipelined("Put", pipePutBudget, func(pc *Client, k uint64) (*Ticket, error) { return pc.SubmitPut(ctx, k, value) }, nil)
		pipelined("Get", pipeGetBudget, func(pc *Client, k uint64) (*Ticket, error) { return pc.SubmitGet(ctx, k) }, func(tk *Ticket) {
			if v, ok := tk.Value(); !ok || len(v) != len(value) {
				t.Fatalf("pipelined Get of key %d: %d bytes, found=%v", tk.Key(), len(v), ok)
			}
		})
	})
}
