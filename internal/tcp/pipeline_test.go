package tcp

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestPipelineSubmitWaitPoll drives the async API end to end over a real
// store: puts submitted ahead of their completions and reaped by Poll,
// then a get and deletes reaped by Wait.
func TestPipelineSubmitWaitPoll(t *testing.T) {
	_, _, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 16}, ServerOptions{})
	cl, err := DialOptions(addr, Options{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 32
	reaped := 0
	reap := func() {
		for _, done := range cl.Poll(0) {
			if done.Err() != nil {
				t.Fatalf("put %d failed: %v", done.Key(), done.Err())
			}
			reaped++
		}
	}
	for i := uint64(0); i < n; i++ {
		if _, err := cl.SubmitPut(ctx, i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("submit put %d: %v", i, err)
		}
		reap() // opportunistically, as a closed loop does
	}
	for deadline := time.Now().Add(10 * time.Second); reaped < n; reap() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d puts reaped", reaped, n)
		}
	}
	if got := cl.InFlight(); got != 0 {
		t.Fatalf("window not drained: %d slots still held", got)
	}

	gt, err := cl.SubmitGet(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if v, ok := gt.Value(); !ok || string(v) != "v7" {
		t.Fatalf("get 7: %q %v", v, ok)
	}

	dt, err := cl.SubmitDelete(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.Wait(ctx); err != nil || !dt.Existed() {
		t.Fatalf("delete 7: err=%v existed=%v", err, dt.Existed())
	}
	dt2, err := cl.SubmitDelete(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt2.Wait(ctx); err != nil || dt2.Existed() {
		t.Fatalf("second delete 7: err=%v existed=%v (want absent)", err, dt2.Existed())
	}
}

// stallServer handshakes, reads requests without answering until
// release is closed, then acks everything it has seen (statusOK) and
// every request after it at once.
func stallServer(t *testing.T, release chan struct{}) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
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
		var mu sync.Mutex
		var ids []uint64
		released := false
		ack := func() {
			for _, id := range ids {
				if writeFrame(bw, encodeResponse(response{id: id, status: statusOK})) != nil {
					return
				}
			}
			ids = ids[:0]
			bw.Flush()
		}
		go func() {
			<-release
			mu.Lock()
			defer mu.Unlock()
			released = true
			ack()
		}()
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
			if released {
				ack()
			}
			mu.Unlock()
		}
	}()
	return lis.Addr().String()
}

// TestPipelineWindowBounds pins the backpressure contract: with Window=2
// and a server that withholds completions, the third Submit must block
// until an outstanding request completes (here: fail its ctx), and
// completions must refill the window.
func TestPipelineWindowBounds(t *testing.T) {
	release := make(chan struct{})
	addr := stallServer(t, release)
	cl, err := DialOptions(addr, Options{Window: 2, MaxAttempts: 1, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	t1, err := cl.SubmitPut(ctx, 1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cl.SubmitPut(ctx, 2, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.InFlight(); got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}

	shortCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := cl.SubmitPut(shortCtx, 3, []byte("c")); err == nil {
		t.Fatal("third submit fit into a window of 2")
	} else if err != context.DeadlineExceeded {
		t.Fatalf("blocked submit returned %v, want ctx deadline", err)
	}

	close(release) // server acks the stalled window
	if err := t1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cl.InFlight(); got != 0 {
		t.Fatalf("window did not refill: %d slots held", got)
	}
}

// TestMultiOpsRoundTrip drives MultiPut/MultiGet/MultiDelete/WriteBatch
// through a real store and checks the server saw real multi-op frames.
func TestMultiOpsRoundTrip(t *testing.T) {
	_, srv, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 16}, ServerOptions{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 100
	pairs := make([]Pair, n)
	keys := make([]uint64, n)
	for i := range pairs {
		keys[i] = uint64(i)
		pairs[i] = Pair{Key: uint64(i), Value: []byte(fmt.Sprintf("mv%d", i))}
	}
	if err := cl.MultiPut(pairs); err != nil {
		t.Fatalf("multiput: %v", err)
	}
	if st := srv.Stats(); st.BatchFrames == 0 || st.BatchOps < n {
		t.Fatalf("server saw %d batch frames / %d batch ops, want >=1 / >=%d",
			st.BatchFrames, st.BatchOps, n)
	}

	res, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	for i := range res {
		if !res[i].OK || string(res[i].Value) != fmt.Sprintf("mv%d", i) {
			t.Fatalf("multiget %d: %q ok=%v err=%v", i, res[i].Value, res[i].OK, res[i].Err)
		}
	}

	// Mixed generic batch: overwrite evens, delete odds.
	ops := make([]BatchOp, n)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = BatchOp{Key: uint64(i), Value: []byte("even")}
		} else {
			ops[i] = BatchOp{Key: uint64(i), Delete: true}
		}
	}
	bres, err := cl.WriteBatch(ops)
	if err != nil {
		t.Fatalf("writebatch: %v", err)
	}
	for i := range bres {
		if bres[i].Err != nil {
			t.Fatalf("writebatch op %d: %v", i, bres[i].Err)
		}
		if i%2 == 1 && !bres[i].Existed {
			t.Fatalf("delete %d: key should have existed", i)
		}
	}

	existed, err := cl.MultiDelete(keys)
	if err != nil {
		t.Fatalf("multidelete: %v", err)
	}
	for i, ex := range existed {
		want := i%2 == 0 // odds already deleted by the mixed batch
		if ex != want {
			t.Fatalf("multidelete %d: existed=%v want %v", i, ex, want)
		}
	}
}

// TestPollDeliversExactlyOnce races blocked Waits against a spinning
// Poll over one window and counts deliveries per key: each completion
// goes to exactly one reaper. A stall server holds every answer until a
// Wait is blocked on every third ticket; then the answers come at once.
// Each blocked Wait must deliver its own ticket and Poll every other one:
// a ticket published to Poll under a blocked Wait would be delivered
// twice, and handed back for reuse at the next Poll under its waiter.
// Keys, not tickets, are counted, because Poll hands tickets back.
func TestPollDeliversExactlyOnce(t *testing.T) {
	const n = 192
	release := make(chan struct{})
	cl, err := DialOptions(stallServer(t, release), Options{Window: n, MaxAttempts: 1, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	var mu sync.Mutex
	delivered := make([]int, n)
	deliver := func(tk *Ticket) {
		if err := tk.Err(); err != nil {
			t.Errorf("put %d: %v", tk.Key(), err)
		}
		mu.Lock()
		delivered[tk.Key()]++
		mu.Unlock()
	}
	var waited []*Ticket
	for i := 0; i < n; i++ {
		tk, err := cl.SubmitPut(ctx, uint64(i), []byte("x"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%3 == 0 {
			waited = append(waited, tk)
		}
	}
	var waiters sync.WaitGroup
	for _, tk := range waited {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			tk.Wait(ctx)
			deliver(tk)
		}()
	}
	blocked := func() bool {
		cl.compMu.Lock()
		defer cl.compMu.Unlock()
		for _, tk := range waited {
			if tk.waiters == 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !blocked(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiters never blocked")
		}
	}

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			for _, tk := range cl.Poll(0) {
				deliver(tk)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	close(release)
	waiters.Wait()
	for deadline := time.Now().Add(10 * time.Second); cl.InFlight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("window never drained: %d in flight", cl.InFlight())
		}
	}
	close(stop)
	poller.Wait()
	for _, tk := range cl.Poll(0) { // what completed after the poller's last Poll
		deliver(tk)
	}
	for key, cnt := range delivered {
		if cnt != 1 {
			t.Errorf("put %d delivered %d times", key, cnt)
		}
	}
}
