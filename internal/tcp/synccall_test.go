package tcp

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/netfault"
)

// TestSyncCallHammer drives sync calls from several goroutines through one
// client while the link resets and the server sheds. A sync call's ticket
// goes back to the client once its caller has read the result, and the
// next call, on any goroutine, takes it; so a ticket handed back too early,
// or one still reachable from the client when it is handed back (pending,
// re-sent, timed for a Busy resend), shows up here as a Get that observed
// another call's answer or none. Every op is recorded, and the history
// and the final state are audited.
func TestSyncCallHammer(t *testing.T) {
	const (
		workers = 8
		keys    = 4   // per worker: each worker reads and writes only its own
		ops     = 160 // per worker, alternating Put and Get
	)
	_, srv, addr := startServerOpts(t,
		core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 64},
		ServerOptions{MaxConnInFlight: 2}) // eight callers on one connection: Busy sheds
	in := netfault.NewInjector(netfault.Config{
		Seed:      7,
		ResetProb: 0.01,
		DelayProb: 0.05,
		DelayMax:  time.Millisecond,
	})
	px, err := netfault.NewProxy(addr, in)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cl, err := DialOptions(px.Addr(), Options{
		DialTimeout: 2 * time.Second,
		MaxAttempts: 50, // ride out clustered resets and sheds
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	h := histcheck.New(nil)
	var failed sync.Map // key → error of a call that did not complete
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := uint64(w*keys + i/2%keys) // a Get reads the key just put
				if i%2 == 0 {
					v := []byte(fmt.Sprintf("w%d-i%d", w, i))
					op := h.Put(key, v)
					if op.End(cl.Put(key, v)) != nil {
						failed.Store(key, "put")
					}
				} else {
					op := h.Read(key)
					v, ok, err := cl.Get(key)
					if err != nil {
						failed.Store(key, "get")
						continue
					}
					op.Saw(v, ok)
				}
				if w == 0 && i%40 == 0 {
					in.Force(netfault.KindReset) // kills land while the other callers wait
				}
			}
		}(w)
	}
	wg.Wait()
	failed.Range(func(k, v any) bool {
		t.Logf("key %d: a %s did not complete within the retry budget", k, v)
		return true
	})
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	direct, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := h.Audit(direct.Get); err != nil {
		t.Fatal(err)
	}
	if in.Stats().Resets == 0 {
		t.Fatal("no connection was reset: the run did not test replays")
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("no request was shed: the run did not test Busy resends")
	}
}

// TestWindowedHammer is TestSyncCallHammer's windowed twin: several
// goroutines submit on one client while the link resets and the server
// sheds, and one reaper takes every completion with Poll. A ticket Poll
// returned goes back to the client at the next Poll, and the next Submit,
// on any goroutine, takes it; so a ticket handed back before its reaper
// read it, or while the client can still reach it, shows up here as a
// race, or as a Get that observed another op's answer or none. A polled
// Get's value lives in its ticket's buffer until that next Poll, and every
// value names its key and stamp (hammerValue, of a length that varies with
// the stamp): the reaper checks each one as Poll delivers it and again,
// byte for byte, just before the next Poll, so a buffer overwritten under
// a live value fails the run. Each key has one op in flight at a time,
// which the reaper finds by the ticket's key. Every op is recorded, and
// the history and the final state are audited.
func TestWindowedHammer(t *testing.T) {
	const (
		submitters = 4
		keys       = 8   // per submitter: each one reads and writes only its own
		ops        = 240 // per submitter, alternating Put and Get on each key
		window     = 16
	)
	_, srv, addr := startServerOpts(t,
		core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 64},
		ServerOptions{MaxConnInFlight: 8}) // a window of 16 on one connection: Busy sheds
	in := netfault.NewInjector(netfault.Config{
		Seed:      11,
		ResetProb: 0.01,
		DelayProb: 0.05,
		DelayMax:  time.Millisecond,
	})
	px, err := netfault.NewProxy(addr, in)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cl, err := DialOptions(px.Addr(), Options{
		Window:      window,
		DialTimeout: 2 * time.Second,
		MaxAttempts: 50, // ride out clustered resets and sheds
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// op[key] is the op in flight on key, set before its Submit; free[key]
	// holds a token while none is.
	h := histcheck.New(nil)
	var mu sync.Mutex
	op := make([]*histcheck.Op, submitters*keys)
	reads := make([]bool, len(op))
	free := make([]chan struct{}, len(op))
	for k := range free {
		free[k] = make(chan struct{}, 1)
		free[k] <- struct{}{}
	}
	submitted := 0
	var failed sync.Map // key → the op that did not complete

	deadline := time.Now().Add(60 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := uint64(w*keys + i%keys)
				select {
				case <-free[key]:
				case <-time.After(time.Until(deadline)):
					t.Errorf("key %d: its op was never reaped", key)
					return
				}
				read := i/keys%2 == 1 // a Get reads the key's Put before it
				v := hammerValue(key, uint64(i))
				mu.Lock()
				if read {
					op[key] = h.Read(key)
				} else {
					op[key] = h.Put(key, v)
				}
				reads[key] = read
				mu.Unlock()
				var err error
				if read {
					_, err = cl.SubmitGet(ctx, key)
				} else {
					_, err = cl.SubmitPut(ctx, key, v)
				}
				if err != nil {
					t.Errorf("key %d: submit: %v", key, err)
					return
				}
				mu.Lock()
				submitted++
				mu.Unlock()
				if w == 0 && i%40 == 0 {
					in.Force(netfault.KindReset) // kills land while the window is full
				}
			}
		}(w)
	}
	allSubmitted := make(chan struct{})
	go func() { wg.Wait(); close(allSubmitted) }()

	reaped := 0
	seen := map[*Ticket]bool{} // the distinct tickets Poll delivered
	type liveValue struct {
		key       uint64
		val, want []byte
	}
	var live []liveValue // the last Poll's Get values, with copies taken then
	for done := false; ; {
		if len(live) > 0 {
			time.Sleep(100 * time.Microsecond) // the reader lands other answers meanwhile
		}
		for _, lv := range live {
			if !bytes.Equal(lv.val, lv.want) {
				t.Fatalf("key %d: a polled Get's value changed before the next Poll: %x, was %x", lv.key, lv.val, lv.want)
			}
		}
		live = live[:0]
		batch := cl.Poll(0)
		if len(batch) == 0 {
			// A reaper that only yields keeps a one-CPU run queue busy, and
			// the netpoller then waits for sysmon's tick to see the socket.
			time.Sleep(100 * time.Microsecond)
		}
		for _, tk := range batch {
			key := tk.Key()
			mu.Lock()
			o, read := op[key], reads[key]
			op[key] = nil
			mu.Unlock()
			if o == nil {
				t.Fatalf("Poll delivered a ticket for key %d, which has no op in flight", key)
			}
			switch err := tk.Err(); {
			case read && err == nil:
				v, ok := tk.Value()
				if ok {
					if err := checkHammerValue(key, v); err != nil {
						t.Fatal(err)
					}
					live = append(live, liveValue{key, v, bytes.Clone(v)})
				}
				o.Saw(v, ok)
			case read:
				failed.Store(key, "get")
			case o.End(err) != nil:
				failed.Store(key, "put")
			}
			seen[tk] = true
			reaped++
			free[key] <- struct{}{}
		}
		if done {
			break
		}
		select {
		case <-allSubmitted:
			mu.Lock()
			done = reaped == submitted
			mu.Unlock()
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ops reaped; the rest never completed", reaped)
		}
	}
	failed.Range(func(k, v any) bool {
		t.Logf("key %d: a %s did not complete within the retry budget", k, v)
		return true
	})
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	direct, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := h.Audit(direct.Get); err != nil {
		t.Fatal(err)
	}
	if in.Stats().Resets == 0 {
		t.Fatal("no connection was reset: the run did not test replays")
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("no request was shed: the run did not test Busy resends")
	}
	t.Logf("%d ops over %d distinct tickets; %d resets, %d sheds", reaped, len(seen), in.Stats().Resets, srv.Stats().Shed)
	if len(seen)*2 > reaped {
		t.Fatalf("%d ops over %d distinct tickets: too few were reused to test reuse", reaped, len(seen))
	}
}

// hammerValue is the value of the Put with the given stamp to key: the
// pair (key, stamp), 16 bytes, repeated 1 to 8 times as the stamp says,
// so that answers of every length pass through one ticket's buffer.
func hammerValue(key, stamp uint64) []byte {
	var v []byte
	for n := stamp%8 + 1; n > 0; n-- {
		v = binary.LittleEndian.AppendUint64(v, key)
		v = binary.LittleEndian.AppendUint64(v, stamp)
	}
	return v
}

// checkHammerValue reports a Get's value of key that no Put wrote:
// hammerValue of key and some stamp, whole.
func checkHammerValue(key uint64, v []byte) error {
	if len(v) < 16 {
		return fmt.Errorf("key %d: value of %d bytes, no Put wrote it: %x", key, len(v), v)
	}
	if stamp := binary.LittleEndian.Uint64(v[8:]); !bytes.Equal(v, hammerValue(key, stamp)) {
		return fmt.Errorf("key %d: value %x is not the Put of stamp %d", key, v, stamp)
	}
	return nil
}
