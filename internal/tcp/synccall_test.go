package tcp

import (
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
