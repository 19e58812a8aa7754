package netfault_test

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/fault"
	"flatstore/internal/histcheck"
	"flatstore/internal/netfault"
	"flatstore/internal/tcp"
)

// TestChaosSoakNoLostAckedWrites is the network-path analogue of the
// crash-point sweeps in internal/fault: a multi-client workload runs
// through a fault-injecting proxy that corrupts, resets, delays, and
// partially delivers frames, and every op — a write whose call errored is
// maybe-applied — joins one history. The client's retry/dedup machinery
// must absorb every injected fault; every Get must be explained by the
// history; and after the stack winds down the store is power-cut and the
// recovered state, whatever the faults left of the maybe-applied writes,
// is audited against the same history by the internal/fault checker.
//
// Specifically this asserts, under -race:
//   - no acked write is lost and no write is applied twice (a duplicate
//     or reordered replay would leave a key at a value already
//     superseded, which the history rejects, live and after the crash);
//   - a corrupted frame surfaces as a CRC connection error, never a
//     mis-decoded op (a mis-decode would corrupt some key's value or
//     resurrect a deleted key — same detectors — and the server's
//     BadFrames counter must match the injector's corruption count);
//   - the whole stack winds down without goroutine leaks.
func TestChaosSoakNoLostAckedWrites(t *testing.T) {
	const (
		clients = 4
		ops     = 250
		span    = 64 // keys per client: overwrites and deletes recur
	)
	baseGoroutines := runtime.NumGoroutine()

	cfg := core.Config{Cores: 4, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	srv := tcp.NewServer(st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)

	in := netfault.NewInjector(netfault.Config{
		Seed:        1,
		CorruptProb: 0.01,
		ResetProb:   0.01,
		PartialProb: 0.01,
		DelayProb:   0.02,
		DelayMax:    2 * time.Millisecond,
	})
	px, err := netfault.NewProxy(lis.Addr().String(), in)
	if err != nil {
		t.Fatal(err)
	}

	opts := tcp.Options{
		DialTimeout:    2 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    20,
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
	}

	// chaosValue makes every written value unique and self-describing, so
	// a duplicate-applied or reordered replay leaves a value the history
	// rejects. Sizes straddle the 256 B inline threshold so both inline
	// entries and out-of-place records cross the wire.
	chaosValue := func(c int, key uint64, seq int) []byte {
		v := fmt.Sprintf("c%d-k%d-s%d|", c, key, seq)
		if seq%5 == 0 {
			return append([]byte(v), make([]byte, 400)...)
		}
		return []byte(v)
	}

	h := histcheck.New(nil)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := tcp.DialOptions(px.Addr(), opts)
			if err != nil {
				t.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer cl.Close()
			for i := 0; i < ops; i++ {
				key := uint64(c*1000 + i*13%span)
				switch i % 4 {
				case 0, 1: // 50% puts
					v := chaosValue(c, key, i)
					o := h.Put(key, v)
					o.End(cl.Put(key, v))
				case 2: // 25% deletes; one that found nothing wrote absence all the same
					o := h.Delete(key)
					_, err := cl.Delete(key)
					o.End(err)
				case 3: // 25% gets
					o := h.Read(key)
					if got, ok, err := cl.Get(key); err == nil {
						o.Saw(got, ok) // a failed read observed nothing
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Let the dust settle: faults off, in-flight server work drained.
	in.SetEnabled(false)
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().InFlight > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("server in-flight count stuck at %d", srv.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}

	// The fault mix must actually have exercised every injection kind,
	// and every corruption must have been caught by a CRC check (the
	// history check above proves none was mis-decoded into an op).
	fs := in.Stats()
	t.Logf("injected: %+v over %d segments; server: %+v", fs, fs.Segments, srv.Stats())
	if fs.Corruptions == 0 || fs.Resets == 0 || fs.Partials == 0 || fs.Delays == 0 {
		t.Fatalf("fault mix incomplete: %+v", fs)
	}
	if ss := srv.Stats(); ss.BadFrames == 0 {
		// Roughly half the corruptions hit the client→server direction;
		// each of those must have been rejected by the server's CRC.
		t.Fatalf("no corrupted frame was detected server-side: injector %+v, server %+v", fs, ss)
	}

	px.Close()
	srv.Close()
	st.Stop()

	// No goroutine leaks: everything the soak spawned must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > %d at start\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Durability half: simulate power loss and recover; the recovered state
	// must be one the history explains, and all engine invariants must hold.
	re, err := core.Open(core.Config{Mode: cfg.Mode, Arena: st.Arena().Crash()})
	if err != nil {
		t.Fatalf("recovery after chaos soak: %v", err)
	}
	h.Crash()
	if err := fault.Check(re, h); err != nil {
		t.Fatalf("post-crash invariant check: %v", err)
	}
}
