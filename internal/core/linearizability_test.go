package core_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/netfault"
	"flatstore/internal/tcp"
)

// Linearizability harness: N concurrent clients hammer a small key space
// through the real TCP path (with netfault delay injection between them
// and the server). Every op joins one histcheck.History — a Put or Delete
// whose call errored is maybe-applied, a Delete that found nothing observed
// an absence, and a Scan reads every key of its range, returned or omitted
// — and a final quiescent read of every key closes the history, which must
// satisfy histcheck's per-key register rule.

func TestLinearizabilityUnderFaults(t *testing.T) {
	st, err := core.New(core.Config{
		Cores: 4, Mode: batch.ModePipelinedHB, Index: core.IndexMasstree,
		ArenaChunks: 64,
		GC:          core.GCConfig{Enabled: true, DeadRatio: 0.2},
		// Exercise slow-op tracing under the same load. The threshold is
		// deliberately below any real op latency so the "ops were traced"
		// assertion cannot depend on scheduler luck: on an idle machine
		// every pipeline pass can finish under tens of microseconds.
		SlowOpThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	defer st.Stop()
	runLinearizability(t, st)
}

// TestLinearizabilityWithTiering reruns the same history against
// a store whose arena is small enough — and whose demotion watermark is
// high enough — that the background cleaners keep pushing the checked
// keys to disk while clients race them: every Get/Scan may land on a PM
// entry, a cold segment record, or a just-promoted copy, and the merged
// history must still linearize.
func TestLinearizabilityWithTiering(t *testing.T) {
	st, err := core.New(core.Config{
		Cores: 4, Mode: batch.ModePipelinedHB, Index: core.IndexMasstree,
		ArenaChunks: 16,
		GC:          core.GCConfig{Enabled: true, DeadRatio: 0.2},
		Tier: core.TierConfig{
			Dir: t.TempDir(), DemoteFreeChunks: 1 << 10, CompactRatio: 0.3,
		},
		SlowOpThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	defer st.Stop()

	// Prefill churn on a disjoint key range closes chunks on every core so
	// the always-on demotion pressure has victims from the first moment.
	pre := st.Connect()
	filler := make([]byte, 250)
	rounds := 16
	if testing.Short() {
		rounds = 8
	}
	for r := 0; r < rounds; r++ {
		for k := uint64(100_000); k < 104_000; k++ {
			if err := pre.Put(k, filler); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Tier().Stats().Demoted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background cleaners demoted nothing before the run")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Background churn keeps the cleaners busy for the whole client run,
	// so demotions keep interleaving with the checked operations.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := pre.Put(100_000+i%4_000, filler); err != nil {
				t.Errorf("churn: %v", err)
				return
			}
		}
	}()

	runLinearizability(t, st)
	close(stop)
	<-done

	// Quiescent sweep of the churn range: live demoted keys must all read
	// back through the cold path.
	for k := uint64(100_000); k < 104_000; k++ {
		if _, ok, err := pre.Get(k); err != nil || !ok {
			t.Fatalf("churn key %d after run: ok=%v err=%v", k, ok, err)
		}
	}
	ts := st.Tier().Stats()
	if ts.Demoted == 0 || ts.Reads == 0 {
		t.Fatalf("run never touched the tier: %+v", ts)
	}
	t.Logf("tier during run: demoted %d, cold reads %d, promoted %d, compactions %d",
		ts.Demoted, ts.Reads, ts.Promoted, ts.Compactions)
}

// runLinearizability drives the concurrent clients against an already
// running store and checks the merged history.
func runLinearizability(t *testing.T, st *core.Store) {
	clients, opsPerClient := 6, 200
	if testing.Short() {
		clients, opsPerClient = 4, 80
	}
	const keys = 8

	srv := tcp.NewServer(st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	// Clients reach the server only through the fault proxy: every
	// segment in either direction may stall, so invocation windows
	// genuinely overlap and interleave.
	inj := netfault.NewInjector(netfault.Config{
		Seed: 42, DelayProb: 0.15, DelayMax: 2 * time.Millisecond,
	})
	proxy, err := netfault.NewProxy(lis.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	h := histcheck.New(nil)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := tcp.Dial(proxy.Addr())
			if err != nil {
				t.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer cl.Close()
			// Deterministic per-client op mix; clients are phase-shifted
			// so the same key sees different op types concurrently.
			for seq := 0; seq < opsPerClient; seq++ {
				key := uint64(1 + (seq*7+c*3)%keys)
				switch (seq + c) % 10 {
				case 0, 1, 2, 3: // Put
					v := fmt.Appendf(nil, "c%d-s%d", c, seq)
					o := h.Put(key, v)
					o.End(cl.Put(key, v))
				case 4, 5, 6: // Get
					o := h.Read(key)
					if val, ok, err := cl.Get(key); err == nil {
						o.Saw(val, ok) // a failed read observed nothing
					}
				case 7, 8: // Delete
					o := h.Delete(key)
					if ok, err := cl.Delete(key); err == nil && !ok {
						o.Saw(nil, false) // found nothing to delete: wrote nothing
					} else {
						o.End(err)
					}
				default: // Scan: every key of the range is read at once
					var rs [keys + 1]*histcheck.Op
					for k := uint64(1); k <= keys; k++ {
						rs[k] = h.Read(k)
					}
					pairs, err := cl.Scan(1, keys, 0)
					for _, p := range pairs {
						rs[p.Key].Saw(p.Value, true)
					}
					for k := uint64(1); k <= keys && err == nil; k++ {
						rs[k].Saw(nil, false) // the keys the scan omitted
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Quiescent tail: a final read of every key joins the history and
	// anchors the "no lost acked writes" end state.
	inj.SetEnabled(false)
	cl, err := tcp.Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := h.Audit(cl.Get); err != nil {
		t.Fatal(err)
	}
	t.Logf("history of %d clients × %d ops over %d keys checked (%d injected delays)",
		clients, opsPerClient, keys, inj.Stats().Delays)

	// The observability layer watched all of this happen.
	snap := st.Metrics()
	if snap.Ops[0].Count == 0 {
		t.Error("metrics saw no puts")
	}
	if len(snap.SlowOps) == 0 {
		t.Error("no slow ops traced during a faulted run")
	}
}
