package core_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestStatsAndLifecycleRace hammers the paths the flatstore-server front
// end exercises concurrently: traffic on serving cores, a monitoring
// goroutine polling Metrics/Len, and Run/Stop cycling from another
// goroutine. Metrics reads index sizes under the per-core index locks and
// Run/Stop serialize on lifeMu, so the race detector must stay silent.
func TestStatsAndLifecycleRace(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 10,
		GC: core.GCConfig{Enabled: true, DeadRatio: 0.5}}
	st, _ := newRunning(t, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var puts atomic.Uint64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := st.Connect()
			defer cl.Close()
			val := make([]byte, 100)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Best-effort traffic: a Put submitted during a Stop window
				// simply completes when Run resumes.
				_ = cl.Put(uint64(w*1000+i%200), val)
				puts.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = st.Metrics()
			_ = st.Len()
		}
	}()

	// Each Stop/Run cycle, and the end of the test, waits for traffic to
	// have flowed through the running store — not for a timer.
	flow := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for from := puts.Load(); puts.Load() < from+n; {
			if time.Now().After(deadline) {
				t.Fatal("no traffic completed while the store was running")
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 5; i++ {
		st.Stop()
		st.Run()
		flow(50)
	}
	flow(250)
	close(stop)
	wg.Wait()

	if st.Metrics().Keys == 0 {
		t.Fatal("no keys visible after concurrent traffic")
	}
}
