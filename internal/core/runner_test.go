package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// stopBound is how long Stop may take. A napping participant reaches its
// stop check within one nap (≥ 1 ms when every goroutine sleeps) and a
// busy one within one step; the bound leaves room for a loaded one-CPU
// host under the race detector.
const stopBound = 500 * time.Millisecond

func timedStop(t *testing.T, r *core.Runner) {
	t.Helper()
	start := time.Now()
	r.Stop()
	if d := time.Since(start); d > stopBound {
		t.Fatalf("Stop took %v, bound %v", d, stopBound)
	}
}

func TestRunnerStopWhileNapping(t *testing.T) {
	r := core.NewRunner()
	var steps atomic.Int64
	for i := 0; i < 4; i++ {
		r.Poll(core.Participant{Step: func() bool { steps.Add(1); return false }})
	}
	// Well past idleSpins idle steps each: every participant naps.
	time.Sleep(50 * time.Millisecond)
	timedStop(t, r)
	n := steps.Load()
	time.Sleep(10 * time.Millisecond)
	if m := steps.Load(); m != n {
		t.Fatalf("%d steps after Stop returned", m-n)
	}
}

func TestRunnerStopWhileBusy(t *testing.T) {
	r := core.NewRunner()
	var busy atomic.Int64
	r.Poll(core.Participant{Step: func() bool { busy.Add(1); return true }})
	r.Poll(core.Participant{Step: func() bool { return false }})
	for busy.Load() < 1000 {
		runtime.Gosched()
	}
	timedStop(t, r)
}

// TestRunnerOwnStop: a participant with a stop condition of its own runs
// until that condition holds, whatever the runner does, and then runs its
// exit hook once; Stop waits for it.
func TestRunnerOwnStop(t *testing.T) {
	r := core.NewRunner()
	var done, exits atomic.Int64
	r.Poll(core.Participant{
		Step: func() bool { return false },
		Stop: func() bool { return done.Load() != 0 },
		Exit: func() { exits.Add(1) },
	})
	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a participant's own stop condition was false")
	case <-time.After(20 * time.Millisecond):
	}
	done.Store(1)
	select {
	case <-stopped:
	case <-time.After(stopBound):
		t.Fatalf("Stop still waiting %v after the stop condition held", stopBound)
	}
	if n := exits.Load(); n != 1 {
		t.Fatalf("exit ran %d times, want 1", n)
	}
}

func TestRunnerPeriodic(t *testing.T) {
	const period = 5 * time.Millisecond
	r := core.NewRunner()
	var runs atomic.Int64
	start := time.Now()
	r.Every(period, func() { runs.Add(1) })
	time.Sleep(100 * time.Millisecond)
	r.Stop()
	elapsed := time.Since(start)
	n := runs.Load()
	// A ticker never fires early; on a loaded host it drops ticks.
	if max := int64(elapsed/period) + 1; n < 4 || n > max {
		t.Fatalf("%d runs in %v at a %v period, want 4..%d", n, elapsed, period, max)
	}
	time.Sleep(5 * period)
	if m := runs.Load(); m != n {
		t.Fatalf("%d runs after Stop", m-n)
	}
}

// TestStoreRunStopCyclesLeaveNoGoroutine: every participant Run starts,
// cores, cleaners, tier compactor and scrubber alike, is gone when Stop
// returns, cycle after cycle.
func TestStoreRunStopCyclesLeaveNoGoroutine(t *testing.T) {
	st, err := core.New(core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 16,
		GC: core.GCConfig{Enabled: true}, Tier: core.TierConfig{Dir: t.TempDir()},
		ScrubEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	settled := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 5; cycle++ {
		st.Run()
		cl := st.Connect()
		for k := uint64(0); k < 64; k++ {
			if err := cl.Put(k, []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		cl.Close()
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n <= base {
			t.Fatalf("cycle %d: %d goroutines while running, %d at rest", cycle, n, base)
		}
		st.Stop()
		if n := settled(base); n != base {
			t.Fatalf("cycle %d: %d goroutines after Stop, baseline %d", cycle, n, base)
		}
	}
}
