package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/rpc"
)

func TestRuntimeCheckpointSeedsCrashRecovery(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	for i := uint64(0); i < 2000; i++ {
		cl.Put(i, []byte(fmt.Sprintf("v%d", i)))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ptr, n := st.CheckpointDesc(); ptr == 0 || n == 0 {
		t.Fatal("checkpoint descriptor missing")
	}
	// Writes after the checkpoint must win the replay.
	cl.Put(5, []byte("post-ckpt"))
	cl.Delete(7)
	for i := uint64(2000); i < 2500; i++ {
		cl.Put(i, []byte("new"))
	}

	re, cl2 := crashAndReopen(t, st, cfg)
	if re.Len() != 2499 {
		t.Errorf("recovered %d keys, want 2499", re.Len())
	}
	if v, ok, _ := cl2.Get(5); !ok || string(v) != "post-ckpt" {
		t.Errorf("post-checkpoint write lost: %q %v", v, ok)
	}
	if _, ok, _ := cl2.Get(7); ok {
		t.Error("post-checkpoint delete lost")
	}
	if v, ok, _ := cl2.Get(1500); !ok || string(v) != "v1500" {
		t.Errorf("checkpointed key lost: %q %v", v, ok)
	}
}

func TestCheckpointUnderLoad(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl0 := newRunning(t, cfg)
	for i := uint64(0); i < 500; i++ {
		cl0.Put(i, []byte("base"))
	}
	var wg sync.WaitGroup
	var written atomic.Uint64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := st.Connect()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cl.Put(i%3000, []byte(fmt.Sprintf("g%d", i)))
			written.Add(1)
		}
	}()
	for c := 0; c < 5; c++ {
		// Every checkpoint must see writes the one before did not.
		deadline := time.Now().Add(10 * time.Second)
		for from := written.Load(); written.Load() < from+50; {
			if time.Now().After(deadline) {
				t.Fatal("writer made no progress between checkpoints")
			}
			runtime.Gosched()
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The store must recover consistently from the live checkpoints.
	re, cl2 := crashAndReopen(t, st, cfg)
	n := re.Len()
	if n == 0 || n > 3000 {
		t.Fatalf("recovered %d keys", n)
	}
	if _, ok, _ := cl2.Get(0); !ok {
		t.Error("key 0 lost despite being written repeatedly")
	}
}

func TestCheckpointAfterGCNoStaleRefs(t *testing.T) {
	// Checkpoint, then let the cleaner relocate entries and free the
	// chunks the checkpoint references, then crash: the replay must
	// repair the stale references from the survivor copies.
	cfg := core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 24,
		GC: core.GCConfig{DeadRatio: 0.2}}
	st, cl := newRunning(t, cfg)
	val := make([]byte, 150)
	for k := 0; k < 200; k++ {
		cl.Put(uint64(k), val)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Generate garbage so early chunks (holding the checkpointed
	// entries) become GC victims.
	fillGarbage(t, cl, 200, 400, val)
	st.Stop()
	cleaner := st.NewCleaner(0)
	for i := 0; i < 100 && cleaner.CleanOnce() > 0; i++ {
	}
	if cleaner.Stats().Cleaned == 0 {
		t.Fatal("cleaner reclaimed nothing; test setup broken")
	}

	cfg2 := cfg
	cfg2.Arena = st.Arena().Crash()
	re, err := core.Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	cl2 := re.Connect()
	for k := 0; k < 200; k++ {
		v, ok, _ := cl2.Get(uint64(k))
		if !ok || len(v) != 150 {
			t.Fatalf("key %d lost or corrupt after ckpt+GC+crash", k)
		}
	}
}

func TestTornCheckpointFallsBackToReplay(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	for i := uint64(0); i < 500; i++ {
		cl.Put(i, []byte("x"))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Stop()
	// Corrupt the checkpoint body (simulating a torn write) and persist
	// the corruption so it survives the crash.
	arena := st.Arena()
	ptr := int(arena.ReadUint64(128))
	f := arena.NewFlusher()
	f.PersistUint64(ptr+16, ^uint64(0))
	crashed := arena.Crash()
	re, err := core.Open(core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32, Arena: crashed})
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	if re.Len() != 500 {
		t.Errorf("fallback replay recovered %d keys, want 500", re.Len())
	}
}

// TestMidFlightCrashAtomicity is the strongest crash test: clients pump
// asynchronous requests, the power fails at an arbitrary moment, and
// recovery must contain every acknowledged write exactly, while
// unacknowledged writes may be present (persisted but un-acked) or absent
// — never torn.
func TestMidFlightCrashAtomicity(t *testing.T) {
	for round := 0; round < 5; round++ {
		cfg := core.Config{Cores: 3, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
		st, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Run()
		cl := st.Connect().Raw()

		type meta struct {
			val  byte
			size int
		}
		sent := map[uint64]meta{}    // reqID → payload identity
		keyOf := map[uint64]uint64{} // reqID → key
		acked := map[uint64]meta{}   // key → last acked payload

		// Pump a few thousand async puts; stop mid-stream.
		target := 2000 + round*500
		issued := 0
		for issued < target {
			key := uint64(issued % 200)
			val := byte(issued)
			size := 1 + (issued*37)%500
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = val
			}
			if cl.Send(st.CoreOf(key), rpc.Request{ID: uint64(issued + 1), Op: rpc.OpPut, Key: key, Value: payload}) {
				sent[uint64(issued+1)] = meta{val, size}
				keyOf[uint64(issued+1)] = key
				issued++
			}
			for _, resp := range cl.Poll(16) {
				if resp.Status == rpc.StatusOK {
					acked[keyOf[resp.ID]] = sent[resp.ID]
				}
			}
		}
		// Crash without draining: some requests are mid-flight.
		st.Stop()
		crashed := st.Arena().Crash()
		cfg2 := cfg
		cfg2.Arena = crashed
		re, err := core.Open(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		re.Run()
		cl2 := re.Connect()
		for key, m := range acked {
			v, ok, _ := cl2.Get(key)
			if !ok {
				t.Fatalf("round %d: acked key %d lost", round, key)
			}
			// The recovered value must be SOME complete write of this
			// key (a later unacked write may have superseded the acked
			// one) — never torn.
			if len(v) == 0 {
				t.Fatalf("round %d: key %d empty", round, key)
			}
			first := v[0]
			for _, b := range v {
				if b != first {
					t.Fatalf("round %d: key %d torn value", round, key)
				}
			}
			_ = m
		}
		re.Stop()
	}
}
