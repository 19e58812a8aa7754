package core_test

import (
	"fmt"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/rpc"
)

func TestMultiGroupConfiguration(t *testing.T) {
	cfg := core.Config{Cores: 6, GroupSize: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	if got := len(st.Groups()); got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
	for i := uint64(0); i < 3000; i++ {
		if err := cl.Put(i, []byte("g")); err != nil {
			t.Fatal(err)
		}
	}
	var batches uint64
	for _, g := range st.Groups() {
		batches += g.Stats().Batches
	}
	if batches == 0 {
		t.Fatal("no batches in any group")
	}
	// Recovery across multiple groups/journal slots.
	re, cl2 := crashAndReopen(t, st, cfg)
	if re.Len() != 3000 {
		t.Fatalf("recovered %d keys", re.Len())
	}
	if _, ok, _ := cl2.Get(1234); !ok {
		t.Fatal("key lost in multi-group recovery")
	}
}

func TestMultiGroupGC(t *testing.T) {
	cfg := core.Config{Cores: 4, GroupSize: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32,
		GC: core.GCConfig{DeadRatio: 0.3}}
	st, cl := newRunning(t, cfg)
	val := make([]byte, 150)
	fillGarbage(t, cl, 300, 400, val)
	st.Stop()
	cleaned := 0
	for g := 0; g < 2; g++ {
		cleaner := st.NewCleaner(g)
		for i := 0; i < 50 && cleaner.CleanOnce() > 0; i++ {
		}
		cleaned += int(cleaner.Stats().Cleaned)
	}
	if cleaned == 0 {
		t.Fatal("no group's cleaner reclaimed anything")
	}
	st.Run()
	cl2 := st.Connect()
	for k := 0; k < 300; k++ {
		if _, ok, _ := cl2.Get(uint64(k)); !ok {
			t.Fatalf("key %d lost after multi-group GC", k)
		}
	}
}

// TestSameKeyPutsPipeline drives a core directly: several Puts to one key
// submitted before any completion must all be accepted (not parked),
// carry increasing versions, and complete in order.
func TestSameKeyPutsPipeline(t *testing.T) {
	st, err := core.New(core.Config{Cores: 1, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	c := st.Core(0)
	const n = 5
	for i := 0; i < n; i++ {
		c.Submit(rpc.Request{ID: uint64(i + 1), Op: rpc.OpPut, Key: 9, Value: []byte{byte('a' + i)}}, 0)
	}
	if got := c.PendingCount(); got != n {
		t.Fatalf("pending = %d, want %d (puts must pipeline, not park)", got, n)
	}
	if c.TryLead() != n {
		t.Fatal("lead did not collect all pipelined puts")
	}
	if c.DrainCompleted() != n {
		t.Fatal("not all puts completed")
	}
	resps := c.TakeResponses()
	if len(resps) != n {
		t.Fatalf("%d responses", len(resps))
	}
	for i, r := range resps {
		if r.Resp.ID != uint64(i+1) || r.Resp.Status != rpc.StatusOK {
			t.Fatalf("response %d: %+v", i, r.Resp)
		}
	}
	// Final state is the last write.
	ref, ver, ok := c.Index().Get(9)
	if !ok || ver != n {
		t.Fatalf("final version = %d, want %d", ver, n)
	}
	_ = ref
}

// TestParkedGetOrdering: put1, get, put2 on one key — the get must see
// put1's value, never put2's (per-key arrival order).
func TestParkedGetOrdering(t *testing.T) {
	st, err := core.New(core.Config{Cores: 1, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	c := st.Core(0)
	c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: 3, Value: []byte("first")}, 0)
	c.Submit(rpc.Request{ID: 2, Op: rpc.OpGet, Key: 3}, 0)
	c.Submit(rpc.Request{ID: 3, Op: rpc.OpPut, Key: 3, Value: []byte("second")}, 0)
	// Only put1 is in flight; the get parked, and put2 parked behind it.
	if got := c.PendingCount(); got != 1 {
		t.Fatalf("pending = %d, want 1 (put2 must park behind the get)", got)
	}
	c.TryLead()
	c.DrainCompleted() // completes put1, replays get (responds) and put2 (publishes)
	resps := c.TakeResponses()
	var getVal string
	for _, r := range resps {
		if r.Resp.ID == 2 {
			getVal = string(r.Resp.Value)
		}
	}
	if getVal != "first" {
		t.Fatalf("parked get saw %q, want %q", getVal, "first")
	}
	// put2 proceeds afterwards.
	c.TryLead()
	c.DrainCompleted()
	found := false
	for _, r := range c.TakeResponses() {
		if r.Resp.ID == 3 && r.Resp.Status == rpc.StatusOK {
			found = true
		}
	}
	if !found {
		t.Fatal("put2 never completed")
	}
}

// TestParkedDeleteOrdering: delete parked behind an in-flight put must
// observe it (delete succeeds), and a get after the delete misses.
func TestParkedDeleteOrdering(t *testing.T) {
	st, err := core.New(core.Config{Cores: 1, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	c := st.Core(0)
	c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: 4, Value: []byte("v")}, 0)
	c.Submit(rpc.Request{ID: 2, Op: rpc.OpDelete, Key: 4}, 0)
	c.Submit(rpc.Request{ID: 3, Op: rpc.OpGet, Key: 4}, 0)
	for i := 0; i < 4; i++ {
		c.TryLead()
		c.DrainCompleted()
	}
	byID := map[uint64]rpc.Response{}
	for _, r := range c.TakeResponses() {
		byID[r.Resp.ID] = r.Resp
	}
	if byID[2].Status != rpc.StatusOK {
		t.Fatalf("parked delete missed the preceding put: %+v", byID[2])
	}
	if byID[3].Status != rpc.StatusNotFound {
		t.Fatalf("get after delete found the key: %+v", byID[3])
	}
}

func TestVerticalModeEndToEnd(t *testing.T) {
	cfg := core.Config{Cores: 3, Mode: batch.ModeVertical, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	for i := uint64(0); i < 2000; i++ {
		if err := cl.Put(i, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Vertical = group size 1: as many groups as cores, nothing stolen.
	if len(st.Groups()) != 3 {
		t.Fatalf("groups = %d", len(st.Groups()))
	}
	var stolen uint64
	for _, g := range st.Groups() {
		stolen += g.Stats().Stolen
	}
	if stolen != 0 {
		t.Fatalf("vertical batching stole %d entries across cores", stolen)
	}
	re, cl2 := crashAndReopen(t, st, cfg)
	if re.Len() != 2000 {
		t.Fatalf("recovered %d", re.Len())
	}
	if v, ok, _ := cl2.Get(1999); !ok || string(v) != "1999" {
		t.Fatal("vertical-mode data lost")
	}
}

func TestStatsSnapshot(t *testing.T) {
	st, cl := newRunning(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	for i := uint64(0); i < 100; i++ {
		cl.Put(i, []byte("s"))
	}
	st.Stop()
	for i := 0; i < st.Cores(); i++ {
		st.Core(i).Flusher().FlushEvents()
	}
	s := st.Metrics()
	if s.Keys != 100 {
		t.Errorf("Keys = %d", s.Keys)
	}
	if s.PM.Fences == 0 || s.PM.Lines == 0 {
		t.Errorf("PM stats empty: %+v", s.PM)
	}
	if s.FreeChunks == 0 {
		t.Errorf("FreeChunks = %d", s.FreeChunks)
	}
	if len(s.Groups) != 1 {
		t.Errorf("groups = %d", len(s.Groups))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []core.Config{
		{Cores: 0},
		{Cores: core.MaxCores + 1},
		{Cores: 4, GroupSize: 5},
		{Cores: 4, InlineMax: 300},
		{Cores: 40, ArenaChunks: 10},
	}
	for i, cfg := range bad {
		if _, err := core.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAllocatorExhaustionReturnsError(t *testing.T) {
	// A tiny arena: value blocks run out long before the log does. The
	// engine must return server errors, not panic, and keep serving
	// reads afterwards.
	_, cl := newRunning(t, core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 4})
	big := make([]byte, 1<<20)
	var firstErr error
	okPuts := 0
	for i := uint64(0); i < 100; i++ {
		if err := cl.Put(i, big); err != nil {
			firstErr = err
			break
		}
		okPuts++
	}
	if firstErr == nil {
		t.Fatal("100 × 1 MB puts fit a 16 MB arena?")
	}
	if okPuts == 0 {
		t.Fatal("no put succeeded at all")
	}
	// Previously acknowledged data still reads back.
	v, ok, err := cl.Get(0)
	if err != nil || !ok || len(v) != 1<<20 {
		t.Fatalf("read after exhaustion: ok=%v err=%v len=%d", ok, err, len(v))
	}
	// Small (inline) writes may still work while log space remains.
	if err := cl.Put(1000, []byte("tiny")); err != nil {
		t.Logf("inline put after exhaustion also failing (log space gone): %v", err)
	}
}

func TestLogExhaustionFailsCleanly(t *testing.T) {
	// Fill the log itself (inline values, no GC) until chunk allocation
	// fails; the engine must degrade to errors, not corruption.
	_, cl := newRunning(t, core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 4})
	val := make([]byte, 256)
	var sawErr bool
	for i := uint64(0); i < 60_000; i++ {
		if err := cl.Put(i%500, val); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Skip("log never filled; arena larger than expected")
	}
	if _, ok, _ := cl.Get(0); !ok {
		t.Fatal("previously written key unreadable after log exhaustion")
	}
}
