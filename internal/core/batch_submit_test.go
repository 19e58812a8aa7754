package core_test

import (
	"fmt"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/rpc"
)

// TestClientBatch drives mixed multi-op batches through the in-process
// client: positional responses must line up with their requests, and the
// engine must observe multi-op pending pools (batch sizes > 1).
func TestClientBatch(t *testing.T) {
	st, cl := newRunning(t, core.Config{Cores: 4, Mode: batch.ModePipelinedHB})

	const n = 256
	puts := make([]rpc.Request, n)
	for i := range puts {
		puts[i] = rpc.Request{Op: rpc.OpPut, Key: uint64(i), Value: []byte(fmt.Sprintf("bv%d", i))}
	}
	for i, r := range cl.Batch(puts) {
		if r.Status != rpc.StatusOK {
			t.Fatalf("put %d: status %d", i, r.Status)
		}
	}

	gets := make([]rpc.Request, n)
	for i := range gets {
		gets[i] = rpc.Request{Op: rpc.OpGet, Key: uint64(i)}
	}
	for i, r := range cl.Batch(gets) {
		if r.Status != rpc.StatusOK || string(r.Value) != fmt.Sprintf("bv%d", i) {
			t.Fatalf("get %d: status %d value %q", i, r.Status, r.Value)
		}
	}

	// Mixed batch: delete evens, overwrite odds, then verify both paths.
	mixed := make([]rpc.Request, n)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = rpc.Request{Op: rpc.OpDelete, Key: uint64(i)}
		} else {
			mixed[i] = rpc.Request{Op: rpc.OpPut, Key: uint64(i), Value: []byte("odd")}
		}
	}
	for i, r := range cl.Batch(mixed) {
		if r.Status != rpc.StatusOK {
			t.Fatalf("mixed %d: status %d", i, r.Status)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := cl.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && (!ok || string(v) != "odd") {
			t.Fatalf("overwritten key %d: %q ok=%v", i, v, ok)
		}
	}

	// The whole point of batch submission is multi-op seals: the batch-
	// size histogram must have seen batches bigger than one op.
	if s := st.Metrics(); s.BatchSize.Max() < 2 {
		t.Fatalf("max sealed batch = %d; batch submission fed no horizontal batching",
			s.BatchSize.Max())
	}
}

// TestCoreSubmitSealsTogether pins, at the Core level, what lets a
// multi-op frame seal as one batch: everything submitted before the next
// lead election is published to the pending pool, so one TryLead seals it
// all with one oplog write.
func TestCoreSubmitSealsTogether(t *testing.T) {
	st, err := core.New(core.Config{Cores: 1, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	// No Run(): the test steps the core by hand for determinism.
	defer st.Stop()
	cl := st.Connect()
	c := st.Core(0)

	const n = 8
	for i := 0; i < n; i++ {
		c.Submit(rpc.Request{ID: uint64(i + 1), Op: rpc.OpPut, Key: uint64(i), Value: []byte("x")}, cl.Raw().ID())
	}
	c.TryLead()
	if s := st.Metrics(); s.LeadBatches != 1 || s.BatchSize.Max() != n {
		t.Fatalf("lead batches = %d, max batch = %d; want 1 sealed batch of %d",
			s.LeadBatches, s.BatchSize.Max(), n)
	}
}
