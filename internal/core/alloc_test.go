package core_test

import (
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/bufpool"
	"flatstore/internal/core"
	"flatstore/internal/oplog"
	"flatstore/internal/rpc"
)

// Allocation budgets for the engine-only hot path (no transport, no
// goroutines): one core driven synchronously. The budgets are averages
// with slack for amortized growth (pending/outbox slices, index resizes,
// the odd GC emptying a pool) — the point is that the steady state is
// O(0) allocations, not that every single op is.

func newAllocStore(t *testing.T, tierDir string) *core.Store {
	t.Helper()
	st, err := core.New(core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 192,
		Tier: core.TierConfig{Dir: tierDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// hotPathStores runs a Put or Get budget over an untiered and a tiered
// store. The hot path must not pay for the cold tier's existence (the
// tier check is one nil test), so both rows hold the same budget, and the
// tiered row's working set stays in PM: it may not touch the tier.
func hotPathStores(t *testing.T, budget func(t *testing.T, st *core.Store)) {
	for _, row := range []struct{ name, tierDir string }{{"untiered", ""}, {"tiered", t.TempDir()}} {
		t.Run(row.name, func(t *testing.T) {
			st := newAllocStore(t, row.tierDir)
			budget(t, st)
			if tr := st.Tier(); tr != nil {
				if s := tr.Stats(); s.Reads != 0 || s.Demoted != 0 {
					t.Fatalf("hot-path ops touched the tier: %+v", s)
				}
			}
		})
	}
}

func TestAllocBudgetCoreInlinePut(t *testing.T) {
	hotPathStores(t, allocBudgetInlinePut)
}

func allocBudgetInlinePut(t *testing.T, st *core.Store) {
	c := st.Core(0)
	val := make([]byte, 64)
	// Warm the slot/buffer pools and the index before measuring. Two
	// passes: the second triggers each key's first overwrite, which grows
	// the registry map outside the window.
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < 2_048; k++ {
			c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: k, Value: val}, 0)
			c.TryLead()
			c.DrainCompleted()
			c.TakeResponses()
		}
	}
	i := uint64(0)
	n := testing.AllocsPerRun(2_000, func() {
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: i % 2_048, Value: val}, 0)
		c.TryLead()
		c.DrainCompleted()
		c.TakeResponses()
		i++
	})
	if n > 0.5 {
		t.Fatalf("inline Put: %v allocs/op, want ~0", n)
	}
}

// A key's first overwrite is when it enters the registry (its displaced
// entry is the first stale Put the tombstone guard must count). The
// registry holds its values, so that costs no heap object of its own:
// 10 000 first overwrites of distinct keys allocate only the registry's
// amortized growth. A registry of pointers pays one object each.
func TestAllocBudgetFirstOverwrite(t *testing.T) {
	const keys = 10_000
	st := newAllocStore(t, "")
	c := st.Core(0)
	val := make([]byte, 64)
	put := func(k uint64) {
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: k, Value: val}, 0)
		c.TryLead()
		c.DrainCompleted()
		c.TakeResponses()
	}
	// AllocsPerRun calls the function once before it measures.
	for k := uint64(0); k <= keys; k++ {
		put(k)
	}
	k := uint64(0)
	n := testing.AllocsPerRun(keys, func() {
		put(k)
		k++
	})
	if k != keys+1 {
		t.Fatalf("%d overwrites, want %d", k, keys+1)
	}
	if n > 0.1 {
		t.Fatalf("first overwrite: %v allocs/op, want ~0", n)
	}
}

func TestAllocBudgetCoreGet(t *testing.T) {
	hotPathStores(t, allocBudgetGet)
}

func allocBudgetGet(t *testing.T, st *core.Store) {
	c := st.Core(0)
	val := make([]byte, 64)
	for k := uint64(0); k < 2_048; k++ {
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: k, Value: val}, 0)
		c.TryLead()
		c.DrainCompleted()
		c.TakeResponses()
	}
	i := uint64(0)
	// A Get materializes its value as one pooled copy owned by the
	// poller; a well-behaved poller (the TCP writer, here the test)
	// recycles it after use, which is what keeps the steady state free.
	n := testing.AllocsPerRun(2_000, func() {
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpGet, Key: i % 2_048}, 0)
		out := c.TakeResponses()
		if len(out) != 1 || out[0].Resp.Status != rpc.StatusOK {
			t.Fatal("get miss")
		}
		bufpool.Put(out[0].Resp.Value)
		i++
	})
	if n > 0.5 {
		t.Fatalf("Get: %v allocs/op, want ~0", n)
	}
}

// The follower's write path shares the steps of the primary's (apply.go),
// so it shares the budget: a replicated batch of inline Puts over existing
// keys — version gate, one log append, index updates, stale accounting —
// allocates nothing once the keys' registry entries exist and the apply
// scratch has seen a batch of its size, however many ops it carries.
func TestAllocBudgetReplApplyBatch(t *testing.T) {
	st := newAllocStore(t, "")
	st.SetReplOwner(true)
	val := make([]byte, 64)
	ver := uint32(0)
	for _, size := range []int{1, 32, 1_024} {
		ops := make([]core.ReplOp, size)
		apply := func() {
			ver++
			for i := range ops {
				ops[i] = core.ReplOp{Op: oplog.OpPut, Key: uint64(i), Ver: ver, Val: val}
			}
			if err := st.ReplApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		apply()
		apply() // each key's first overwrite pays its registry entry
		n := testing.AllocsPerRun(64, apply)
		if _, got, _ := st.Core(st.CoreOf(0)).Index().Get(0); got != ver {
			t.Fatalf("key 0 is at version %d, want %d: the measured batches were gated away, not applied", got, ver)
		}
		if n > 0.5 {
			t.Fatalf("replicated batch of %d inline Puts: %v allocs/batch, want ~0", size, n)
		}
	}
}
