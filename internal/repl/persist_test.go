package repl

import (
	"fmt"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/rpc"
)

// TestFollowerPersistsPerBatch counts persist points on both ends of one
// stream: a shipped batch costs the follower what it cost the primary — one
// flush and one fence for the log append whatever its size, one each for the
// replication slot, one per out-of-place record — and the follower's PM
// counters show it.
func TestFollowerPersistsPerBatch(t *testing.T) {
	const rounds, depth = 200, 32
	for _, vsize := range []int{100, 1000} {
		t.Run(fmt.Sprintf("%dB", vsize), func(t *testing.T) {
			p := startPrimary(t, nil)
			f := startFollower(t, p.n.ListenAddr(), nil)
			p0, f0 := p.st.Arena().Stats(), f.st.Arena().Stats()

			cl := p.st.Connect()
			reqs := make([]rpc.Request, depth)
			for r := 0; r < rounds; r++ {
				for i := range reqs {
					k := uint64(r*depth+i) % 2048
					reqs[i] = rpc.Request{Op: rpc.OpPut, Key: k, Value: seqValue(k, uint64(r), vsize)}
				}
				for _, resp := range cl.Batch(reqs) {
					if resp.Status != rpc.StatusOK {
						t.Fatalf("put refused: status %d", resp.Status)
					}
				}
			}
			cl.Close()
			waitPos(t, f, p.n.Pos())
			batches := p.n.Pos()
			if got := f.n.Snap().BatchesApplied; got != batches {
				t.Fatalf("follower applied %d batches of %d", got, batches)
			}
			// Stopping folds the cores' pending PM events into the totals.
			p.n.Close()
			f.n.Close()
			p.st.Stop()
			f.st.Stop()
			pd, fd := p.st.Arena().Stats().Sub(p0), f.st.Arena().Stats().Sub(f0)
			puts := float64(rounds * depth)
			t.Logf("%d puts in %d batches: primary %.3f flushes and %.3f fences per put, follower %.3f and %.3f",
				rounds*depth, batches, float64(pd.Flushes)/puts, float64(pd.Fences)/puts, float64(fd.Flushes)/puts, float64(fd.Fences)/puts)

			within := func(what string, follower, primary uint64) {
				if d := float64(follower) - float64(primary); d > 0.02*float64(primary) || d < -0.02*float64(primary) {
					t.Errorf("follower %s %d, primary %d: more than 2%% apart", what, follower, primary)
				}
			}
			within("flushes", fd.Flushes, pd.Flushes)
			within("fences", fd.Fences, pd.Fences)
			// The slot update accounts for one fence per batch; the batch's
			// own append must show as at least one more.
			if fd.Fences < 2*batches {
				t.Errorf("follower counted %d fences for %d applied batches: the applied batches are missing from its PM counters", fd.Fences, batches)
			}
			// The primary's side of the same sum: two persist points per
			// sealed batch (append, slot), one per out-of-place record, and a
			// handful for chunk headers and the witness at Stop.
			perBatch := 2 * batches
			if vsize > 256 {
				perBatch += rounds * depth
			}
			if pd.Fences < perBatch || pd.Fences > perBatch+32 {
				t.Errorf("primary counted %d fences for %d batches, want %d..%d", pd.Fences, batches, perBatch, perBatch+32)
			}
		})
	}
}

// captureAll is a node's live keys as CaptureReplSnapshot emits them.
func captureAll(t *testing.T, st *core.Store) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	err := st.CaptureReplSnapshot(func(key uint64, ver uint32, val []byte) error {
		out[key] = fmt.Sprintf("v%d:%x", ver, val)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFollowerCrashBetweenAppendAndSlot: a follower loses power after a
// batch's log append is durable and before its replication slot says so.
// Recovery replays the batch from the log, the slot still names the batch
// before it, the refetch delivers it again, and the version gate makes the
// second delivery a no-op: the follower converges on the primary's exact
// keys, versions and bytes.
func TestFollowerCrashBetweenAppendAndSlot(t *testing.T) {
	p := startPrimary(t, nil)
	f := startFollower(t, p.n.ListenAddr(), nil)
	cl := p.st.Connect()
	defer cl.Close()
	write := func(lo, hi uint64, gen uint64) {
		for k := lo; k < hi; k++ {
			size := 100
			if k%3 == 0 {
				size = 600 // out of place
			}
			if err := cl.Put(k, seqValue(k, gen, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 60, 1)
	if _, err := cl.Delete(7); err != nil {
		t.Fatal(err)
	}
	waitPos(t, f, p.n.Pos())
	applied := f.n.Pos()
	f.n.Close()

	// The primary moves on; the follower gets the next batch's append and
	// nothing more.
	write(30, 90, 2)
	p.n.mu.Lock()
	body, ok := p.n.hist.get(applied + 1)
	p.n.mu.Unlock()
	if !ok {
		t.Fatal("the primary's history lost the batch after the follower's position")
	}
	_, ops, _, err := decodeBatchBody(body, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.st.ReplApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	f.st.Stop()

	rst, err := core.Open(core.Config{Mode: batch.ModePipelinedHB, Arena: f.st.Arena().Crash()})
	if err != nil {
		t.Fatal(err)
	}
	if _, pos := rst.ReplState(); pos != applied {
		t.Fatalf("recovered slot names batch %d, want %d: the batch after it was appended, not recorded", pos, applied)
	}
	if _, ver, ok := rst.Core(rst.CoreOf(ops[0].Key)).Index().Get(ops[0].Key); !ok || ver != ops[0].Ver {
		t.Fatalf("the appended batch did not survive the crash (key %d at v%d, present %v; shipped v%d)", ops[0].Key, ver, ok, ops[0].Ver)
	}

	rn, err := NewFollower(Config{Store: rst, ListenAddr: "127.0.0.1:0", PrimaryAddr: p.n.ListenAddr()})
	if err != nil {
		t.Fatal(err)
	}
	rst.Run()
	if err := rn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rn.Close()
		rst.Stop()
	})
	waitPos(t, &testNode{st: rst, n: rn}, p.n.Pos())
	if got := rn.Snap().SnapshotsLoaded; got != 0 {
		t.Fatalf("the rejoin took %d snapshots, want a refetch from the slot", got)
	}
	if err := p.st.ReplQuiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	want, got := captureAll(t, p.st), captureAll(t, rst)
	if len(got) != len(want) {
		t.Fatalf("follower holds %d keys, primary %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d: follower %.40s, primary %.40s", k, got[k], w)
		}
	}
}
