package sim

import (
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/workload"
)

func flatParams(ops int) Params {
	return Params{Cores: 8, Clients: 8, ClientBatch: 8, Ops: ops, Preload: 10_000, ArenaChunks: 64}
}

func TestFlatRunBasic(t *testing.T) {
	src := workload.YCSB(1, 10_000, 0, 64, 0)
	r, err := FlatRun("flat", flatParams(20_000), core.Config{Mode: batch.ModePipelinedHB}, src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops < 20_000 || r.VirtualNS <= 0 || r.Mops <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.Batches == 0 {
		t.Error("no batches under pipelined HB")
	}
	if r.AvgBatch < 1.2 {
		t.Errorf("avg batch = %.2f; HB produced no amortization", r.AvgBatch)
	}
	if r.P99NS < r.P50NS || r.P50NS <= 0 {
		t.Errorf("latency percentiles inconsistent: p50=%d p99=%d", r.P50NS, r.P99NS)
	}
}

func TestFlatRunDeterministic(t *testing.T) {
	run := func() Result {
		src := workload.YCSB(7, 10_000, 0.99, 8, 0.5)
		r, err := FlatRun("flat", flatParams(10_000), core.Config{Mode: batch.ModePipelinedHB}, src)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.VirtualNS != b.VirtualNS || a.Batches != b.Batches {
		t.Errorf("non-deterministic: %d/%d vs %d/%d ns/batches",
			a.VirtualNS, a.Batches, b.VirtualNS, b.Batches)
	}
}

func TestBatchingBeatsBase(t *testing.T) {
	run := func(t *testing.T, clients int) (base, hb Result) {
		p := flatParams(20_000)
		p.Clients = clients
		src := func() Source { return workload.YCSB(1, 10_000, 0, 8, 0) }
		base, err := FlatRun("base", p, core.Config{Mode: batch.ModeNone}, src())
		if err != nil {
			t.Fatal(err)
		}
		hb, err = FlatRun("hb", p, core.Config{Mode: batch.ModePipelinedHB}, src())
		if err != nil {
			t.Fatal(err)
		}
		return base, hb
	}
	// One client per core: batches of 3.5 save too few persist points (an
	// append is one, with no tail pointer to amortise as well) to pay for
	// the group lock, and Base is 6 % ahead (EXPERIMENTS.md, known
	// deviation 3). What is pinned is that HB stays within 10 % of Base at
	// low load, not that it wins.
	t.Run("one_client_per_core", func(t *testing.T) {
		base, hb := run(t, 8)
		if hb.Mops < 0.90*base.Mops {
			t.Errorf("pipelined HB (%.2f Mops) more than 10%% behind Base (%.2f Mops)", hb.Mops, base.Mops)
		}
	})
	// Saturating load, as in Figure 11: batching wins (from 16 clients on).
	t.Run("saturated", func(t *testing.T) {
		base, hb := run(t, 96)
		if hb.Mops <= base.Mops {
			t.Errorf("pipelined HB (%.2f Mops) not faster than Base (%.2f Mops)", hb.Mops, base.Mops)
		}
	})
}

func TestBaselineRunBasic(t *testing.T) {
	for _, b := range []Baseline{CCEH, LevelHash, FastFair, FPTree} {
		t.Run(string(b), func(t *testing.T) {
			src := workload.YCSB(1, 10_000, 0, 64, 0.5)
			r, err := BaselineRun(b, flatParams(10_000), src)
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops != 10_000 || r.Mops <= 0 {
				t.Fatalf("result = %+v", r)
			}
		})
	}
}

func TestFlatBeatsBaselinesSmallValues(t *testing.T) {
	// The headline claim (Figure 7): FlatStore-H beats the persistent
	// hash baselines on small Puts, by a large factor.
	// Saturate the servers, as the paper's 12×24 client threads do.
	p := Params{Cores: 8, Clients: 96, ClientBatch: 8, Ops: 20_000, Preload: 10_000, ArenaChunks: 64}
	flat, err := FlatRun("FlatStore-H", p, core.Config{Mode: batch.ModePipelinedHB}, workload.YCSB(1, 192_000_000, 0, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	ccehR, err := BaselineRun(CCEH, p, workload.YCSB(1, 192_000_000, 0, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if flat.Mops < 1.5*ccehR.Mops {
		t.Errorf("FlatStore-H %.2f Mops vs CCEH %.2f Mops: expected ≥1.5×", flat.Mops, ccehR.Mops)
	}
	t.Logf("FlatStore-H %.1f Mops, CCEH %.1f Mops (%.1fx), avg batch %.1f",
		flat.Mops, ccehR.Mops, flat.Mops/ccehR.Mops, flat.AvgBatch)
}

func TestRawWritesShapes(t *testing.T) {
	m := DefaultModel()
	// Bandwidth converges for seq vs rnd at high thread counts (§2.3
	// observation 1).
	seqLow := RawWrites(2, 256, true, 20_000, m)
	rndLow := RawWrites(2, 256, false, 20_000, m)
	seqHi := RawWrites(32, 256, true, 40_000, m)
	rndHi := RawWrites(32, 256, false, 40_000, m)
	if seqLow.GBps <= rndLow.GBps {
		t.Errorf("low concurrency: seq %.2f ≤ rnd %.2f GB/s", seqLow.GBps, rndLow.GBps)
	}
	ratioHi := seqHi.GBps / rndHi.GBps
	if ratioHi > 1.25 {
		t.Errorf("high concurrency: seq/rnd = %.2f, should converge toward 1", ratioHi)
	}
	t.Logf("seq/rnd GB/s: low %.1f/%.1f  high %.1f/%.1f", seqLow.GBps, rndLow.GBps, seqHi.GBps, rndHi.GBps)
}

func TestWriteLatencies(t *testing.T) {
	seq, rnd, inplace := WriteLatencies(DefaultModel())
	if !(seq < rnd && rnd < inplace) {
		t.Errorf("latency ordering wrong: seq=%d rnd=%d inplace=%d", seq, rnd, inplace)
	}
	if inplace < 700 || inplace > 1100 {
		t.Errorf("in-place latency %d ns; paper reports ≈800-900 ns", inplace)
	}
}

func TestGCTimeline(t *testing.T) {
	p := Params{
		Cores: 2, Clients: 4, ClientBatch: 8, Ops: 150_000,
		Preload: 2_000, ArenaChunks: 16, GC: true, WindowNS: 1_000_000,
	}
	src := workload.YCSB(3, 2_000, 0.99, 200, 0.3)
	r, err := FlatRun("gc", p, core.Config{Mode: batch.ModePipelinedHB,
		GC: core.GCConfig{DeadRatio: 0.4, MinFreeChunks: 3}}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	cleaned := 0
	for _, w := range r.Timeline {
		cleaned += w.Cleaned
	}
	if cleaned == 0 {
		t.Error("GC never reclaimed a chunk in the timeline")
	}
}

func TestBaselineRunDeterministic(t *testing.T) {
	run := func() Result {
		r, err := BaselineRun(CCEH, flatParams(8_000), workload.YCSB(5, 50_000, 0.99, 64, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.VirtualNS != b.VirtualNS || a.PM != b.PM {
		t.Errorf("baseline sim non-deterministic: %d vs %d ns", a.VirtualNS, b.VirtualNS)
	}
}

func TestETCWorkloadThroughSim(t *testing.T) {
	const keys = 30_000
	p := Params{Cores: 4, Clients: 32, ClientBatch: 8, Ops: 20_000,
		Preload: keys, ArenaChunks: 96}
	gen := workload.NewETC(7, keys, 0)
	p.PreloadValue = gen.SizeOf
	r, err := FlatRun("etc", p, core.Config{Mode: batch.ModePipelinedHB}, workload.NewETC(1, keys, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Mops <= 0 || r.Ops < 20_000 {
		t.Fatalf("result = %+v", r)
	}
	// ETC's 5% large values must show up as media traffic well above
	// what tiny/small inline entries alone would produce.
	if r.PM.MediaBytes/uint64(r.Ops) < 200 {
		t.Errorf("media bytes/op = %d; large ETC values not reaching PM", r.PM.MediaBytes/uint64(r.Ops))
	}
}

func TestGroupSizeSweepHasSocketOptimum(t *testing.T) {
	mops := map[int]float64{}
	for _, gs := range []int{1, 13, 26} {
		p := Params{Cores: 26, Clients: 288, ClientBatch: 8, Ops: 25_000,
			Preload: 20_000, ArenaChunks: 128}
		c := core.Config{Mode: batch.ModePipelinedHB, GroupSize: gs}
		r, err := FlatRun("gs", p, c, workload.YCSB(1, 192_000_000, 0, 8, 0))
		if err != nil {
			t.Fatal(err)
		}
		mops[gs] = r.Mops
	}
	if !(mops[13] > mops[1]) {
		t.Errorf("socket-wide group (%.1f) not faster than vertical (%.1f)", mops[13], mops[1])
	}
	if mops[26] > mops[13]*1.05 {
		t.Errorf("cross-socket group (%.1f) should not beat per-socket (%.1f): §3.3", mops[26], mops[13])
	}
}
