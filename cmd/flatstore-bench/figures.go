package main

import (
	"fmt"
	"os"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/sim"
	"flatstore/internal/stats"
	"flatstore/internal/workload"
)

// valueSweep is the x-axis of Figures 7 and 8.
var valueSweep = []int{8, 64, 128, 256, 512, 1024}

// flatCfg builds a FlatStore engine config for the harness.
func flatCfg(idx core.IndexKind, mode batch.Mode) core.Config {
	return core.Config{Index: idx, Mode: mode}
}

// groupFor follows the paper's deployment: cores are spread across the
// two NUMA domains and each socket forms one HB group ("arranging all
// the cores from the same socket into one group provides the optimal
// performance", §3.3).
func groupFor(cores int) int {
	if cores <= 13 {
		return cores
	}
	return (cores + 1) / 2
}

// runFlat runs one FlatStore point.
func runFlat(name string, p sim.Params, c core.Config, src sim.Source) sim.Result {
	if c.GroupSize == 0 {
		c.GroupSize = groupFor(p.Cores)
		if c.GroupSize == 0 {
			c.GroupSize = groupFor(cfg.cores)
		}
	}
	r, err := sim.FlatRun(name, p, c, src)
	check(err)
	return r
}

// runBase runs one baseline point.
func runBase(b sim.Baseline, p sim.Params, src sim.Source) sim.Result {
	r, err := sim.BaselineRun(b, p, src)
	check(err)
	return r
}

// ycsbPut builds the §5.1 microbenchmark source: 100 % Put, fixed value
// size, 8-byte keys over the 192 M key space.
func ycsbPut(theta float64, valueSize int) *workload.Generator {
	return workload.YCSB(1, cfg.keys, theta, valueSize, 0)
}

// ycsbGetPut is ycsbPut with a Get fraction.
func ycsbGetPut(theta float64, valueSize int, getRatio float64) *workload.Generator {
	return workload.YCSB(1, cfg.keys, theta, valueSize, getRatio)
}

// fig1a reproduces Figure 1(a): raw 64 B random writes vs FAST&FAIR Put
// throughput as threads grow.
func fig1a() {
	t := stats.NewTable("Figure 1(a): Optane 64B writes vs FAST&FAIR (Mops/s)",
		"threads", "optane-64B-writes", "FAST&FAIR-put")
	threads := []int{1, 2, 4, 8, 12, 16, 20}
	m := sim.DefaultModel()
	for _, th := range threads {
		raw := sim.RawWrites(th, 64, false, 40_000, m)
		p := params(cfg.ops / 2)
		p.Cores = th
		p.Clients = max(8*th, 32)
		p.Preload = 20_000
		p.ArenaChunks = 128
		ff := runBase(sim.FastFair, p, ycsbPut(0, 8))
		t.Row(th, raw.Mops, ff.Mops)
	}
	t.Fprint(os.Stdout)
}

// fig1b reproduces Figure 1(b): sequential vs random 256 B write
// bandwidth under growing concurrency.
func fig1b() {
	t := stats.NewTable("Figure 1(b): 256B write bandwidth (GB/s)",
		"threads", "seq", "rnd", "seq/rnd")
	m := sim.DefaultModel()
	for _, th := range []int{1, 2, 4, 8, 16, 24, 32, 40} {
		seq := sim.RawWrites(th, 256, true, 40_000, m)
		rnd := sim.RawWrites(th, 256, false, 40_000, m)
		t.Row(th, seq.GBps, rnd.GBps, seq.GBps/rnd.GBps)
	}
	t.Fprint(os.Stdout)
}

// fig1c reproduces Figure 1(c): single-flush latency per access pattern.
func fig1c() {
	seq, rnd, inplace := sim.WriteLatencies(sim.DefaultModel())
	t := stats.NewTable("Figure 1(c): write latency (ns)", "pattern", "latency")
	t.Row("Seq", seq)
	t.Row("Rnd", rnd)
	t.Row("In-place", inplace)
	t.Fprint(os.Stdout)
}

// table1 prints the compared index schemes and their structural
// parameters, as implemented.
func table1() {
	t := stats.NewTable("Table 1: compared index schemes", "type", "name", "description")
	t.Row("Hash", "CCEH", "three level (directory, segments, buckets), 4 slots/bucket, lazy split")
	t.Row("Hash", "Level-Hashing", "two-level (top/bottom), 4 slots/bucket, bottom-level rehash on resize")
	t.Row("Tree", "FPTree", "inner nodes in DRAM; PM leaves with bitmap+fingerprints, unsorted")
	t.Row("Tree", "FAST&FAIR", "all 512B nodes in PM; failure-atomic sorted shifts")
	t.Fprint(os.Stdout)
}

// fig7 reproduces Figure 7: FlatStore-H vs the hash baselines across
// value sizes, uniform and zipfian(0.99).
func fig7() {
	for _, theta := range []float64{0, 0.99} {
		name := "Uniform"
		if theta > 0 {
			name = "Skew"
		}
		t := stats.NewTable(fmt.Sprintf("Figure 7 (%s): Put throughput (Mops/s)", name),
			"value", "FlatStore-H", "CCEH", "Level-Hashing", "H/CCEH", "H/Level")
		for _, vs := range valueSweep {
			p := params(cfg.ops)
			p.Preload = 50_000
			p.PreloadValue = func(uint64) int { return vs }
			p.ArenaChunks = 256
			flat := runFlat("FlatStore-H", p, flatCfg(core.IndexHash, batch.ModePipelinedHB), ycsbPut(theta, vs))
			cc := runBase(sim.CCEH, p, ycsbPut(theta, vs))
			lv := runBase(sim.LevelHash, p, ycsbPut(theta, vs))
			t.Row(vs, flat.Mops, cc.Mops, lv.Mops, flat.Mops/cc.Mops, flat.Mops/lv.Mops)
		}
		t.Fprint(os.Stdout)
	}
}

// fig8 reproduces Figure 8: FlatStore-M (and FlatStore-FF) vs the tree
// baselines.
func fig8() {
	for _, theta := range []float64{0, 0.99} {
		name := "Uniform"
		if theta > 0 {
			name = "Skew"
		}
		t := stats.NewTable(fmt.Sprintf("Figure 8 (%s): Put throughput (Mops/s)", name),
			"value", "FlatStore-M", "FlatStore-FF", "FPTree", "FAST&FAIR", "M/FPTree", "M/FF")
		for _, vs := range valueSweep {
			p := params(cfg.ops)
			p.Preload = 50_000
			p.PreloadValue = func(uint64) int { return vs }
			p.ArenaChunks = 256
			flatM := runFlat("FlatStore-M", p, flatCfg(core.IndexMasstree, batch.ModePipelinedHB), ycsbPut(theta, vs))
			// FlatStore-FF: the same engine with a volatile FAST&FAIR
			// as index, modelled by its higher DRAM traversal cost.
			pFF := p
			pFF.Model = sim.DefaultModel()
			pFF.Model.TreeIdxNS = pFF.Model.TreeFFIdxNS
			flatFF := runFlat("FlatStore-FF", pFF, flatCfg(core.IndexMasstree, batch.ModePipelinedHB), ycsbPut(theta, vs))
			fp := runBase(sim.FPTree, p, ycsbPut(theta, vs))
			ff := runBase(sim.FastFair, p, ycsbPut(theta, vs))
			t.Row(vs, flatM.Mops, flatFF.Mops, fp.Mops, ff.Mops, flatM.Mops/fp.Mops, flatM.Mops/ff.Mops)
		}
		t.Fprint(os.Stdout)
	}
}

// fig9 reproduces Figure 9: the Facebook ETC production workload at
// 100:0, 50:50 and 5:95 Put:Get ratios, for both index families.
func fig9() {
	// 300k keys keep the 5% large class (values up to 64 KB) inside the
	// emulated arena; the zipfian hot-key mass is within a few percent
	// of the paper's 192 M key space (see EXPERIMENTS.md).
	const etcKeys = 300_000
	ratios := []struct {
		name string
		get  float64
	}{{"100:0", 0}, {"50:50", 0.5}, {"5:95", 0.95}}

	etcParams := func() sim.Params {
		p := params(cfg.ops)
		p.Preload = etcKeys
		gen := workload.NewETC(7, etcKeys, 0)
		p.PreloadValue = gen.SizeOf
		p.ArenaChunks = 320
		return p
	}

	t := stats.NewTable("Figure 9(a): ETC, tree-based (Mops/s)",
		"put:get", "FlatStore-M", "FPTree", "FAST&FAIR")
	for _, r := range ratios {
		p := etcParams()
		flatM := runFlat("FlatStore-M", p, flatCfg(core.IndexMasstree, batch.ModePipelinedHB), workload.NewETC(1, etcKeys, r.get))
		fp := runBase(sim.FPTree, p, workload.NewETC(1, etcKeys, r.get))
		ff := runBase(sim.FastFair, p, workload.NewETC(1, etcKeys, r.get))
		t.Row(r.name, flatM.Mops, fp.Mops, ff.Mops)
	}
	t.Fprint(os.Stdout)

	t = stats.NewTable("Figure 9(b): ETC, hash-based (Mops/s)",
		"put:get", "FlatStore-H", "CCEH", "Level-Hashing")
	for _, r := range ratios {
		p := etcParams()
		flatH := runFlat("FlatStore-H", p, flatCfg(core.IndexHash, batch.ModePipelinedHB), workload.NewETC(1, etcKeys, r.get))
		cc := runBase(sim.CCEH, p, workload.NewETC(1, etcKeys, r.get))
		lv := runBase(sim.LevelHash, p, workload.NewETC(1, etcKeys, r.get))
		t.Row(r.name, flatH.Mops, cc.Mops, lv.Mops)
	}
	t.Fprint(os.Stdout)
}

// fig10 reproduces Figure 10: multicore scalability, 64 B KVs, 100 % Put.
func fig10() {
	t := stats.NewTable("Figure 10: scalability with server cores (Mops/s, 64B KVs)",
		"cores", "H-uniform", "H-skew", "M-uniform", "M-skew")
	coresSweep := []int{1, 2, 4, 8, 12, 16, 20, 26}
	if cfg.quick {
		coresSweep = []int{1, 4, 8, 16, 26}
	}
	for _, n := range coresSweep {
		p := params(cfg.ops)
		p.Cores = n
		p.Preload = 50_000
		p.PreloadValue = func(uint64) int { return 64 }
		p.ArenaChunks = 256
		hu := runFlat("H", p, flatCfg(core.IndexHash, batch.ModePipelinedHB), ycsbPut(0, 64))
		hs := runFlat("H", p, flatCfg(core.IndexHash, batch.ModePipelinedHB), ycsbPut(0.99, 64))
		mu := runFlat("M", p, flatCfg(core.IndexMasstree, batch.ModePipelinedHB), ycsbPut(0, 64))
		ms := runFlat("M", p, flatCfg(core.IndexMasstree, batch.ModePipelinedHB), ycsbPut(0.99, 64))
		t.Row(n, hu.Mops, hs.Mops, mu.Mops, ms.Mops)
	}
	t.Fprint(os.Stdout)
}

// fig11 reproduces Figure 11: the optimization ablation — CCEH, Base
// (log structure without batching), +Naive HB, +Pipelined HB.
func fig11() {
	t := stats.NewTable("Figure 11: benefit of each optimization (Mops/s, uniform Put)",
		"value", "CCEH", "Base", "+NaiveHB", "+PipelinedHB")
	for _, vs := range []int{8, 64, 128} {
		p := params(cfg.ops)
		p.Preload = 50_000
		p.PreloadValue = func(uint64) int { return vs }
		p.ArenaChunks = 256
		cc := runBase(sim.CCEH, p, ycsbPut(0, vs))
		base := runFlat("Base", p, flatCfg(core.IndexHash, batch.ModeNone), ycsbPut(0, vs))
		naive := runFlat("NaiveHB", p, flatCfg(core.IndexHash, batch.ModeNaiveHB), ycsbPut(0, vs))
		pipe := runFlat("PipelinedHB", p, flatCfg(core.IndexHash, batch.ModePipelinedHB), ycsbPut(0, vs))
		t.Row(vs, cc.Mops, base.Mops, naive.Mops, pipe.Mops)
	}
	t.Fprint(os.Stdout)
}

// fig12 reproduces Figure 12: pipelined HB vs vertical batching across
// client counts and client batch sizes — the throughput/latency plane.
func fig12() {
	clientSweep := []int{1, 2, 4, 8, 16, 32, 64, 128, 288}
	if cfg.quick {
		clientSweep = []int{1, 8, 64, 288}
	}
	for _, cb := range []int{1, 4, 8} {
		t := stats.NewTable(fmt.Sprintf("Figure 12: client batchsize = %d", cb),
			"clients", "vert-Mops", "vert-p50us", "pipe-Mops", "pipe-p50us")
		for _, nc := range clientSweep {
			p := params(min(cfg.ops, max(4_000, nc*600)))
			p.Clients = nc
			p.ClientBatch = cb
			p.Preload = 50_000
			p.PreloadValue = func(uint64) int { return 64 }
			p.ArenaChunks = 256
			vert := runFlat("Vertical", p, flatCfg(core.IndexHash, batch.ModeVertical), ycsbPut(0, 64))
			pipe := runFlat("Pipelined", p, flatCfg(core.IndexHash, batch.ModePipelinedHB), ycsbPut(0, 64))
			t.Row(nc, vert.Mops, float64(vert.P50NS)/1000, pipe.Mops, float64(pipe.P50NS)/1000)
		}
		t.Fprint(os.Stdout)
	}
}

// fig13 reproduces Figure 13: throughput and cleaning rate over time with
// the log cleaner active (ETC, 50 % Get). The paper runs 10 minutes on a
// 1 TB device; this runs a time-scaled version on a small arena so the
// log wraps within the simulated window.
func fig13() {
	const etcKeys = 120_000
	ops := 700_000 // fixed: the log must wrap several chunks per core
	if cfg.quick {
		ops = 300_000
	}
	p := params(ops)
	p.Cores = 2
	p.Clients = min(cfg.clients, 64)
	p.Preload = etcKeys
	gen := workload.NewETC(7, etcKeys, 0)
	p.PreloadValue = gen.SizeOf
	p.ArenaChunks = 96
	p.GC = true
	p.WindowNS = 5_000_000
	c := flatCfg(core.IndexHash, batch.ModePipelinedHB)
	c.GC = core.GCConfig{DeadRatio: 0.5, MinFreeChunks: 8}
	r := runFlat("FlatStore-H+GC", p, c, workload.NewETC(1, etcKeys, 0.5))

	t := stats.NewTable("Figure 13: GC efficiency over time (5ms windows)",
		"window", "Mops", "chunks-cleaned")
	for i, w := range r.Timeline {
		if w.Ops == 0 && w.Cleaned == 0 {
			continue
		}
		t.Row(i, float64(w.Ops)/float64(p.WindowNS)*1e3, w.Cleaned)
	}
	t.Fprint(os.Stdout)
	fmt.Printf("overall: %.2f Mops with GC active\n\n", r.Mops)
}
