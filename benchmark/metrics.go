package main

import (
	"encoding/binary"
	"sort"

	"flatstore/internal/stats"
)

// metricDef names one metric and its unit. The two tables below are the
// program's half of the contract in ../BENCHMARK.json (bench_test.go
// holds them equal); README.md says where each number comes from.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the served store sees. Every one is defined,
// and non-zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p95_us", "us"},
	{"pm_write_amp", "B/B"},
	{"space_amp", "B/B"},
	{"allocs_per_op", "1/op"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is one block per package of the repository, measured from
// outside: public counters read before and after a window, and spans
// around calls into public functions. A metric that does not apply to a
// workload (tier.* without a tier, get latencies on a put-only mix) reads 0.
var perLayer = []metricDef{
	// What the load goroutine saw, split by operation.
	{"client.put_p50_us", "us"}, {"client.put_p99_us", "us"}, {"client.put_p999_us", "us"},
	{"client.get_p50_us", "us"}, {"client.get_p99_us", "us"}, {"client.get_p999_us", "us"},
	{"client.scan_p50_us", "us"}, {"client.op_p99_us", "us"}, {"client.failed_share", "share"},

	{"tcp.rtt_us_mean_d1", "us"}, {"tcp.transport_us_mean_d1", "us"}, {"tcp.transport_share_d1", "share"},
	{"tcp.self_us_mean_d1", "us"}, {"tcp.client_submit_us_mean", "us"}, {"tcp.resp_per_flush", "1/flush"},
	{"tcp.frames_coalesced_per_op", "1/op"}, {"tcp.inflight_peak", "count"}, {"tcp.shed", "count"},
	{"tcp.dedup_hits", "count"}, {"tcp.bad_frames", "count"},

	{"rpc.ring_us_mean_d1", "us"}, {"rpc.delegation_share", "share"}, {"rpc.mmio_per_op", "1/op"},
	{"rpc.dropped", "count"},

	{"core.put_resid_us_p50", "us"}, {"core.put_resid_us_p99", "us"},
	{"core.get_resid_us_p50", "us"}, {"core.get_resid_us_p99", "us"},
	{"core.wait_us_mean_d1", "us"}, {"core.submit_ns", "ns"}, {"core.complete_ns", "ns"},
	{"core.get_ns", "ns"}, {"core.respond_ns", "ns"}, {"core.op_errors", "count"},
	{"core.gc_chunks_cleaned", "count"}, {"core.gc_relocated_share", "share"},
	{"core.recover_s", "s"}, {"core.recover_keys_per_s", "1/s"}, {"core.recover_clean_s", "s"},

	{"batch.ops_per_batch_mean", "1/batch"}, {"batch.stolen_share", "share"},
	{"batch.followed_share", "share"}, {"batch.bytes_per_batch_p50", "B"}, {"batch.lead_ns", "ns"},

	{"oplog.bytes_per_put", "B/op"}, {"oplog.flush_units_per_put", "1/op"},
	{"oplog.append_ns_b1", "ns"}, {"oplog.append_ns_b8", "ns"},
	{"oplog.flush_units_per_entry_b1", "1/entry"}, {"oplog.flush_units_per_entry_b8", "1/entry"},

	{"pmem.flushes_per_put", "1/op"}, {"pmem.fences_per_put", "1/op"}, {"pmem.lines_per_put", "1/op"},
	{"pmem.blocks_per_put", "1/op"}, {"pmem.rnd_block_share", "share"}, {"pmem.sameline_per_kput", "1/kop"},
	{"pmem.media_bytes_per_put", "B/op"}, {"pmem.model_ns_per_put", "ns"},
	{"pmem.flushes_per_put_sync", "1/op"}, {"pmem.fences_per_put_sync", "1/op"},
	{"pmem.blocks_per_put_sync", "1/op"},

	{"alloc.free_chunks_end", "count"}, {"alloc.class_fill", "share"}, {"alloc.class_chunks_end", "count"},
	{"alloc.alloc_free_ns", "ns"},

	{"record.persist_ns", "ns"},

	{"index.hash_get_ns", "ns"}, {"index.tree_get_ns", "ns"}, {"index.tree_scan16_ns", "ns"},

	{"tier.cold_get_share", "share"}, {"tier.reads_per_cold_get", "1/op"}, {"tier.promote_share", "share"},
	{"tier.bloom_filtered", "count"}, {"tier.demoted", "count"}, {"tier.segments_end", "count"},
	{"tier.bytes_mb", "MiB"}, {"tier.dead_share", "share"}, {"tier.compactions", "count"},
	{"tier.corrupt_reads", "count"}, {"tier.written_mb", "MiB"}, {"tier.get_us_mean", "us"},

	{"bufpool.heap_bytes_per_op", "B/op"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"go.cpu_us_per_op", "us/op"},

	{"workload.gen_ns_per_op", "ns"}, {"workload.client_busy_share", "share"},

	// The host, not the repository: a bare loopback echo, to tell a slow
	// hour on a shared machine from a slow commit.
	{"host.tcp_echo_us_p50", "us"},

	{"trace.overhead_pct", "%"}, {"trace.ladder_accounted_share", "share"},
}

// sample is one reported number. Slices holds the per-slice values a
// median was taken over, so -compare can tell a difference from noise.
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Slices  []float64 `json:"slices,omitempty"`
}

// metricSet collects values by name while a run is in progress; report
// turns it into the full, ordered list a table of definitions asks for.
type metricSet map[string]*sample

func (m metricSet) set(name string, v float64) { m[name] = &sample{Value: v, Samples: 1} }

// setMedian reports the median of per-slice values.
func (m metricSet) setMedian(name string, slices []float64) {
	m[name] = &sample{Value: median(slices), Samples: len(slices), Slices: slices}
}

// setMin reports the smallest of repeated timings of one deterministic
// computation: whatever disturbs such a timing only ever adds to it.
func (m metricSet) setMin(name string, times []float64) {
	v := times[0]
	for _, t := range times {
		v = min(v, t)
	}
	m[name] = &sample{Value: v, Samples: len(times), Slices: times}
}

// report returns one sample per definition, units filled in, absent ones 0.
func (m metricSet) report(defs []metricDef) map[string]*sample {
	out := make(map[string]*sample, len(defs))
	for _, d := range defs {
		s := m[d.Name]
		if s == nil {
			s = &sample{}
		}
		s.Unit = d.Unit
		out[d.Name] = s
	}
	return out
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no values. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it; 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histCells decodes a histogram through its documented exchange format
// (stats.AppendBinary): the cells are not otherwise readable from outside.
func histCells(h *stats.Histogram) (cells [64][16]uint64) {
	b := h.AppendBinary(nil)
	n := int(binary.LittleEndian.Uint32(b[32:]))
	for i, pos := 0, 36; i < n; i, pos = i+1, pos+10 {
		c := binary.LittleEndian.Uint16(b[pos:])
		cells[c/16][c%16] = binary.LittleEndian.Uint64(b[pos+2:])
	}
	return cells
}

// histDelta is the histogram of the samples recorded between two
// snapshots of one cumulative obs histogram. Min is not recoverable and
// reads 0; Max is the later snapshot's.
func histDelta(after, before *stats.Histogram) *stats.Histogram {
	a, b := histCells(after), histCells(before)
	for i := range a {
		for j := range a[i] {
			a[i][j] -= b[i][j]
		}
	}
	return stats.Restore(&a, after.Count()-before.Count(), stats.Sum(after)-stats.Sum(before), 0, after.Max())
}
