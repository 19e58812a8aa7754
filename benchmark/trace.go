package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flatstore/internal/alloc"
	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/index"
	"flatstore/internal/index/hashidx"
	"flatstore/internal/index/masstree"
	"flatstore/internal/obs"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/record"
	"flatstore/internal/rpc"
	"flatstore/internal/stats"
	"flatstore/internal/tcp"
)

// span is one timed call into a layer, or one op from submit to reaped.
type span struct {
	name       string
	start, end int64 // ns since the tracer was made
	parent     int32 // index of the span that caused it; -1 for none
	op         uint64
}

// tracer keeps spans in memory; write puts them in a file when the run
// ends. A nil tracer records nothing, so the untraced loop pays one test.
type tracer struct {
	base      time.Time
	spans     []span
	snapshots []string // 1 Hz Server.Metrics lines, already JSON
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: int32(parent), op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil && i >= 0 {
		t.spans[i].end = int64(time.Since(t.base))
	}
}

// stat returns how many finished spans have the name and their total time.
func (t *tracer) stat(name string) (n int, total time.Duration) {
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name && s.end != 0 {
			n++
			total += time.Duration(s.end - s.start)
		}
	}
	return n, total
}

// net is stat less the cost of reading the clock twice per span, which is
// most of a span as short as the engine's steps.
func (t *tracer) net(name string) (n int, totalNs float64) {
	n, total := t.stat(name)
	return n, max(float64(total)-float64(n)*clockNs, 0)
}

// clockNs is what an empty span measures on this host.
var clockNs = func() float64 {
	d := make([]float64, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return median(d)
}()

// maxSpansWritten bounds the trace file; the metrics use every span.
const maxSpansWritten = 20_000

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(len(t.spans), maxSpansWritten)
	fmt.Fprintf(w, "{\"spans_recorded\": %d, \"spans_written\": %d, \"clock_ns\": %.0f,\n\"spans\": [\n", len(t.spans), n, clockNs)
	for i, s := range t.spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op_id\":%d}%s\n", s.name, s.start, s.end, s.parent, s.op, sep)
	}
	fmt.Fprint(w, "],\n\"server_metrics\": [\n")
	for i, s := range t.snapshots {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprint(w, s)
	}
	fmt.Fprint(w, "\n]}\n")
	return errors.Join(w.Flush(), f.Close())
}

// watchServer appends one line of Server.Metrics to the trace every
// second until the returned function is called.
func (t *tracer) watchServer(srv *tcp.Server) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				m := srv.Metrics()
				t.snapshots = append(t.snapshots, fmt.Sprintf(
					"{\"t_ns\":%d,\"puts\":%d,\"gets\":%d,\"scans\":%d,\"lead_batches\":%d,\"resp_flushes\":%d,\"in_flight\":%d,\"free_chunks\":%d,\"tier_reads\":%d}",
					int64(time.Since(t.base)), m.Ops[obs.KindPut].Count, m.Ops[obs.KindGet].Count, m.Ops[obs.KindScan].Count,
					m.LeadBatches, m.Net.RespFlushes, m.Net.InFlight, m.FreeChunks, m.Tier.Reads))
			}
		}
	}()
	return func() { close(done); <-exited }
}

// rpcKV enters below the socket: the in-process FlatRPC rings of a
// running store.
type rpcKV struct{ *core.Client }

func (c rpcKV) Scan(lo, hi uint64, limit int) ([]kvPair, error) {
	ps, err := c.Client.Scan(lo, hi, limit)
	return toPairs(ps), err
}

// coreKV enters below the rings: it drives the cores of a store that is
// not running, one op at a time, with a span around each public step and
// the owning core's PM events counted per put.
type coreKV struct {
	st   *core.Store
	tr   *tracer
	puts uint64
	pm   pmem.Events // flusher events of all puts

	coldGets, coldReads uint64 // gets whose index entry named the tier, and the preads they cost
}

func (c *coreKV) do(req rpc.Request) rpc.Response {
	co := c.st.Core(c.st.CoreOf(req.Key))
	name := "core.get"
	if req.Op == rpc.OpPut {
		name = "core.submit"
	}
	sp := c.tr.begin(name, -1, 0)
	co.Submit(req, 0)
	c.tr.end(sp)
	if req.Op == rpc.OpPut {
		sp = c.tr.begin("batch.lead", -1, 0)
		co.TryLead()
		c.tr.end(sp)
		sp = c.tr.begin("core.complete", -1, 0)
		co.DrainCompleted()
		c.tr.end(sp)
	}
	sp = c.tr.begin("core.respond", -1, 0)
	out := co.TakeResponses()
	c.tr.end(sp)
	if len(out) != 1 {
		return rpc.Response{Status: rpc.StatusError}
	}
	return out[0].Resp
}

func (c *coreKV) Put(key uint64, value []byte) error {
	f := c.st.Core(c.st.CoreOf(key)).Flusher()
	before := f.PendingEvents()
	resp := c.do(rpc.Request{ID: 1, Op: rpc.OpPut, Key: key, Value: value})
	after := f.PendingEvents()
	c.puts++
	c.pm.Flushes += after.Flushes - before.Flushes
	c.pm.Fences += after.Fences - before.Fences
	c.pm.SeqBlocks += after.SeqBlocks - before.SeqBlocks
	c.pm.RndBlocks += after.RndBlocks - before.RndBlocks
	if resp.Status != rpc.StatusOK {
		return core.ErrServer
	}
	return nil
}

func (c *coreKV) Get(key uint64) ([]byte, bool, error) {
	cold := false
	var reads uint64
	if t := c.st.Tier(); t != nil {
		ref, _, ok := c.st.Core(c.st.CoreOf(key)).Index().Get(key)
		cold, reads = ok && index.Cold(ref), t.Stats().Reads
	}
	resp := c.do(rpc.Request{ID: 1, Op: rpc.OpGet, Key: key})
	if cold {
		c.coldGets++
		c.coldReads += c.st.Tier().Stats().Reads - reads
	}
	switch resp.Status {
	case rpc.StatusOK:
		return resp.Value, true, nil
	case rpc.StatusNotFound:
		return nil, false, nil
	}
	return nil, false, core.ErrServer
}

func (c *coreKV) Scan(lo, hi uint64, limit int) ([]kvPair, error) {
	resp := c.do(rpc.Request{ID: 1, Op: rpc.OpScan, Key: lo, ScanHi: hi, Limit: limit})
	if resp.Status != rpc.StatusOK {
		return nil, core.ErrServer
	}
	return toPairs(resp.Pairs), nil
}

// residency is the engine's own view of the ops between two snapshots:
// mean time from a core taking the request to its response being queued.
func residency(before, after obs.Snapshot) (meanUs float64) {
	var n uint64
	var sum int64
	for k := range after.Ops {
		n += after.Ops[k].Latency.Count() - before.Ops[k].Latency.Count()
		sum += stats.Sum(after.Ops[k].Latency) - stats.Sum(before.Ops[k].Latency)
	}
	return ratio(float64(sum), float64(n)) / 1e3
}

// rung replays the first n ops of the workload's stream one at a time
// through one entry point and returns the mean time per op in µs.
func (g *loadgen) rung(name string, kv syncKV, seed int64, n int) float64 {
	g.ops, g.kv, g.window, g.prefix, g.cur = newStream(g.s, seed), kv, 1, name, &slice{}
	g.runOps(n)
	var total int64
	for k := range g.cur.lat {
		for _, l := range g.cur.lat[k] {
			total += l
		}
	}
	return ratio(float64(total), float64(n)) / 1e3
}

// ladderOps is how many ops each rung of the layer ladder replays.
const ladderOps = 10_000

// ladder measures where a depth-1 round trip goes. Each rung is the same
// ops through a lower public entry point; a layer's self time is its rung
// less the rung below.
func ladder(m metricSet, res *workloadResult, e *env, g *loadgen, ck *coreKV, o *options) {
	n := o.scale(ladderOps)

	b := e.srv.Metrics()
	rtt := g.rung("ladder.tcp", tcpKV{e.cl}, o.seed, n)
	res.note(g, []*slice{g.cur})
	residTCP := residency(b, e.srv.Metrics())

	cc := e.st.Connect()
	b = e.st.Metrics()
	viaRings := g.rung("ladder.rpc", rpcKV{cc}, o.seed, n)
	res.note(g, []*slice{g.cur})
	residRings := residency(b, e.st.Metrics())
	cc.Close()

	e.snapshot(false) // stop the store: the last rung drives its cores directly
	g.rung("ladder.core", ck, o.seed, n)
	res.note(g, []*slice{g.cur})

	// The engine's synchronous cost per op: its separately timed steps,
	// less the clock reads around each.
	var steps float64
	for _, name := range []string{"core.submit", "core.complete", "core.get", "core.respond", "batch.lead"} {
		cnt, total := g.tr.net(name)
		m.set(name+"_ns", ratio(total, float64(cnt)))
		steps += total
	}
	stepsUs := steps / 1e3 / float64(n)

	m.set("tcp.rtt_us_mean_d1", rtt)
	m.set("tcp.transport_us_mean_d1", rtt-residTCP)
	m.set("tcp.transport_share_d1", ratio(rtt-residTCP, rtt))
	m.set("tcp.self_us_mean_d1", rtt-viaRings)
	m.set("rpc.ring_us_mean_d1", viaRings-residRings)
	m.set("core.wait_us_mean_d1", residTCP-stepsUs)
	// The ladder must add up to the round trip: the socket's self time,
	// the rings', the wait inside the running engine and its own steps.
	// Each term comes from a different rung, so the sum is 1 only if the
	// engine did the same work under all of them.
	m.set("trace.ladder_accounted_share", ratio((rtt-viaRings)+(viaRings-residRings)+(residTCP-stepsUs)+stepsUs, rtt))
}

// syncCounts gives the PM cost of a put as exact counts: the first puts
// of the workload's stream, one at a time, into a small fresh store that
// never runs, so that no other goroutine and no timer touches the arena.
func syncCounts(m metricSet, s *spec, o *options) error {
	st, err := core.New(core.Config{Cores: 2, Mode: batch.ModePipelinedHB, Index: s.index, ArenaChunks: 12})
	if err != nil {
		return err
	}
	ck := &coreKV{st: st}
	val := make([]byte, s.valueSize)
	ops := newStream(s, o.seed)
	for i := 0; i < o.scale(4_000); i++ {
		key := ops.next().key
		fillValue(val, key, uint64(i+1))
		if err := ck.Put(key, val); err != nil {
			return fmt.Errorf("synchronous put %d: %w", i, err)
		}
	}
	puts := float64(ck.puts)
	m.set("pmem.flushes_per_put_sync", float64(ck.pm.Flushes)/puts)
	m.set("pmem.fences_per_put_sync", float64(ck.pm.Fences)/puts)
	m.set("pmem.blocks_per_put_sync", float64(ck.pm.Blocks())/puts)
	return nil
}

// timeLoop returns the mean time of f over n calls in ns. One clock pair
// around the loop: these calls are too short to time one by one.
func timeLoop(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// standalone times the layers below the engine on their own: a log, an
// allocator and a record area on a small fresh arena, and both index
// flavours loaded with the workload's key space and probed with its keys.
func standalone(m metricSet, s *spec, o *options) error {
	arena := pmem.New(8 * pmem.ChunkSize)
	al := alloc.New(arena, 1, arena.Chunks()-1, 1)
	f := arena.NewFlusher()
	log, err := oplog.New(arena, al, 4096, f)
	if err != nil {
		return err
	}

	// 48-byte entries: 16 B header + 32 B inline value, alone and eight
	// to a batch. The ratio of the two is the paper's compaction claim.
	val := make([]byte, 32)
	entries := make([]*oplog.Entry, 8)
	for i := range entries {
		entries[i] = &oplog.Entry{Op: oplog.OpPut, Version: 1, Key: uint64(i), Inline: true, Value: val}
	}
	for _, b := range []int{1, 8} {
		units, calls := 0, o.scale(16_000)/b
		var appendErr error
		ns := timeLoop(calls, func(int) {
			if _, err := log.AppendBatch(f, entries[:b]); err != nil {
				appendErr = err
			}
			units += (log.LastBatchBytes() + obs.FlushUnitSize - 1) / obs.FlushUnitSize
		})
		if appendErr != nil {
			return appendErr
		}
		m.set(fmt.Sprintf("oplog.append_ns_b%d", b), ns)
		m.set(fmt.Sprintf("oplog.flush_units_per_entry_b%d", b), float64(units)/float64(calls*b))
	}

	ca := al.Core(0)
	var allocErr error
	m.set("alloc.alloc_free_ns", timeLoop(o.scale(20_000), func(int) {
		off, err := ca.Alloc(1024, f)
		if err != nil {
			allocErr = err
			return
		}
		ca.Free(off, 1024, f)
	}))
	if allocErr != nil {
		return allocErr
	}
	big := make([]byte, 1000)
	blk, err := ca.Alloc(record.Size(len(big)), f)
	if err != nil {
		return err
	}
	m.set("record.persist_ns", timeLoop(o.scale(20_000), func(int) { record.Persist(f, blk, big) }))
	f.FlushEvents()

	hash, tree := hashidx.New(), masstree.New()
	for k := uint64(0); k < s.keys; k++ {
		hash.Put(k, int64(k+1)<<8, 1)
		tree.Put(k, int64(k+1)<<8, 1)
	}
	ops := newStream(s, o.seed)
	probe := make([]uint64, o.scale(200_000))
	t0 := time.Now()
	for i := range probe {
		probe[i] = ops.next().key
	}
	fillValue(big[:s.valueSize], 1, 1)
	m.set("workload.gen_ns_per_op", float64(time.Since(t0))/float64(len(probe)))
	var sink int64
	m.set("index.hash_get_ns", timeLoop(len(probe), func(i int) { r, _, _ := hash.Get(probe[i]); sink += r }))
	m.set("index.tree_get_ns", timeLoop(len(probe), func(i int) { r, _, _ := tree.Get(probe[i]); sink += r }))
	m.set("index.tree_scan16_ns", timeLoop(len(probe)/8, func(i int) {
		left := scanLimit
		tree.Scan(probe[i], ^uint64(0), func(_ uint64, r index.Ref, _ uint32) bool {
			sink += r
			left--
			return left > 0
		})
	}))
	if sink == 0 {
		return errors.New("index probes found nothing")
	}
	return nil
}

// hostEcho measures the host, not the repository: eight bytes echoed over
// a loopback connection between two goroutines of this process, one at a
// time. It is the floor under every depth-1 round trip here, and it moves
// when the machine has a slow hour.
func hostEcho(m metricSet, n int) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(conn, conn) // until the client closes
		echoed <- err
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	rtt := make([]int64, n)
	var buf [8]byte
	for i := range rtt {
		t0 := time.Now()
		if _, err = conn.Write(buf[:]); err == nil {
			_, err = io.ReadFull(conn, buf[:])
		}
		if err != nil {
			break
		}
		rtt[i] = int64(time.Since(t0))
	}
	conn.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	m.set("host.tcp_echo_us_p50", us(percentile(rtt, 50)))
	return err
}

// tierGets times tier.Store.Get on records the index still points at,
// then gets a tenth of those keys through their cores to count the segment
// reads a cold get costs (the ladder cannot: by its last rung the keys it
// replays have been promoted).
func tierGets(m metricSet, ck *coreKV, limit int) {
	t := ck.st.Tier()
	if t == nil {
		return
	}
	var keys []uint64
	var refs []int64
	ck.st.Core(0).Index().Range(func(key uint64, ref index.Ref, _ uint32) bool {
		if index.Cold(ref) {
			keys, refs = append(keys, key), append(refs, ref)
		}
		return len(refs) < limit
	})
	if len(refs) == 0 {
		return
	}
	m.set("tier.get_us_mean", timeLoop(len(refs), func(i int) { t.Get(refs[i]) })/1e3)
	for _, key := range keys[:len(keys)/10+1] {
		ck.Get(key)
	}
	m.set("tier.reads_per_cold_get", ratio(float64(ck.coldReads), float64(ck.coldGets)))
}

// cleanRestart times a clean shutdown (checkpoint, bitmaps, clean flag) and
// the reopen that loads the checkpoint instead of replaying the logs.
func cleanRestart(m metricSet, e *env, rs *core.Store) error {
	t0 := time.Now()
	if err := rs.Close(); err != nil {
		if t := rs.Tier(); t != nil {
			t.Close()
		}
		return fmt.Errorf("clean shutdown: %w", err)
	}
	rs, err := core.Open(core.Config{Mode: e.cfg.Mode, Index: e.cfg.Index, GC: e.cfg.GC, Tier: e.cfg.Tier, Arena: rs.Arena()})
	if err != nil {
		return fmt.Errorf("clean reopen: %w", err)
	}
	m.set("core.recover_clean_s", time.Since(t0).Seconds())
	if t := rs.Tier(); t != nil {
		t.Close()
	}
	return nil
}

// counterMetrics turns two counter snapshots around a window, and what the
// load goroutine recorded in it, into the per-layer counts and shares.
func counterMetrics(m metricSet, b, a counters, slices []*slice) {
	var all slice
	for _, sl := range slices {
		for k := range sl.lat {
			all.lat[k] = append(all.lat[k], sl.lat[k]...)
		}
		all.attempted += sl.attempted
		all.failed += sl.failed
	}
	ops := float64(all.attempted)
	puts, gets := float64(len(all.lat[opPut])), float64(len(all.lat[opGet]))
	for k, name := range kindNames {
		l := all.latencies(k)
		m.set("client."+name+"_p50_us", us(percentile(l, 50)))
		if opKind(k) != opScan {
			m.set("client."+name+"_p99_us", us(percentile(l, 99)))
			m.set("client."+name+"_p999_us", us(percentile(l, 99.9)))
		}
	}
	m.set("client.op_p99_us", us(percentile(all.latencies(-1), 99)))
	m.set("client.failed_share", ratio(float64(all.failed), ops))

	o, ob := a.obs, b.obs
	net, netb := o.Net, ob.Net
	m.set("tcp.resp_per_flush", ratio(float64(net.RespWritten-netb.RespWritten), float64(net.RespFlushes-netb.RespFlushes)))
	m.set("tcp.frames_coalesced_per_op", ratio(float64(net.FramesCoalesced-netb.FramesCoalesced), ops))
	m.set("tcp.inflight_peak", float64(net.InFlightPeak))
	m.set("tcp.shed", float64(net.Shed-netb.Shed))
	m.set("tcp.dedup_hits", float64(net.DedupHits-netb.DedupHits))
	m.set("tcp.bad_frames", float64(net.BadFrames-netb.BadFrames))
	m.set("rpc.delegation_share", ratio(float64(net.Delegations-netb.Delegations), float64(net.Responses-netb.Responses)))
	m.set("rpc.mmio_per_op", ratio(float64(net.MMIOs-netb.MMIOs), ops))
	m.set("rpc.dropped", float64(net.Dropped-netb.Dropped))

	for _, k := range []struct {
		kind int
		name string
	}{{obs.KindPut, "put"}, {obs.KindGet, "get"}} {
		h := histDelta(a.obs.Ops[k.kind].Latency, b.obs.Ops[k.kind].Latency)
		m.set("core."+k.name+"_resid_us_p50", us(h.Percentile(50)))
		m.set("core."+k.name+"_resid_us_p99", us(h.Percentile(99)))
	}
	var opErrors float64
	for k := range a.obs.Ops {
		opErrors += float64(a.obs.Ops[k].Errors - b.obs.Ops[k].Errors)
	}
	m.set("core.op_errors", opErrors)
	m.set("core.gc_chunks_cleaned", float64(o.GCCleaned-ob.GCCleaned))
	relocated, dropped := float64(o.GCRelocated-ob.GCRelocated), float64(o.GCDropped-ob.GCDropped)
	m.set("core.gc_relocated_share", ratio(relocated, relocated+dropped))

	own, stolen := float64(o.OwnOps-ob.OwnOps), float64(o.StolenOps-ob.StolenOps)
	m.set("batch.ops_per_batch_mean", ratio(own+stolen, float64(o.LeadBatches-ob.LeadBatches)))
	m.set("batch.stolen_share", ratio(stolen, own+stolen))
	m.set("batch.followed_share", ratio(float64(o.FollowedOps-ob.FollowedOps), puts))
	m.set("batch.bytes_per_batch_p50", float64(histDelta(o.BatchBytes, ob.BatchBytes).Percentile(50)))

	m.set("oplog.bytes_per_put", ratio(float64(o.LogBytes-ob.LogBytes), puts))
	m.set("oplog.flush_units_per_put", ratio(float64(o.FlushUnits-ob.FlushUnits), puts))

	pm := a.pm.Sub(b.pm)
	blocks := float64(pm.SeqBlocks + pm.RndBlocks)
	m.set("pmem.flushes_per_put", ratio(float64(pm.Flushes), puts))
	m.set("pmem.fences_per_put", ratio(float64(pm.Fences), puts))
	m.set("pmem.lines_per_put", ratio(float64(pm.Lines), puts))
	m.set("pmem.blocks_per_put", ratio(blocks, puts))
	m.set("pmem.rnd_block_share", ratio(float64(pm.RndBlocks), blocks))
	m.set("pmem.sameline_per_kput", ratio(float64(pm.SameLineRepeats)*1e3, puts))
	m.set("pmem.media_bytes_per_put", ratio(float64(pm.MediaBytes), puts))
	m.set("pmem.model_ns_per_put", ratio(float64(pmem.OptaneProfile().LatencyNS(pmem.Events(pm))), puts))

	var chunks, used, capacity float64
	for _, c := range a.obs.Classes {
		chunks += float64(c.Chunks)
		used += float64(c.UsedBlocks)
		capacity += float64(c.CapBlocks)
	}
	m.set("alloc.free_chunks_end", float64(a.obs.FreeChunks))
	m.set("alloc.class_chunks_end", chunks)
	m.set("alloc.class_fill", ratio(used, capacity))

	t, tb := a.obs.Tier, b.obs.Tier
	reads := float64(t.Reads - tb.Reads)
	m.set("tier.cold_get_share", ratio(reads, gets))
	m.set("tier.promote_share", ratio(float64(t.Promoted-tb.Promoted), reads))
	m.set("tier.bloom_filtered", float64(t.BloomFiltered-tb.BloomFiltered))
	m.set("tier.demoted", float64(t.Demoted-tb.Demoted))
	m.set("tier.segments_end", float64(t.Segments))
	m.set("tier.bytes_mb", float64(t.Bytes)/(1<<20))
	m.set("tier.dead_share", ratio(float64(t.DeadRecords), float64(t.Records)))
	m.set("tier.compactions", float64(t.Compactions-tb.Compactions))
	m.set("tier.corrupt_reads", float64(t.CorruptReads-tb.CorruptReads))
	m.set("tier.written_mb", tierBytesWritten(b, a)/(1<<20))

	m.set("bufpool.heap_bytes_per_op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops))
	m.set("go.gc_cycles", float64(a.mem.NumGC-b.mem.NumGC))
	m.set("go.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6)
	m.set("go.cpu_us_per_op", ratio(float64((a.cpu-b.cpu).Microseconds()), ops))
}

// throughput is OK ops per second over whole slices.
func throughput(slices []*slice) float64 {
	var ok int
	var wall time.Duration
	for _, sl := range slices {
		ok += sl.ok()
		wall += sl.wall
	}
	return ratio(float64(ok), wall.Seconds())
}

// tracedRun is the second kind of run: the per-layer metrics. Half the
// time is an untraced window with the counters read either side; then the
// same traffic with a span around every client call (part A), the layer
// ladder at depth 1 (part B), the layers on their own, and one recovery
// of each kind. Spans go to <out>/trace-<workload>.json.
func tracedRun(s *spec, o *options) (*workloadResult, error) {
	e, g, err := setUp(s, o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	m := metricSet{}
	res := &workloadResult{}

	before := e.snapshot(true)
	slices := g.measure(o.window()/2, nSlices)
	after := e.snapshot(true)
	counterMetrics(m, before, after, slices)
	res.note(g, slices)

	tr := newTracer()
	g.tr, g.prefix = tr, "op"
	stop := tr.watchServer(e.srv)
	traced := g.measure(o.window()/5, 1)
	stop()
	res.note(g, traced)
	m.set("trace.overhead_pct", 100*(1-ratio(throughput(traced), throughput(slices))))
	// The calls that hand the client an op: its synchronous calls at
	// window 1 (and for every scan), Submit otherwise.
	calls := []string{"tcp.submit", "op.scan"}
	if s.window == 1 {
		calls = []string{"op.put", "op.get", "op.scan"}
	}
	var nCalls int
	var inCalls time.Duration
	for _, name := range calls {
		n, total := tr.stat(name)
		nCalls, inCalls = nCalls+n, inCalls+total
	}
	_, polling := tr.stat("tcp.poll")
	m.set("tcp.client_submit_us_mean", ratio(float64(inCalls.Microseconds()), float64(nCalls)))
	m.set("workload.client_busy_share", 1-ratio(float64(inCalls+polling), float64(traced[0].wall)))

	ck := &coreKV{st: e.st, tr: tr}
	ladder(m, res, e, g, ck, o)
	g.tr, ck.tr = nil, nil
	tierGets(m, ck, o.scale(20_000))
	if err := syncCounts(m, s, o); err != nil {
		return nil, err
	}
	if err := standalone(m, s, o); err != nil {
		return nil, err
	}
	if err := hostEcho(m, o.scale(4_000)); err != nil {
		return nil, fmt.Errorf("loopback echo: %w", err)
	}

	// Power cuts and one clean shutdown, each timed to a serving store.
	times, rs, err := recovery(e, o.recoveries())
	if err != nil {
		return nil, err
	}
	m.setMin("core.recover_s", times)
	m.set("core.recover_keys_per_s", ratio(float64(rs.Len()), m["core.recover_s"].Value))
	res.Audited = audit(rs, g.chk)
	res.Violations = g.chk.violations
	if res.FirstError == "" {
		res.FirstError = g.chk.first
	}
	if err := cleanRestart(m, e, rs); err != nil {
		// Recorded, not fixed: the tiered arena is kept nearly full, and
		// the checkpoint of 400 k keys does not fit in what is free.
		fmt.Fprintf(os.Stderr, "%s: core.recover_clean_s not measured: %v\n", s.name, err)
	}

	res.PerLayer = m.report(perLayer)
	if err := tr.write(filepath.Join(o.out, "trace-"+s.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}
