package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/tcp"
)

// env is the served configuration of flatstore-server's defaults, in this
// process: the engine, its TCP front end on loopback, and one client
// connection.
type env struct {
	cfg     core.Config
	st      *core.Store
	srv     *tcp.Server
	cl      *tcp.Client
	tierDir string
}

func newEnv(s *spec, tmp string) (*env, error) {
	e := &env{}
	e.cfg = core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, Index: s.index,
		ArenaChunks: s.chunks, GC: core.GCConfig{Enabled: true},
	}
	if s.tiered {
		dir, err := os.MkdirTemp(tmp, "tier-")
		if err != nil {
			return nil, err
		}
		e.tierDir = dir
		e.cfg.Tier.Dir = dir
	}
	st, err := core.New(e.cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.st = st
	st.Run()
	return e, nil
}

// serve starts a TCP front end on a loopback port and dials the one
// connection. Preload and measurement each get their own pair, so the
// server's counters (in-flight peak, flushes) describe the measured
// traffic alone. A refused, shed or failed op is never retried.
func (e *env) serve(window int) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = tcp.NewServer(e.st)
	go e.srv.Serve(lis) // returns when srv.Close closes the listener
	e.cl, err = tcp.DialOptions(lis.Addr().String(), tcp.Options{Window: window, MaxAttempts: 1})
	if err != nil {
		e.srv.Close()
		e.srv = nil
	}
	return err
}

func (e *env) unserve() {
	if e.cl != nil {
		e.cl.Close()
		e.cl = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
}

func (e *env) close() {
	e.unserve()
	if e.st != nil {
		e.st.Stop()
		if t := e.st.Tier(); t != nil {
			t.Close()
		}
		e.st = nil
	}
	if e.tierDir != "" {
		os.RemoveAll(e.tierDir)
	}
}

// counters is every public counter the metrics are differences of.
type counters struct {
	obs obs.Snapshot // engine + transport + tier + allocator, via Server.Metrics
	pm  pmem.StatsSnapshot
	mem runtime.MemStats
	cpu time.Duration // user + system time of the whole process

	tailRoom int64            // unwritten bytes in the cores' open log chunks
	segments map[string]int64 // cold-tier segment files and their sizes
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set, so that one workload's peak does not report the last one's
// when several run in one process. Where the kernel refuses, the peak stays
// the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // see proc(5)
}

// peakRSSMiB is VmHWM: the most memory the process has had resident since
// the last reset.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kib float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kib); n == 1 {
				return kib / 1024
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// snapshot reads the counters with the engine stopped, so that the PM
// events every core's flusher still holds are folded into the arena totals
// and the numbers cover exactly the ops completed so far. The connection
// stays up; restart resumes serving it.
func (e *env) snapshot(restart bool) counters {
	e.st.Stop()
	for i := 0; i < e.st.Cores(); i++ {
		e.st.Core(i).Flusher().FlushEvents()
	}
	c := counters{obs: e.srv.Metrics(), pm: e.st.Arena().Stats()}
	for i := 0; i < e.st.Cores(); i++ {
		log := e.st.Core(i).Log()
		c.tailRoom += pmem.ChunkSize - (log.Tail() - log.TailChunk())
	}
	if e.tierDir != "" {
		c.segments = map[string]int64{}
		files, _ := os.ReadDir(e.tierDir) // an unreadable directory reads as no segments
		for _, f := range files {
			if info, err := f.Info(); err == nil && strings.HasSuffix(f.Name(), ".seg") {
				c.segments[f.Name()] = info.Size()
			}
		}
	}
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuTime()
	if restart {
		e.st.Run()
	}
	return c
}

// pending is one op in flight.
type pending struct {
	kind       opKind
	key, stamp uint64
	floor      uint64 // the key's floor when a get was submitted
	start      time.Time
	buf        []byte // a put's value: the client may resend it until done
	span       int    // the op's root span in a traced run
}

// slice is what the load goroutine recorded during one fifth of a window.
type slice struct {
	lat       [numKinds][]int64 // submit → reaped, ns
	putBytes  int64             // key + value bytes of acknowledged puts
	attempted int
	failed    int
	wall      time.Duration
}

func (sl *slice) ok() int { return sl.attempted - sl.failed }

// kvPair is one scan result, whichever client returned it.
type kvPair struct {
	Key   uint64
	Value []byte
}

// syncKV is a synchronous entry point into the store. The loop is the
// same whichever one it drives; the layer ladder swaps in lower ones.
type syncKV interface {
	Put(key uint64, value []byte) error
	Get(key uint64) (value []byte, found bool, err error)
	Scan(lo, hi uint64, limit int) ([]kvPair, error)
}

// toPairs converts either client's scan result.
func toPairs[P tcp.Pair | rpc.Pair](ps []P) []kvPair {
	out := make([]kvPair, len(ps))
	for i, p := range ps {
		out[i] = kvPair(p)
	}
	return out
}

// tcpKV is the client's synchronous path over the socket.
type tcpKV struct{ *tcp.Client }

func (c tcpKV) Scan(lo, hi uint64, limit int) ([]kvPair, error) {
	ps, err := c.Client.Scan(lo, hi, limit)
	return toPairs(ps), err
}

// loadgen is the one load goroutine: a closed loop that keeps up to
// window requests in flight on the one connection and checks every reply.
type loadgen struct {
	s      *spec
	window int
	cl     *tcp.Client // asynchronous path, window > 1
	kv     syncKV      // synchronous path: window 1, and every scan
	ops    *stream
	chk    *checker
	seq    uint64 // last stamp handed out

	inflight map[*tcp.Ticket]*pending
	free     []*pending
	cur      *slice
	firstErr error

	tr     *tracer // nil unless this is a traced run
	prefix string  // names this run's spans
}

func newLoadgen(s *spec, seed int64) *loadgen {
	return &loadgen{s: s, window: s.window, ops: newStream(s, seed), chk: newChecker(s),
		inflight: map[*tcp.Ticket]*pending{}, cur: &slice{}}
}

func (g *loadgen) getPending(o op) *pending {
	var p *pending
	if n := len(g.free); n > 0 {
		p, g.free = g.free[n-1], g.free[:n-1]
	} else {
		p = &pending{buf: make([]byte, g.s.valueSize)}
	}
	p.kind, p.key, p.span = o.kind, o.key, -1
	return p
}

// preload writes every key once, in 64-op frames. Out-of-space answers are
// retried after a pause: on the tiered workload the preload outruns the
// cleaner that demotes to disk. Preload is set-up, not measurement.
func (g *loadgen) preload(cl *tcp.Client) error {
	const frame = 64
	ops := make([]tcp.BatchOp, 0, frame)
	vals := make([]byte, frame*g.s.valueSize)
	for base := uint64(0); base < g.s.keys; base += frame {
		ops = ops[:0]
		for k := base; k < base+frame && k < g.s.keys; k++ {
			g.seq++
			v := vals[len(ops)*g.s.valueSize:][:g.s.valueSize]
			fillValue(v, k, g.seq)
			g.chk.putSubmitted(k, g.seq)
			ops = append(ops, tcp.BatchOp{Key: k, Value: v})
		}
		todo := ops
		for attempt := 0; len(todo) > 0; attempt++ {
			if attempt == 2000 {
				return fmt.Errorf("preload: key %d still refused after %d attempts", todo[0].Key, attempt)
			}
			res, err := cl.WriteBatch(todo)
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			retry := todo[:0]
			for i, r := range res {
				if r.Err != nil {
					retry = append(retry, todo[i])
					continue
				}
				g.chk.putDone(todo[i].Key, binary.LittleEndian.Uint64(todo[i].Value), true)
			}
			if todo = retry; len(todo) > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

// issue sends one op. At window 1 it calls the synchronous entry point
// and returns with the op finished; otherwise it submits (blocking while
// the window is full) and reaps whatever has completed. Scans have no
// asynchronous form: they are synchronous beside the window.
func (g *loadgen) issue(o op) {
	p := g.getPending(o)
	if o.kind == opPut {
		g.seq++
		p.stamp = g.seq
		fillValue(p.buf, o.key, p.stamp)
		g.chk.putSubmitted(o.key, p.stamp)
	} else {
		p.floor = g.chk.floor[o.key]
	}
	if g.tr != nil {
		p.span = g.tr.begin(g.prefix+"."+kindNames[o.kind], -1, g.seq)
	}
	p.start = time.Now()
	if g.window == 1 || o.kind == opScan {
		switch o.kind {
		case opPut:
			err := g.kv.Put(o.key, p.buf)
			g.tr.end(p.span)
			g.finish(p, err, nil, false)
		case opGet:
			val, found, err := g.kv.Get(o.key)
			g.tr.end(p.span)
			g.finish(p, err, val, found)
		case opScan:
			pairs, err := g.kv.Scan(o.key, ^uint64(0), scanLimit)
			g.tr.end(p.span)
			g.finishScan(p, err, pairs)
		}
		g.free = append(g.free, p)
		return
	}
	var t *tcp.Ticket
	var err error
	sp := g.tr.begin("tcp.submit", p.span, g.seq)
	if o.kind == opPut {
		t, err = g.cl.SubmitPut(context.Background(), o.key, p.buf)
	} else {
		t, err = g.cl.SubmitGet(context.Background(), o.key)
	}
	g.tr.end(sp)
	if err != nil {
		g.tr.end(p.span)
		g.finish(p, err, nil, false)
		g.free = append(g.free, p)
		return
	}
	g.inflight[t] = p
	sp = g.tr.begin("tcp.poll", -1, 0)
	for _, t := range g.cl.Poll(0) {
		g.reap(t)
	}
	g.tr.end(sp)
}

func (g *loadgen) reap(t *tcp.Ticket) {
	p := g.inflight[t]
	delete(g.inflight, t)
	val, found := t.Value()
	g.tr.end(p.span)
	g.finish(p, t.Err(), val, found)
	g.free = append(g.free, p)
}

// drain waits for everything in flight.
func (g *loadgen) drain() {
	for t := range g.inflight {
		t.Wait(context.Background())
		g.reap(t)
	}
}

// record books one finished op into the current slice.
func (g *loadgen) record(p *pending, err error) {
	sl := g.cur
	sl.attempted++
	sl.lat[p.kind] = append(sl.lat[p.kind], int64(time.Since(p.start)))
	if err != nil {
		sl.failed++
		if g.firstErr == nil {
			g.firstErr = fmt.Errorf("%s key %d: %w", kindNames[p.kind], p.key, err)
		}
	}
}

// finish records a put's or get's outcome and checks a get's value.
func (g *loadgen) finish(p *pending, err error, val []byte, found bool) {
	g.record(p, err)
	switch p.kind {
	case opPut:
		g.chk.putDone(p.key, p.stamp, err == nil)
		if err == nil {
			g.cur.putBytes += int64(8 + len(p.buf))
		}
	case opGet:
		if err == nil {
			g.chk.checkValue("get", p.key, p.floor, val, found)
		}
	}
}

// finishScan checks a scan: every key of a preloaded key space is present,
// so Scan(lo, limit) must return exactly the next keys in order.
func (g *loadgen) finishScan(p *pending, err error, pairs []kvPair) {
	if g.record(p, err); err != nil {
		return
	}
	want := int(min(scanLimit, g.s.keys-p.key))
	if len(pairs) != want {
		g.chk.violate("scan from %d: %d pairs, want %d", p.key, len(pairs), want)
		return
	}
	for i, pr := range pairs {
		if pr.Key != p.key+uint64(i) {
			g.chk.violate("scan from %d: pair %d has key %d", p.key, i, pr.Key)
			return
		}
		// Puts on these keys may have been in flight during the scan;
		// a floor read now would be too new, so only the bytes and the
		// upper bound are checked.
		g.chk.checkValue("scan", pr.Key, 0, pr.Value, true)
	}
}

// runOps issues n ops and waits for them (warm-up, traced replays).
func (g *loadgen) runOps(n int) {
	for i := 0; i < n; i++ {
		g.issue(g.ops.next())
	}
	g.drain()
}

// measure runs the closed loop for d, split into n equal consecutive
// slices. An op belongs to the slice it was reaped in; the last slice
// ends when the window has drained.
func (g *loadgen) measure(d time.Duration, n int) []*slice {
	slices := make([]*slice, n)
	start := time.Now()
	for i := range slices {
		g.cur = &slice{}
		slices[i] = g.cur
		t0 := time.Now()
		for end := start.Add(d * time.Duration(i+1) / time.Duration(n)); time.Now().Before(end); {
			g.issue(g.ops.next())
		}
		if i == n-1 {
			g.drain()
		}
		g.cur.wall = time.Since(t0)
	}
	return slices
}

// setUp builds the served store, preloads it, opens the measured
// connection and warms up: everything a run needs before its window.
func setUp(s *spec, o *options) (*env, *loadgen, error) {
	e, err := newEnv(s, o.tmp)
	if err != nil {
		return nil, nil, err
	}
	g := newLoadgen(s, o.seed)
	if s.preload {
		if err = e.serve(1); err == nil {
			err = g.preload(e.cl)
			e.unserve()
		}
	}
	if err == nil {
		err = e.serve(s.window)
	}
	if err != nil {
		e.close()
		return nil, nil, err
	}
	g.cl, g.kv = e.cl, tcpKV{e.cl}
	g.runOps(o.scale(s.warmup))
	g.cur = &slice{}
	return e, g, nil
}

// recovery cuts the power n times (each image is the bytes that reached
// the media, nothing else) and times core.Open on each: image in, serving
// store out. It returns the times and the last recovered store.
func recovery(e *env, n int) ([]float64, *core.Store, error) {
	cfg := core.Config{Mode: e.cfg.Mode, Index: e.cfg.Index, GC: e.cfg.GC, Tier: e.cfg.Tier}
	if t := e.st.Tier(); t != nil {
		t.Close()
	}
	var times []float64
	var rs *core.Store
	for i := 0; i < n; i++ {
		if rs != nil {
			if t := rs.Tier(); t != nil {
				t.Close()
			}
			rs = nil
		}
		// Collect before and after making the image, so that every
		// sample starts from the same heap: the previous image's memory
		// is free for this one, and no collection is under way when the
		// clock starts.
		runtime.GC()
		cfg.Arena = e.st.Arena().Crash()
		runtime.GC()
		t0 := time.Now()
		var err error
		if rs, err = core.Open(cfg); err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, rs, nil
}

// audit reads every key back from a recovered, not yet running store by
// driving its cores directly, and checks it against the oracle: every
// acknowledged put must be there with its own or a later submitted stamp.
func audit(rs *core.Store, chk *checker) (checked int) {
	for key, sub := range chk.maxSub {
		if sub == 0 {
			continue
		}
		c := rs.Core(rs.CoreOf(uint64(key)))
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpGet, Key: uint64(key)}, 0)
		out := c.TakeResponses()
		checked++
		if len(out) != 1 || (out[0].Resp.Status != rpc.StatusOK && out[0].Resp.Status != rpc.StatusNotFound) {
			chk.violate("audit key %d: no answer from the recovered store", key)
			continue
		}
		chk.checkValue("audit", uint64(key), chk.floor[key], out[0].Resp.Value, out[0].Resp.Status == rpc.StatusOK)
	}
	return checked
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Violations int                `json:"violations"`
	FirstError string             `json:"first_error,omitempty"`
	Ops        map[string]int     `json:"ops"`
	Audited    int                `json:"audited_keys"`
	EndToEnd   map[string]*sample `json:"end_to_end,omitempty"`
	PerLayer   map[string]*sample `json:"per_layer,omitempty"`
}

func (r *workloadResult) note(g *loadgen, slices []*slice) {
	if r.Ops == nil {
		r.Ops = map[string]int{}
	}
	for _, sl := range slices {
		r.Attempted += sl.attempted
		r.Failed += sl.failed
		for k := range sl.lat {
			r.Ops[kindNames[k]] += len(sl.lat[k])
		}
	}
	r.Violations = g.chk.violations
	switch {
	case g.chk.first != "":
		r.FirstError = g.chk.first
	case g.firstErr != nil:
		r.FirstError = g.firstErr.Error()
	}
}

// latencies returns the sorted submit→reaped times of one kind (or of all
// kinds for kind < 0) in a slice.
func (sl *slice) latencies(kind int) []int64 {
	var all []int64
	for k := range sl.lat {
		if kind < 0 || kind == k {
			all = append(all, sl.lat[k]...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// perSlice evaluates f on every slice.
func perSlice(slices []*slice, f func(*slice) float64) []float64 {
	out := make([]float64, len(slices))
	for i, sl := range slices {
		out[i] = f(sl)
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

const nSlices = 5

// timedRun is the untraced run of one workload: the end-to-end metrics.
func timedRun(s *spec, o *options) (*workloadResult, error) {
	var (
		e      *env
		g      *loadgen
		setups []float64
	)
	resetPeakRSS()
	for i := 0; i < o.setups(); i++ {
		if e != nil {
			e.close()
			e, g = nil, nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if e, g, err = setUp(s, o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	before := e.snapshot(true)
	slices := g.measure(o.window(), nSlices)
	after := e.snapshot(false)
	e.unserve()

	res := &workloadResult{}
	res.note(g, slices)
	ops := float64(res.Attempted)
	var putBytes int64
	for _, sl := range slices {
		putBytes += sl.putBytes
	}

	m := metricSet{}
	m.setMedian("setup_s", setups)
	m.setMedian("ops_per_s", perSlice(slices, func(sl *slice) float64 { return float64(sl.ok()) / sl.wall.Seconds() }))
	var p50, p95 []float64
	for _, sl := range slices {
		l := sl.latencies(-1)
		p50, p95 = append(p50, us(percentile(l, 50))), append(p95, us(percentile(l, 95)))
	}
	m.setMedian("op_p50_us", p50)
	m.setMedian("op_p95_us", p95)
	m.set("pm_write_amp", ratio(float64(after.pm.MediaBytes-before.pm.MediaBytes), float64(putBytes)))
	_, live := g.chk.liveBytes()
	m.set("space_amp", ratio(float64(usedChunks(after))*pmem.ChunkSize-float64(after.tailRoom)+float64(after.obs.Tier.Bytes), float64(live)))
	m.set("allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops))
	// Read before the power cuts: their images are the harness's memory,
	// not the served store's.
	m.set("peak_rss_mb", peakRSSMiB())

	_, rs, err := recovery(e, 1)
	if err != nil {
		return nil, err
	}
	res.Audited = audit(rs, g.chk)
	if t := rs.Tier(); t != nil {
		t.Close()
	}
	res.Violations = g.chk.violations
	if res.FirstError == "" {
		res.FirstError = g.chk.first
	}
	res.EndToEnd = m.report(endToEnd)
	return res, nil
}

// usedChunks is the arena chunks that are not in the free pool: log
// chunks, class chunks however empty, and huge allocations. space_amp
// takes the unwritten tail of each core's open log chunk off again, so
// that it does not jump by a chunk when a log rolls.
func usedChunks(c counters) uint64 {
	n := c.obs.RawChunks + c.obs.HugeChunks
	for _, cl := range c.obs.Classes {
		n += cl.Chunks
	}
	return n
}

// tierBytesWritten is the size of the segment files that appeared between
// two snapshots (demotions and compaction rewrites alike). The tier counts
// segments written, not their bytes, so the directory is the only source.
func tierBytesWritten(before, after counters) float64 {
	var n int64
	for name, size := range after.segments {
		if _, old := before.segments[name]; !old {
			n += size
		}
	}
	return float64(n)
}
