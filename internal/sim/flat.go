package sim

import (
	"fmt"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/workload"
)

// failedLockNS is the cost of probing a held group lock (local socket).
const failedLockNS = 15

// simPollsPerStep bounds the requests a virtual core absorbs per step.
// Small values keep the virtual clocks of different cores finely
// interleaved, which keeps batch formation (and the shared-bandwidth
// interleaving) faithful to continuous time.
const simPollsPerStep = 2

// gate delays a core's op completions until their batch's virtual
// durability time.
type gate struct {
	n  int
	at int64
}

// flatVCore is one virtual server core driving a real engine core.
type flatVCore struct {
	clock   int64
	backlog int64 // agent-side MMIO work charged by delegating cores
	gates   []gate
}

// FlatRun executes a FlatStore configuration in virtual time and returns
// its throughput/latency result. cfg.Cores/Arena are overridden from p.
func FlatRun(name string, p Params, cfg core.Config, src Source) (Result, error) {
	p.defaults()
	m := &p.Model
	clk := &Clock{}
	chunks := p.ArenaChunks
	if chunks == 0 {
		chunks = 256
	}
	arena := pmem.New(chunks*pmem.ChunkSize,
		pmem.WithClock(clk), pmem.WithSameLineWindow(m.PM.SameLineWindowNS))
	cfg.Arena = arena
	cfg.Cores = p.Cores
	cfg.ArenaChunks = chunks
	st, err := core.New(cfg)
	if err != nil {
		return Result{}, err
	}

	// Untimed preload.
	if p.Preload > 0 {
		if err := flatPreload(st, p, src); err != nil {
			return Result{}, err
		}
	}
	arena.ResetStats()
	var batches0, stolen0 uint64
	for _, g := range st.Groups() {
		s := g.Stats()
		batches0 += s.Batches
		stolen0 += s.Stolen
	}

	d := newDispatcher(p, src, st.CoreOf)
	vcs := make([]*flatVCore, p.Cores)
	for i := range vcs {
		vcs[i] = &flatVCore{}
	}
	ngroups := len(st.Groups())
	lockFreeAt := make([]int64, ngroups)
	groupOf := func(i int) int { return i / st.Config().GroupSize }
	bw := NewBWServer(m.PM.BandwidthBPS)
	agent := 0

	var cleaners []*cleanerVCore
	if p.GC {
		for g := 0; g < ngroups; g++ {
			cleaners = append(cleaners, &cleanerVCore{cl: st.NewCleaner(g)})
		}
	}

	const inf = int64(1) << 62
	nextWork := func(i int) int64 {
		v := vcs[i]
		t := inf
		if len(v.gates) > 0 && v.gates[0].at < t {
			t = v.gates[0].at
		}
		// A naive-HB core with unpersisted posted entries is blocked:
		// new arrivals do not make it runnable (Figure 4(c)).
		blocked := cfg.Mode == batch.ModeNaiveHB && st.Core(i).PendingCount() > 0
		if !blocked && len(d.arrivals[i]) > 0 {
			if a := d.arrivals[i].peek().arrival; a < t {
				t = a
			}
		}
		if st.Core(i).GroupPending() {
			lf := lockFreeAt[groupOf(i)]
			if lf < v.clock {
				lf = v.clock
			}
			if lf < t {
				t = lf
			}
		}
		if t < v.clock {
			t = v.clock
		}
		return t
	}

	step := func(i int) {
		v := vcs[i]
		eng := st.Core(i)
		v.clock += v.backlog
		v.backlog = 0
		clk.Set(v.clock)

		// 1. Durable completions whose gate has passed.
		for len(v.gates) > 0 && v.gates[0].at <= v.clock {
			g := v.gates[0]
			v.gates = v.gates[1:]
			n := eng.DrainCompletedLimit(g.n)
			v.clock += int64(n) * m.VolatileNS
		}

		// 2. Poll message buffers. Under naive HB a core with posted
		// but unpersisted entries blocks instead of taking new work
		// (Figure 4(c)); under pipelined HB it keeps polling.
		idxCost := m.HashIdxNS
		switch cfg.Index {
		case core.IndexMasstree:
			idxCost = m.TreeIdxNS
		}
		blocked := cfg.Mode == batch.ModeNaiveHB && eng.PendingCount() > 0
		pollBudget := simPollsPerStep
		if cfg.Mode == batch.ModeNaiveHB {
			// A naive core posts everything it polled before blocking
			// on the lock, amortizing the wait (Figure 4(c)).
			pollBudget = core.MaxPoll
		}
		for polls := 0; !blocked && polls < pollBudget && d.arrivals[i].hasReady(v.clock); polls++ {
			pr := d.arrivals[i].pop()
			v.clock += m.PollNS + m.WorkNS
			if pr.op.Type == workload.OpPut {
				v.clock += int64(float64(pr.op.ValueSize) * m.ByteNS)
			}
			v.clock += idxCost
			clk.Set(v.clock)
			eng.Submit(toRPC(pr, src), pr.client)
			v.clock = m.chargePersist(v.clock, eng.Flusher().TakeEvents(), bw)
			v.clock += int64(eng.TakeReads()) * m.PM.ReadNS
		}

		// 3. Lead attempt (g-persist phase). Any core may lead as long
		// as someone in the group has pending entries; since the
		// scheduler always steps the lowest-clock core, less-busy cores
		// naturally win the lock more often and absorb the flush work
		// of busy ones (the paper's skew-mitigation effect).
		//
		// A failed probe of a held lock is not free: the lock line must
		// be fetched, and across sockets that is a coherence miss — the
		// §3.3 grouping overhead that makes socket-wide groups optimal.
		if eng.GroupPending() && v.clock < lockFreeAt[groupOf(i)] {
			v.clock += failedLockNS
			if m.SocketWidth > 0 && st.Config().GroupSize > m.SocketWidth {
				v.clock += m.XSocketLockNS
			}
		}
		if eng.GroupPending() && v.clock >= lockFreeAt[groupOf(i)] {
			v.clock += m.LockNS
			if m.SocketWidth > 0 && st.Config().GroupSize > m.SocketWidth {
				v.clock += m.XSocketLockNS
			}
			clk.Set(v.clock)
			ops := eng.TryLeadOps()
			v.clock += int64(st.Config().GroupSize) * m.ScanPoolNS
			if len(ops) > 0 {
				collectEnd := v.clock + int64(len(ops))*m.CollectNS
				ev := eng.Flusher().TakeEvents()
				persistDone := m.chargePersist(collectEnd, ev, bw)
				if cfg.Mode == batch.ModePipelinedHB {
					// Pipelined HB: the lock is released right after
					// collection, overlapping the flush (§3.3).
					lockFreeAt[groupOf(i)] = collectEnd
				} else {
					// Naive HB holds the lock across the flush;
					// vertical batching is a synchronous core that
					// starts its next batch only after the previous
					// one is durable.
					lockFreeAt[groupOf(i)] = persistDone
				}
				v.clock = persistDone
				counts := map[int]int{}
				for _, op := range ops {
					counts[op.Owner]++
				}
				for owner, n := range counts {
					ov := vcs[owner]
					at := persistDone
					if k := len(ov.gates); k > 0 && ov.gates[k-1].at > at {
						at = ov.gates[k-1].at // keep gates FIFO-monotone
					}
					ov.gates = append(ov.gates, gate{n: n, at: at})
				}
			}
		}

		// 4. Transmit responses. The agent core rings its own doorbell;
		// other cores hand the verb over through shared memory. The
		// paper shows one agent core sustains >50 Mop/s of doorbells
		// (§4.3), so the agent-side cost is folded into DelegateNS
		// rather than modelled as a separate bottleneck.
		for _, o := range eng.TakeResponses() {
			if i == agent {
				v.clock += m.MMIONS
			} else {
				v.clock += m.DelegateNS
			}
			d.complete(o.Client, o.Resp.ID, v.clock)
		}
	}

	guard := 0
	for d.done < p.Ops {
		best, bestT := -1, inf
		for i := range vcs {
			if t := nextWork(i); t < bestT {
				bestT, best = t, i
			}
		}
		for _, cv := range cleaners {
			if cv.clock < bestT {
				bestT, best = cv.clock, -2-cvIndex(cleaners, cv)
			}
		}
		if best == -1 {
			return Result{}, fmt.Errorf("sim: deadlock with %d/%d ops done", d.done, p.Ops)
		}
		if best <= -2 {
			cv := cleaners[-2-best]
			cv.step(clk, m, bw, d)
			continue
		}
		if bestT > vcs[best].clock {
			vcs[best].clock = bestT
		}
		step(best)
		guard++
		if guard > p.Ops*1000 {
			return Result{}, fmt.Errorf("sim: livelock after %d steps (%d/%d ops)", guard, d.done, p.Ops)
		}
	}

	res := Result{Name: name, Ops: d.done, VirtualNS: d.endNS, Hist: d.hist, PM: arena.Stats(), Timeline: d.timeline}
	for _, g := range st.Groups() {
		s := g.Stats()
		res.Batches += s.Batches
		res.Stolen += s.Stolen
	}
	res.Batches -= batches0
	res.Stolen -= stolen0
	if res.Batches > 0 {
		res.AvgBatch = float64(res.Ops) / float64(res.Batches)
	}
	if p.GC {
		for w := range res.Timeline {
			for _, cv := range cleaners {
				res.Timeline[w].Cleaned += cv.cleanedIn(int64(w)*p.WindowNS, p.WindowNS)
			}
		}
	}
	res.finish()
	return res, nil
}

func cvIndex(cs []*cleanerVCore, c *cleanerVCore) int {
	for i := range cs {
		if cs[i] == c {
			return i
		}
	}
	return 0
}

// cleanerVCore steps one group's log cleaner in virtual time.
type cleanerVCore struct {
	cl      *core.Cleaner
	clock   int64
	history []int64 // virtual times at which a chunk was reclaimed
}

// cleanEntryNS is the CPU cost of scanning/classifying one log entry.
const cleanEntryNS = 120

// cleanerIdleNS is the cleaner's backoff when nothing needs cleaning.
const cleanerIdleNS = 200_000

func (cv *cleanerVCore) step(clk *Clock, m *CostModel, bw *BWServer, d *dispatcher) {
	clk.Set(cv.clock)
	before := cv.cl.Stats().Cleaned
	n := cv.cl.CleanOnce()
	ev := cv.cl.Flusher().TakeEvents()
	if n == 0 {
		cv.clock += cleanerIdleNS
		return
	}
	cv.clock += int64(n) * cleanEntryNS
	cv.clock = m.chargePersist(cv.clock, ev, bw)
	for c := cv.cl.Stats().Cleaned; c > before; c-- {
		cv.history = append(cv.history, cv.clock)
	}
}

// cleanedIn counts chunks reclaimed within [from, from+span).
func (cv *cleanerVCore) cleanedIn(from, span int64) int {
	n := 0
	for _, t := range cv.history {
		if t >= from && t < from+span {
			n++
		}
	}
	return n
}

// toRPC converts a workload op into a transport request, materializing
// the value payload.
func toRPC(pr pendingReq, src Source) rpc.Request {
	req := rpc.Request{ID: pr.id, Key: pr.op.Key}
	switch pr.op.Type {
	case workload.OpPut:
		req.Op = rpc.OpPut
		req.Value = src.Value(pr.op.ValueSize)
	case workload.OpGet:
		req.Op = rpc.OpGet
	case workload.OpDelete:
		req.Op = rpc.OpDelete
	}
	return req
}

// flatPreload loads keys [0, p.Preload) through the real engine without
// charging virtual time.
func flatPreload(st *core.Store, p Params, src Source) error {
	for key := uint64(0); key < p.Preload; key++ {
		i := st.CoreOf(key)
		c := st.Core(i)
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: key, Value: src.Value(p.PreloadValue(key))}, 0)
		c.TryLead()
		c.DrainCompleted()
		c.Flusher().FlushEvents()
		c.TakeReads()
		for _, o := range c.TakeResponses() {
			if o.Resp.Status == rpc.StatusError {
				return fmt.Errorf("sim: preload failed at key %d (arena too small?)", key)
			}
		}
	}
	return nil
}
