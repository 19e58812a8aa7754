package sim

import (
	"container/heap"

	"flatstore/internal/pmem"
	"flatstore/internal/stats"
	"flatstore/internal/workload"
)

// Source produces the request stream (workload.Generator and
// workload.ETCGenerator both satisfy it).
type Source interface {
	Next() workload.Op
	Value(size int) []byte
}

// Params configures a simulated run.
type Params struct {
	// Cores is the number of virtual server cores.
	Cores int
	// Clients is the number of closed-loop virtual clients.
	Clients int
	// ClientBatch is each client's async window (the paper's default
	// is 8).
	ClientBatch int
	// Ops is the number of measured requests.
	Ops int
	// Preload inserts keys [0, Preload) untimed before measurement.
	Preload uint64
	// PreloadValue sizes the preloaded values (defaults to 8 bytes).
	PreloadValue func(key uint64) int
	// ArenaChunks sizes the PM arena (default: enough for the run).
	ArenaChunks int
	// Model is the cost model (DefaultModel if zero).
	Model CostModel
	// GC runs one virtual cleaner per group (Figure 13).
	GC bool
	// WindowNS enables a timeline: ops and cleaned chunks are counted
	// per window of virtual time.
	WindowNS int64
}

func (p *Params) defaults() {
	if p.Cores == 0 {
		p.Cores = 26
	}
	if p.Clients == 0 {
		p.Clients = 12
	}
	if p.ClientBatch == 0 {
		p.ClientBatch = 8
	}
	if p.Ops == 0 {
		p.Ops = 100_000
	}
	if p.Model.WorkNS == 0 {
		p.Model = DefaultModel()
	}
	if p.PreloadValue == nil {
		p.PreloadValue = func(uint64) int { return 8 }
	}
}

// GCPoint is one timeline window of a GC run.
type GCPoint struct {
	WindowNS int64
	Ops      int
	Cleaned  int
}

// Result is one simulated configuration's outcome.
type Result struct {
	Name      string
	Ops       int
	VirtualNS int64
	Mops      float64
	MeanNS    int64
	P50NS     int64
	P99NS     int64
	Hist      *stats.Histogram
	PM        pmem.StatsSnapshot
	Batches   uint64
	Stolen    uint64
	AvgBatch  float64
	Timeline  []GCPoint
}

func (r *Result) finish() {
	if r.VirtualNS > 0 {
		r.Mops = float64(r.Ops) / float64(r.VirtualNS) * 1e3
	}
	if r.Hist != nil {
		r.MeanNS = int64(r.Hist.Mean())
		r.P50NS = r.Hist.Percentile(50)
		r.P99NS = r.Hist.Percentile(99)
	}
}

// pendingReq is one in-flight request.
type pendingReq struct {
	arrival int64
	issue   int64
	client  int
	id      uint64
	op      workload.Op
}

// arrivalHeap orders requests by server-side arrival time.
type arrivalHeap []pendingReq

func (h arrivalHeap) Len() int           { return len(h) }
func (h arrivalHeap) Less(i, j int) bool { return h[i].arrival < h[j].arrival }
func (h arrivalHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)        { *h = append(*h, x.(pendingReq)) }
func (h *arrivalHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h arrivalHeap) peek() *pendingReq  { return &h[0] }
func (h *arrivalHeap) pop() pendingReq   { return heap.Pop(h).(pendingReq) }
func (h *arrivalHeap) push(r pendingReq) { heap.Push(h, r) }
func (h arrivalHeap) hasReady(t int64) bool {
	return len(h) > 0 && h[0].arrival <= t
}

// dispatcher owns the closed-loop clients and the per-core arrival heaps.
type dispatcher struct {
	p        Params
	src      Source
	routeFn  func(key uint64) int
	arrivals []arrivalHeap
	issues   []map[uint64]int64 // per client: reqID → issue time
	nextID   []uint64
	hist     *stats.Histogram
	done     int
	endNS    int64
	timeline []GCPoint
}

func newDispatcher(p Params, src Source, route func(uint64) int) *dispatcher {
	d := &dispatcher{
		p:        p,
		src:      src,
		routeFn:  route,
		arrivals: make([]arrivalHeap, p.Cores),
		issues:   make([]map[uint64]int64, p.Clients),
		nextID:   make([]uint64, p.Clients),
		hist:     stats.NewHistogram(),
	}
	for c := 0; c < p.Clients; c++ {
		d.issues[c] = map[uint64]int64{}
		for j := 0; j < p.ClientBatch; j++ {
			// Stagger initial issues slightly so arrival order is
			// deterministic but not simultaneous.
			d.issue(c, int64(c*37+j*13))
		}
	}
	return d
}

// issue draws the next request for a client at local time t.
func (d *dispatcher) issue(client int, t int64) {
	op := d.src.Next()
	d.nextID[client]++
	id := d.nextID[client]
	d.issues[client][id] = t
	core := d.routeFn(op.Key)
	d.arrivals[core].push(pendingReq{
		arrival: t + d.p.Model.ClientNS + d.p.Model.NetNS,
		issue:   t,
		client:  client,
		id:      id,
		op:      op,
	})
}

// complete records a response transmitted by the server at time t and
// lets the client issue its next request.
func (d *dispatcher) complete(client int, id uint64, t int64) {
	atClient := t + d.p.Model.NetNS
	if issue, ok := d.issues[client][id]; ok {
		delete(d.issues[client], id)
		d.hist.Record(atClient - issue)
		d.done++
		if atClient > d.endNS {
			d.endNS = atClient
		}
		d.window(atClient).Ops++
	}
	d.issue(client, atClient)
}

// window returns the timeline bucket for a virtual time.
func (d *dispatcher) window(t int64) *GCPoint {
	if d.p.WindowNS <= 0 {
		return &GCPoint{}
	}
	idx := int(t / d.p.WindowNS)
	for len(d.timeline) <= idx {
		d.timeline = append(d.timeline, GCPoint{WindowNS: int64(len(d.timeline)) * d.p.WindowNS})
	}
	return &d.timeline[idx]
}
