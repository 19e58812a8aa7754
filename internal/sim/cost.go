// Package sim executes FlatStore and its baselines on virtual cores in
// virtual time. The host running this reproduction has a single CPU, so
// the paper's 36-core wall-clock experiments cannot be re-run directly;
// instead, the simulator drives the *real* storage data structures (the
// same OpLogs, allocator, indexes, batching protocol and baseline stores
// the tests exercise) one virtual core at a time, charging each operation
// nanoseconds from a calibrated Optane cost model: per-flush latency,
// random-block activations, repeated-cacheline stalls, and a shared
// device-bandwidth server that concurrent cores contend on. Every figure
// of the paper is regenerated this way (see DESIGN.md §4).
package sim

import "flatstore/internal/pmem"

// CostModel holds the calibrated constants. PM-side costs come from
// pmem.Profile; the rest are CPU/NIC-side costs measured or estimated for
// the paper's platform (2×Xeon Gold 6240M, ConnectX-5).
type CostModel struct {
	PM pmem.Profile

	// PollNS is the cost of polling a message buffer slot.
	PollNS int64
	// WorkNS is the fixed request-processing cost (parse, dispatch,
	// keyhash, conflict check).
	WorkNS int64
	// ByteNS is the per-byte memcpy cost (payload staging).
	ByteNS float64
	// HashIdxNS is a volatile hash-table operation (FlatStore-H).
	HashIdxNS int64
	// TreeIdxNS is a volatile Masstree operation (FlatStore-M).
	TreeIdxNS int64
	// TreeFFIdxNS is a volatile FAST&FAIR operation (the FlatStore-FF
	// variant of Figure 8: a DRAM B+-tree with coarser-grained
	// synchronization than Masstree, hence slower).
	TreeFFIdxNS int64
	// LockNS is an uncontended group-lock acquisition.
	LockNS int64
	// SocketWidth is the number of cores per socket; HB groups wider
	// than one socket pay XSocketLockNS on the group lock (the §3.3
	// grouping discussion: "acquiring the global lock by a large number
	// of CPU cores leads to significant synchronization overhead").
	SocketWidth int
	// XSocketLockNS is the extra cache-coherence cost of a lock whose
	// waiters span sockets.
	XSocketLockNS int64
	// CollectNS is the per-entry cost of stealing from a pending pool.
	CollectNS int64
	// ScanPoolNS is the per-member cost of scanning a group pool during
	// collection; with wide groups this is what serializes leaders and
	// lets batches accumulate.
	ScanPoolNS int64
	// VolatileNS is the volatile completion phase (index update, usage
	// accounting).
	VolatileNS int64
	// MMIONS is ringing the NIC doorbell (agent core).
	MMIONS int64
	// DelegateNS is handing a verb to the agent through shared memory,
	// including the amortized agent-side doorbell (§4.3: delegation
	// gathers MMIOs onto the NIC-local socket, and one agent core
	// sustains the full node's response rate).
	DelegateNS int64
	// NetNS is the one-way client-server wire+NIC latency.
	NetNS int64
	// ClientNS is the client-side per-request cost (issue + poll).
	ClientNS int64
}

// DefaultModel returns the calibrated model. Calibration targets are the
// paper's §2.3 device measurements (Figure 1) and the absolute throughput
// anchors of §5.1 (FlatStore-H ≈ 35 Mops/s for 8 B uniform Puts; CCEH ≈
// 2.5× lower; FAST&FAIR ≈ 3.5 Mops/s) — see EXPERIMENTS.md.
func DefaultModel() CostModel {
	return CostModel{
		PM:            pmem.OptaneProfile(),
		PollNS:        60,
		WorkNS:        300,
		ByteNS:        0.03,
		HashIdxNS:     90,
		TreeIdxNS:     650,
		TreeFFIdxNS:   950,
		LockNS:        40,
		SocketWidth:   18,
		XSocketLockNS: 260,
		CollectNS:     5,
		ScanPoolNS:    15,
		VolatileNS:    80,
		MMIONS:        30,
		DelegateNS:    40,
		NetNS:         900,
		ClientNS:      150,
	}
}

// BWServer is the device's shared write-bandwidth resource: media traffic
// from all cores drains through it, which is what makes write bandwidth
// "non-scalable" (§2.2) in the model.
//
// Virtual cores advance at slightly different rates, so a strict FIFO
// queue would let a core that runs ahead in virtual time block every
// other core behind its "future" traffic. Instead the server enforces the
// aggregate constraint — total served bytes never exceed bandwidth ×
// elapsed time — while charging each request its own service time:
// completion = max(now + bytes/bw, totalServed/bw).
type BWServer struct {
	served float64 // cumulative bytes
	bps    float64
}

// NewBWServer creates a bandwidth server with the given bytes/second.
func NewBWServer(bps float64) *BWServer { return &BWServer{bps: bps} }

// Serve accounts bytes entering the device at time now and returns their
// drain-completion time.
func (b *BWServer) Serve(now int64, bytes uint64) int64 {
	if bytes == 0 {
		return now
	}
	b.served += float64(bytes)
	drain := int64(b.served / b.bps * 1e9)
	own := now + int64(float64(bytes)/b.bps*1e9)
	if own > drain {
		return own
	}
	return drain
}

// Clock is the virtual clock shared with the PM emulator so repeated-
// flush stalls are assessed against simulated time. The cluster sets Now
// to the stepping core's clock before each engine call.
type Clock struct{ ns int64 }

// Now implements pmem.Clock.
func (c *Clock) Now() int64 { return c.ns }

// Set advances the clock.
func (c *Clock) Set(ns int64) { c.ns = ns }

// persistCost converts an event delta into (local latency, media bytes).
func (m *CostModel) persistCost(ev pmem.Events) (int64, uint64) {
	return m.PM.LatencyNS(ev), ev.MediaBytes
}

// chargePersist advances a core clock past an event delta, contending on
// the bandwidth server: the fence completes when both the local latency
// has elapsed and the media traffic has drained.
func (m *CostModel) chargePersist(clock int64, ev pmem.Events, bw *BWServer) int64 {
	lat, bytes := m.persistCost(ev)
	done := bw.Serve(clock, bytes)
	if c := clock + lat; c > done {
		return c
	}
	return done
}
