package main

import (
	"os"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/rpc"
	"flatstore/internal/stats"
)

// rpcBench reports the FlatRPC §4.3 quantities: queue-pair counts versus
// the all-to-all design, and the delegation/MMIO behaviour of an echo
// run over the in-process transport. It reports counts only; what a
// round trip costs in time is the scoreboard's rpc.* and tcp.* rows.
func rpcBench() {
	const cores, clients, perClient = 8, 12, 2000
	s := rpc.NewServer(cores, 0)

	done := make(chan struct{})
	for c := 0; c < cores; c++ {
		go func(c int) {
			p := s.Port(c)
			for {
				select {
				case <-done:
					return
				default:
				}
				if req, client, ok := p.Poll(); ok {
					p.Respond(client, rpc.Response{ID: req.ID, Status: rpc.StatusOK})
				}
				p.DrainDelegated()
			}
		}(c)
	}
	fin := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		go func() {
			cl := s.Connect()
			sent, recv := 0, 0
			for recv < perClient {
				if sent < perClient && cl.Send(sent%cores, rpc.Request{Op: rpc.OpGet, Key: uint64(sent)}) {
					sent++
				}
				recv += len(cl.Poll(16))
			}
			fin <- struct{}{}
		}()
	}
	for i := 0; i < clients; i++ {
		<-fin
	}
	close(done)

	st := s.Stats()
	t := stats.NewTable("FlatRPC (§4.3)", "metric", "FlatRPC", "all-to-all")
	t.Row("queue pairs (NIC cache entries)", st.QueuePairs, clients*cores)
	t.Row("responses", st.Responses, st.Responses)
	t.Row("delegated verbs", st.Delegations, 0)
	t.Row("MMIO doorbells (all on agent socket)", st.MMIOs, st.Responses)
	t.Fprint(os.Stdout)
}

// groupSize reproduces the §3.3 "Pipelined HB with Grouping" ablation the
// paper describes textually: small groups acquire the lock cheaply but
// batch little, wide groups batch more but pay (cross-socket)
// synchronization. The paper's empirical optimum is one group per socket;
// the cost model places the socket boundary at 18 cores.
func groupSize() {
	t := stats.NewTable("Group-size ablation (§3.3): 26 cores, 8B uniform Put",
		"group-size", "groups", "Mops", "entries/batch", "p50us")
	for _, gs := range []int{1, 2, 4, 8, 13, 26} {
		p := params(cfg.ops)
		p.Preload = 50_000
		p.PreloadValue = func(uint64) int { return 8 }
		p.ArenaChunks = 256
		c := flatCfg(core.IndexHash, batch.ModePipelinedHB)
		c.GroupSize = gs
		r := runFlat("H", p, c, ycsbPut(0, 8))
		t.Row(gs, (cfg.cores+gs-1)/gs, r.Mops, r.AvgBatch, float64(r.P50NS)/1000)
	}
	t.Fprint(os.Stdout)
}

// offload reproduces the §4.3 "RDMA offloading" comparison: serving Gets
// with client-side one-sided RDMA reads versus server-side RPC. Locating
// a KV remotely needs at least two dependent reads (index probe, then
// record), each a full NIC round trip, so offloading loses — the paper
// measured 57 % (100 % Get) and 21 % (50 % Get) lower throughput, which
// is why FlatStore serves everything through RPC.
func offload() {
	const (
		// nicReadRate is the NIC's one-sided read rate (ConnectX-5
		// class hardware sustains tens of millions of READs/s).
		nicReadRate = 45e6
		// readsPerGet: index probe + record fetch; a fraction of
		// lookups needs an extra hop (hash-collision chain).
		readsPerGet = 2.2
	)

	// RPC-side capacities from the simulator.
	p := params(cfg.ops)
	p.Preload = 50_000
	p.PreloadValue = func(uint64) int { return 64 }
	p.ArenaChunks = 256
	get100 := runFlat("H", p, flatCfg(core.IndexHash, batch.ModePipelinedHB),
		ycsbGetPut(0, 64, 1.0))
	mixed := runFlat("H", p, flatCfg(core.IndexHash, batch.ModePipelinedHB),
		ycsbGetPut(0, 64, 0.5))

	// Offload-side: Gets bypass the server but serialize on NIC reads;
	// Puts still go through RPC.
	get100Off := nicReadRate / readsPerGet / 1e6
	// 50:50: Puts at half the mixed RPC run's rate pace the run; Gets ride
	// the NIC in parallel — throughput = 2 × min(putRate, offloadGet).
	mixedOff := 2 * min(mixed.Mops/2, get100Off)

	t := stats.NewTable("RDMA offloading (§4.3): Get via one-sided reads vs RPC (Mops/s)",
		"workload", "RPC (FlatStore)", "RDMA-read offload", "offload vs RPC")
	t.Row("100% Get", get100.Mops, get100Off, get100Off/get100.Mops-1)
	t.Row("50% Get", mixed.Mops, mixedOff, mixedOff/mixed.Mops-1)
	t.Fprint(os.Stdout)
}

// inlineAblation sweeps the OpLog's inline-value threshold — the §3.2
// design choice of embedding KVs up to 256 B directly in log entries.
// Disabling inlining forces every value through the allocator (an extra
// flush per Put), which is exactly the overhead the compacted log is
// built to avoid.
func inlineAblation() {
	t := stats.NewTable("Inline-threshold ablation (§3.2): Put Mops/s at 26 cores, uniform",
		"value", "inline off", "inline<=64B", "inline<=256B (paper)")
	for _, vs := range []int{8, 64, 200} {
		row := []any{vs}
		for _, lim := range []int{-1, 64, 256} {
			p := params(cfg.ops)
			p.Preload = 50_000
			p.PreloadValue = func(uint64) int { return vs }
			p.ArenaChunks = 256
			c := flatCfg(core.IndexHash, batch.ModePipelinedHB)
			c.InlineMax = lim
			r := runFlat("H", p, c, ycsbPut(0, vs))
			row = append(row, r.Mops)
		}
		t.Row(row...)
	}
	t.Fprint(os.Stdout)
}
