package cluster

// End-to-end cluster client tests over real stores and real TCP servers:
// routed single ops, positional fan-out batches under concurrent
// completion order, WrongShard self-healing on a stale map, and the
// pipelined async path.

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/tcp"
)

// testShard is one running one-node shard group.
type testShard struct {
	st   *core.Store
	srv  *tcp.Server
	addr string
}

// startShards spins n shard servers (no gates yet) and registers
// cleanup. Each is a full store behind a real TCP listener.
func startShards(t *testing.T, n int, cfg core.Config) []*testShard {
	t.Helper()
	out := stalledShards(t, n, cfg)
	for _, s := range out {
		s.st.Run()
	}
	return out
}

// stalledShards is startShards with the stores not yet running: the
// servers handshake and take requests, and answer none until st.Run.
func stalledShards(t *testing.T, n int, cfg core.Config) []*testShard {
	t.Helper()
	out := make([]*testShard, n)
	for i := 0; i < n; i++ {
		st, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.Stop()
			t.Fatal(err)
		}
		srv := tcp.NewServer(st)
		go srv.Serve(lis)
		s := &testShard{st: st, srv: srv, addr: lis.Addr().String()}
		t.Cleanup(func() {
			s.srv.Close()
			s.st.Stop()
		})
		out[i] = s
	}
	return out
}

// smallStore is the config shard tests use unless they need an ordered
// index.
func smallStore() core.Config {
	return core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 64}
}

// gateAll builds a version-v map over the shards and installs a gate on
// each server.
func gateAll(t *testing.T, servers []*testShard, version uint64) *Map {
	t.Helper()
	shards := make([]Shard, len(servers))
	for i, s := range servers {
		shards[i] = Shard{ID: i, Addrs: []string{s.addr}}
	}
	m, err := NewMap(version, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range servers {
		g, err := NewGate(m, i)
		if err != nil {
			t.Fatal(err)
		}
		s.srv.SetShard(g)
	}
	return m
}

// staleMap is a version-1 map that knows only the first two of the
// servers: against servers gated on a newer map over all of them, a
// client routing on it is redirected for every key the newer map moved.
func staleMap(t *testing.T, servers []*testShard) *Map {
	t.Helper()
	m, err := NewMap(1, []Shard{
		{ID: 0, Addrs: []string{servers[0].addr}},
		{ID: 1, Addrs: []string{servers[1].addr}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dialCluster dials the map with a small window and registers cleanup.
func dialCluster(t *testing.T, m *Map, o ClientOptions) *Client {
	t.Helper()
	cl, err := DialMap(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func seqValue(key uint64) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, key)
	return v
}

// TestClusterRoutedOps: single Put/Get/Delete land on the owning shard
// and every shard sees traffic.
func TestClusterRoutedOps(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	m := gateAll(t, servers, 1)
	cl := dialCluster(t, m, ClientOptions{})

	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, seqValue(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", k, ok, err)
		}
		if binary.LittleEndian.Uint64(v) != k {
			t.Fatalf("get %d: wrong value", k)
		}
	}
	// Routing actually spread the keys: each shard served some ops, and
	// each op went to the shard the map names.
	st := cl.Stats()
	for id := 0; id < 3; id++ {
		if st.OpsByShard[id] == 0 {
			t.Errorf("shard %d received no ops — ring routing collapsed", id)
		}
	}
	// Deletes: present then absent.
	for k := uint64(0); k < n; k += 7 {
		existed, err := cl.Delete(k)
		if err != nil || !existed {
			t.Fatalf("delete %d: existed=%v err=%v", k, existed, err)
		}
		if _, ok, _ := cl.Get(k); ok {
			t.Fatalf("key %d still present after delete", k)
		}
	}
	if st.Reroutes != 0 {
		t.Errorf("reroutes on a stable map: %d", st.Reroutes)
	}
}

// TestClusterMultiGetPositional: results must line up with the request
// positions regardless of which shard served each key and in what order
// the per-shard sub-batches completed. Background writers keep the
// shards busy so completion order genuinely varies.
func TestClusterMultiGetPositional(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	m := gateAll(t, servers, 1)
	cl := dialCluster(t, m, ClientOptions{})

	const n = 256
	pairs := make([]tcp.Pair, 0, n)
	for k := uint64(0); k < n; k++ {
		pairs = append(pairs, tcp.Pair{Key: k, Value: seqValue(k)})
	}
	if err := cl.MultiPut(pairs); err != nil {
		t.Fatal(err)
	}

	// Background writers on a disjoint key range, through the same
	// client, to perturb per-shard service order.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := uint64(1_000_000 + w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = cl.Put(k, seqValue(k))
				k += 2
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		// Shuffled key order, with some misses salted in.
		keys := make([]uint64, 0, n+8)
		for k := uint64(0); k < n; k++ {
			keys = append(keys, k)
		}
		for i := 0; i < 8; i++ {
			keys = append(keys, uint64(2_000_000+i))
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

		res, err := cl.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(keys) {
			t.Fatalf("got %d results for %d keys", len(res), len(keys))
		}
		for i, k := range keys {
			if k >= 2_000_000 {
				if res[i].OK {
					t.Fatalf("round %d: missing key %d reported present at position %d", round, k, i)
				}
				continue
			}
			if res[i].Err != nil || !res[i].OK {
				t.Fatalf("round %d: key %d at position %d: ok=%v err=%v",
					round, k, i, res[i].OK, res[i].Err)
			}
			if got := binary.LittleEndian.Uint64(res[i].Value); got != k {
				t.Fatalf("round %d: position %d asked for key %d, got value of key %d — positional merge broke",
					round, i, k, got)
			}
		}
	}
	if st := cl.Stats(); st.SubBatches <= st.Batches {
		t.Errorf("batches were not split: %d sub-batches for %d batches", st.SubBatches, st.Batches)
	}
}

// TestClusterWriteBatchPositional: mixed put/delete batches keep
// positional outcomes across the shard split.
func TestClusterWriteBatchPositional(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	m := gateAll(t, servers, 1)
	cl := dialCluster(t, m, ClientOptions{})

	const n = 128
	for k := uint64(0); k < n; k += 2 { // pre-load even keys
		if err := cl.Put(k, seqValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	// One frame: delete every even key, put every odd key.
	ops := make([]tcp.BatchOp, n)
	for k := uint64(0); k < n; k++ {
		if k%2 == 0 {
			ops[k] = tcp.BatchOp{Key: k, Delete: true}
		} else {
			ops[k] = tcp.BatchOp{Key: k, Value: seqValue(k)}
		}
	}
	res, err := cl.WriteBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if res[k].Err != nil {
			t.Fatalf("op %d: %v", k, res[k].Err)
		}
		if k%2 == 0 && !res[k].Existed {
			t.Fatalf("delete of pre-loaded key %d reported not-present", k)
		}
	}
	for k := uint64(0); k < n; k++ {
		_, ok, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := k%2 == 1; ok != want {
			t.Fatalf("key %d: present=%v want %v", k, ok, want)
		}
	}
}

// TestClusterWrongShardSelfHeal: a client routing on a stale 2-shard map
// against servers gated on a newer 3-shard map must absorb the
// StatusWrongShard redirects — adopt the hinted map, dial the shard it
// did not know about, and replay — without surfacing errors.
func TestClusterWrongShardSelfHeal(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	newMap := gateAll(t, servers, 2) // servers route on v2, all 3 shards

	stale := staleMap(t, servers)
	cl := dialCluster(t, stale, ClientOptions{})

	const n = 400
	for k := uint64(0); k < n; k++ {
		if err := cl.Put(k, seqValue(k)); err != nil {
			t.Fatalf("put %d through stale map: %v", k, err)
		}
	}
	st := cl.Stats()
	if st.MapSwaps == 0 {
		t.Error("client never adopted the newer map from a WrongShard hint")
	}
	if st.Reroutes == 0 {
		t.Error("client never replayed a redirected op")
	}
	if got := cl.Map().Version(); got != newMap.Version() {
		t.Errorf("client map version = %d, want %d", got, newMap.Version())
	}
	// After healing, reads come back right — including keys the v2 ring
	// owns on shard 2, which the stale map did not even know existed.
	var onThird int
	for k := uint64(0); k < n; k++ {
		v, ok, err := cl.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d after heal: ok=%v err=%v", k, ok, err)
		}
		if binary.LittleEndian.Uint64(v) != k {
			t.Fatalf("get %d after heal: wrong value", k)
		}
		if newMap.ShardOf(k) == 2 {
			onThird++
		}
	}
	if onThird == 0 {
		t.Fatal("test vacuous: no key routed to the shard missing from the stale map")
	}
}

// TestClusterMultiOpSelfHeal: the fan-out batch paths re-split and
// replay per-op WrongShard outcomes across rounds.
func TestClusterMultiOpSelfHeal(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	gateAll(t, servers, 2)
	stale := staleMap(t, servers)
	cl := dialCluster(t, stale, ClientOptions{})

	const n = 200
	pairs := make([]tcp.Pair, 0, n)
	for k := uint64(0); k < n; k++ {
		pairs = append(pairs, tcp.Pair{Key: k, Value: seqValue(k)})
	}
	if err := cl.MultiPut(pairs); err != nil {
		t.Fatalf("multiput through stale map: %v", err)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	res, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.OK || binary.LittleEndian.Uint64(r.Value) != keys[i] {
			t.Fatalf("key %d: ok=%v err=%v", keys[i], r.OK, r.Err)
		}
	}
	if st := cl.Stats(); st.Reroutes == 0 || st.MapSwaps == 0 {
		t.Errorf("batch path did not self-heal: %d reroutes, %d map swaps", st.Reroutes, st.MapSwaps)
	}
}

// TestClusterAsyncSubmit: the pipelined Submit/Poll path completes every
// ticket with the right outcome, including across WrongShard redirects
// chased by the reaper.
func TestClusterAsyncSubmit(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	gateAll(t, servers, 2)
	stale := staleMap(t, servers)
	cl := dialCluster(t, stale, ClientOptions{TCP: tcp.Options{Window: 8}})

	ctx := context.Background()
	const n = 300
	done := 0
	// A redirect is chased by whoever reaps it, so draining means polling
	// until nothing is in flight, not waiting for InFlight to fall.
	reap := func(drain bool) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, tk := range cl.Poll(0) {
				if err := tk.Err(); err != nil {
					t.Fatalf("ticket key %d: %v", tk.Key(), err)
				}
				done++
			}
			if !drain || cl.InFlight() == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("in-flight stuck at %d", cl.InFlight())
			}
		}
	}
	for k := uint64(0); k < n; k++ {
		if _, err := cl.SubmitPut(ctx, k, seqValue(k)); err != nil {
			t.Fatalf("submit put %d: %v", k, err)
		}
		reap(false)
	}
	reap(true)
	if done != n {
		t.Fatalf("reaped %d tickets, submitted %d", done, n)
	}

	// Async gets via Wait, checking values and presence.
	for k := uint64(0); k < n; k += 17 {
		tk, err := cl.SubmitGet(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		v, ok := tk.Value()
		if !ok || binary.LittleEndian.Uint64(v) != k {
			t.Fatalf("async get %d: ok=%v", k, ok)
		}
	}
	tk, err := cl.SubmitDelete(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(ctx); err != nil || !tk.Existed() {
		t.Fatalf("async delete: existed=%v err=%v", tk.Existed(), err)
	}
	if st := cl.Stats(); st.Reroutes == 0 {
		t.Error("async path never exercised a WrongShard replay against the stale map")
	}
}
