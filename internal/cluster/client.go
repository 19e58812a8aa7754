package cluster

// The cluster-aware client: one tcp.Client per shard group (each with
// its own connection, dedup sessions, and pipelined in-flight window),
// a routing layer that sends every key to the group owning it under the
// current shard map, and a fan-out path that splits multi-op calls by
// shard and issues the per-shard sub-batches concurrently. NotPrimary
// redirects are absorbed inside each group's tcp.Client (the group is
// one replication cluster); WrongShard redirects are absorbed here, by
// adopting the newer map from the server's hint and re-routing — for
// single ops in routed or the reaper of a pipelined ticket (routed.go),
// and in fanOut for multi-op calls.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"flatstore/internal/tcp"
)

// maxReroutes bounds how many times one logical call chases WrongShard
// redirects before giving up: each reroute should deliver a newer map,
// so more than a few means the cluster's members disagree about
// ownership faster than the client can follow.
const maxReroutes = 3

// ClientOptions tunes the cluster client.
type ClientOptions struct {
	// TCP is applied to every per-group tcp.Client (window, timeouts,
	// retry budget). The zero value selects the tcp defaults.
	TCP tcp.Options
	// Vnodes is the per-shard virtual-node count used when parsing the
	// cluster spec; 0 selects DefaultVnodes. All parties must agree.
	Vnodes int
}

// ClientStats counts the routing layer's work.
type ClientStats struct {
	Ops        uint64         // single ops routed
	Batches    uint64         // multi-op calls split by shard
	SubBatches uint64         // per-shard sub-batches issued
	Scans      uint64         // scans fanned out
	ScanChunks uint64         // per-shard scan chunks fetched
	Reroutes   uint64         // ops replayed after a WrongShard redirect
	MapSwaps   uint64         // newer maps adopted from hints
	OpsByShard map[int]uint64 // ops routed per shard ID (single + sub-batch)
}

// ErrClientClosed reports use of a closed cluster client.
var ErrClientClosed = errors.New("cluster: client closed")

// group is one shard group as the client holds it: the tcp.Client that
// owns the group's connection, and the ops routed to it.
type group struct {
	cl  *tcp.Client
	ops atomic.Uint64
}

// Client routes FlatStore operations across a sharded cluster.
type Client struct {
	opts ClientOptions

	mu     sync.RWMutex
	m      *Map
	groups map[int]*group // by shard ID, dialled lazily
	closed bool

	ops, batches, subBatches atomic.Uint64
	scans, scanChunks        atomic.Uint64
	reroutes, mapSwaps       atomic.Uint64

	// The pipelined submissions not yet final (see routed.go).
	pmu  sync.Mutex
	pend []*Ticket
}

// Dial builds a cluster client over a ParseSpec cluster spec
// (";"-separated shard groups, each a comma-separated address list) and
// eagerly connects to every group.
func Dial(spec string, o ClientOptions) (*Client, error) {
	m, err := ParseSpec(spec, 1, o.Vnodes)
	if err != nil {
		return nil, err
	}
	return DialMap(context.Background(), m, o)
}

// DialMap builds a cluster client over an existing shard map and
// eagerly connects to every group. Every shard must carry addresses.
func DialMap(ctx context.Context, m *Map, o ClientOptions) (*Client, error) {
	c := &Client{
		opts:   o,
		m:      m,
		groups: map[int]*group{},
	}
	for _, s := range m.Shards() {
		if _, err := c.group(ctx, s.ID); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", s.ID, err)
		}
	}
	return c, nil
}

// Close tears down every per-group connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	groups := c.groups
	c.groups = map[int]*group{}
	c.mu.Unlock()
	for _, g := range groups {
		g.cl.Close()
	}
	return nil
}

// Map returns the client's current shard map.
func (c *Client) Map() *Map {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m
}

// Stats snapshots the routing counters.
func (c *Client) Stats() ClientStats {
	st := ClientStats{
		Ops:        c.ops.Load(),
		Batches:    c.batches.Load(),
		SubBatches: c.subBatches.Load(),
		Scans:      c.scans.Load(),
		ScanChunks: c.scanChunks.Load(),
		Reroutes:   c.reroutes.Load(),
		MapSwaps:   c.mapSwaps.Load(),
		OpsByShard: map[int]uint64{},
	}
	c.mu.RLock()
	for id, g := range c.groups {
		st.OpsByShard[id] = g.ops.Load()
	}
	c.mu.RUnlock()
	return st
}

// group returns (dialling if needed) a shard group. The group's whole
// address list is handed to the tcp client, so NotPrimary redirects and
// failover re-pointing stay inside the group.
func (c *Client) group(ctx context.Context, shardID int) (*group, error) {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrClientClosed
	}
	if g, ok := c.groups[shardID]; ok {
		c.mu.RUnlock()
		return g, nil
	}
	s, ok := c.m.ShardByID(shardID)
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no shard %d in map", shardID)
	}
	if len(s.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: shard %d has no addresses", shardID)
	}
	cl, err := tcp.DialContext(ctx, strings.Join(s.Addrs, ","), c.opts.TCP)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cl.Close()
		return nil, ErrClientClosed
	}
	if prior, ok := c.groups[shardID]; ok { // lost a dial race; keep the winner
		c.mu.Unlock()
		cl.Close()
		return prior, nil
	}
	g := &group{cl: cl}
	c.groups[shardID] = g
	c.mu.Unlock()
	return g, nil
}

// owner routes key under the current map to the owning group, counting
// the op about to be sent there.
func (c *Client) owner(ctx context.Context, key uint64) (*group, error) {
	g, err := c.group(ctx, c.Map().ShardOf(key))
	if err == nil {
		g.ops.Add(1)
	}
	return g, err
}

// adoptHint decodes a WrongShard map hint, swapping it in if it is
// newer than the map the client routes on (same-or-older hints leave
// the map alone). It reports whether the hint decoded — a usable hint
// is worth a re-route even when it was not adopted, because a
// concurrent op may have adopted the same map first and routing already
// changed under this caller.
func (c *Client) adoptHint(hint []byte) bool {
	m, err := DecodeHint(hint)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Version() > c.m.Version() {
		c.m = m
		c.mapSwaps.Add(1)
	}
	return true
}

// shouldReroute reports whether err is a WrongShard redirect worth
// chasing: the hint must decode and the attempt budget must not be
// spent. The budget bounds the pathological case of cluster members
// that keep disagreeing about ownership (a stale hint cannot ping-pong
// forever). Replaying a write against the new owner is safe — each
// group's tcp.Client keeps its own dedup sessions, so the replay is a
// fresh (session, id) there and the rejected attempt applied nothing on
// the wrong server. routed and reap ask it per send of a single op;
// fanOut asks it per op, the round being the attempt.
func (c *Client) shouldReroute(err error, attempt int) bool {
	var ws *tcp.WrongShardError
	if !errors.As(err, &ws) || attempt >= maxReroutes {
		return false
	}
	if !c.adoptHint(ws.Hint) {
		return false
	}
	c.reroutes.Add(1)
	return true
}

// --- Fan-out multi-op calls ---

// fanOut is the one round loop of the multi-op calls over n ops. Each
// round splits the ops still pending by owning shard under the current
// map, runs every shard's sub-batch concurrently through run — which
// sends ops idx to one group and stores their positional results — and
// collects for the next round the ops whose result (errOf) is a
// WrongShard redirect worth chasing; by then the hint's map is adopted,
// so the re-split routes them to the new owner. A transport-level failure
// of any sub-batch fails the call.
func (c *Client) fanOut(ctx context.Context, n int, keyOf func(i int) uint64, errOf func(i int) error,
	run func(ctx context.Context, cl *tcp.Client, idx []int) error) error {
	c.batches.Add(1)
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	for round := 0; len(pending) > 0; round++ {
		m := c.Map()
		byShard := map[int][]int{}
		for _, i := range pending {
			id := m.ShardOf(keyOf(i))
			byShard[id] = append(byShard[id], i)
		}
		pending = pending[:0]
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex // guards failed and pending
			failed error
		)
		for id, idx := range byShard {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := c.group(ctx, id)
				if err == nil {
					c.subBatches.Add(1)
					g.ops.Add(uint64(len(idx)))
					err = run(ctx, g.cl, idx)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed = err
					return
				}
				for _, i := range idx {
					if c.shouldReroute(errOf(i), round) {
						pending = append(pending, i)
					}
				}
			}()
		}
		wg.Wait()
		if failed != nil {
			return failed
		}
	}
	return nil
}

// MultiGet fetches many keys, splitting the frame by owning shard and
// issuing the per-shard sub-batches concurrently. Results are
// positional: out[i] answers keys[i] regardless of which shard served
// it or in what order the sub-batches completed.
func (c *Client) MultiGet(keys []uint64) ([]tcp.MultiRes, error) {
	return c.MultiGetCtx(context.Background(), keys)
}

// MultiGetCtx is MultiGet bounded by ctx.
func (c *Client) MultiGetCtx(ctx context.Context, keys []uint64) ([]tcp.MultiRes, error) {
	out := make([]tcp.MultiRes, len(keys))
	err := c.fanOut(ctx, len(keys),
		func(i int) uint64 { return keys[i] },
		func(i int) error { return out[i].Err },
		func(ctx context.Context, cl *tcp.Client, idx []int) error {
			sub := make([]uint64, len(idx))
			for j, i := range idx {
				sub[j] = keys[i]
			}
			res, err := cl.MultiGetCtx(ctx, sub)
			for j := range res {
				out[idx[j]] = res[j]
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBatch applies a mixed batch of puts and deletes, split by shard
// and issued concurrently, with positional results. Like the single-
// shard WriteBatch it is not atomic — each op lands individually — but
// every op is applied exactly once on its owning shard even across
// retries, reconnects, and WrongShard re-routing.
func (c *Client) WriteBatch(ops []tcp.BatchOp) ([]tcp.BatchRes, error) {
	return c.WriteBatchCtx(context.Background(), ops)
}

// WriteBatchCtx is WriteBatch bounded by ctx.
func (c *Client) WriteBatchCtx(ctx context.Context, ops []tcp.BatchOp) ([]tcp.BatchRes, error) {
	out := make([]tcp.BatchRes, len(ops))
	err := c.fanOut(ctx, len(ops),
		func(i int) uint64 { return ops[i].Key },
		func(i int) error { return out[i].Err },
		func(ctx context.Context, cl *tcp.Client, idx []int) error {
			sub := make([]tcp.BatchOp, len(idx))
			for j, i := range idx {
				sub[j] = ops[i]
			}
			res, err := cl.WriteBatchCtx(ctx, sub)
			for j := range res {
				out[idx[j]] = res[j]
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiPut stores many pairs across the cluster, failing if any put
// failed.
func (c *Client) MultiPut(pairs []tcp.Pair) error {
	return tcp.PutAll(context.Background(), c, pairs)
}
