package cluster

// The cluster-aware client: one tcp.Client per shard group (each with
// its own connection, dedup sessions, and pipelined in-flight window),
// a routing layer that sends every key to the group owning it under the
// current shard map, and fan-out paths that split multi-op frames by
// shard and issue the per-shard sub-batches concurrently. NotPrimary
// redirects are absorbed inside each group's tcp.Client (the group is
// one replication cluster); WrongShard redirects are absorbed here, by
// adopting the newer map from the server's hint and re-routing.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"flatstore/internal/tcp"
)

// DefaultMaxReroutes bounds how many times one logical call chases
// WrongShard redirects before giving up: each reroute should deliver a
// newer map, so more than a few means the cluster's members disagree
// about ownership faster than the client can follow.
const DefaultMaxReroutes = 3

// ClientOptions tunes the cluster client.
type ClientOptions struct {
	// TCP is applied to every per-group tcp.Client (window, timeouts,
	// retry budget). The zero value selects the tcp defaults.
	TCP tcp.Options
	// Vnodes is the per-shard virtual-node count used when parsing the
	// cluster spec; 0 selects DefaultVnodes. All parties must agree.
	Vnodes int
	// MaxReroutes bounds WrongShard-redirect chases per logical call;
	// 0 selects DefaultMaxReroutes.
	MaxReroutes int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Vnodes <= 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.MaxReroutes <= 0 {
		o.MaxReroutes = DefaultMaxReroutes
	}
	return o
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

// Client routes FlatStore operations across a sharded cluster.
type Client struct {
	opts ClientOptions

	mu     sync.RWMutex
	m      *Map
	conns  map[int]*tcp.Client // by shard ID, dialled lazily
	byID   map[int]uint64      // ops routed per shard ID
	closed bool

	ops, batches, subBatches atomic.Uint64
	scans, scanChunks        atomic.Uint64
	reroutes, mapSwaps       atomic.Uint64
	inflight                 atomic.Int64

	// Pipelined-submission completion set (see Submit*/Poll below).
	compMu sync.Mutex
	comp   map[*Ticket]struct{}
}

// Dial builds a cluster client over a ParseSpec cluster spec
// (";"-separated shard groups, each a comma-separated address list) and
// eagerly connects to every group.
func Dial(spec string, o ClientOptions) (*Client, error) {
	return DialContext(context.Background(), spec, o)
}

// DialContext is Dial bounded by ctx.
func DialContext(ctx context.Context, spec string, o ClientOptions) (*Client, error) {
	o = o.withDefaults()
	m, err := ParseSpec(spec, 1, o.Vnodes)
	if err != nil {
		return nil, err
	}
	return DialMap(ctx, m, o)
}

// DialMap builds a cluster client over an existing shard map and
// eagerly connects to every group. Every shard must carry addresses.
func DialMap(ctx context.Context, m *Map, o ClientOptions) (*Client, error) {
	o = o.withDefaults()
	c := &Client{
		opts:  o,
		m:     m,
		conns: map[int]*tcp.Client{},
		byID:  map[int]uint64{},
		comp:  map[*Ticket]struct{}{},
	}
	for _, s := range m.Shards() {
		if _, err := c.connFor(ctx, s.ID); err != nil {
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
	conns := c.conns
	c.conns = map[int]*tcp.Client{}
	c.mu.Unlock()
	for _, cl := range conns {
		cl.Close()
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
	for id, n := range c.byID {
		st.OpsByShard[id] = n
	}
	c.mu.RUnlock()
	return st
}

// countShard attributes n ops to a shard in the per-shard counters.
func (c *Client) countShard(id int, n uint64) {
	c.mu.Lock()
	c.byID[id] += n
	c.mu.Unlock()
}

// connFor returns (dialling if needed) the tcp.Client of a shard group.
// The group's whole address list is handed to the tcp client, so
// NotPrimary redirects and failover re-pointing stay inside the group.
func (c *Client) connFor(ctx context.Context, shardID int) (*tcp.Client, error) {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrClientClosed
	}
	if cl, ok := c.conns[shardID]; ok {
		c.mu.RUnlock()
		return cl, nil
	}
	s, ok := c.m.ShardByID(shardID)
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no shard %d in map", shardID)
	}
	if len(s.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: shard %d has no addresses", shardID)
	}
	cl, err := tcp.DialContext(ctx, joinAddrs(s.Addrs), c.opts.TCP)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cl.Close()
		return nil, ErrClientClosed
	}
	if prior, ok := c.conns[shardID]; ok { // lost a dial race; keep the winner
		c.mu.Unlock()
		cl.Close()
		return prior, nil
	}
	c.conns[shardID] = cl
	c.mu.Unlock()
	return cl, nil
}

func joinAddrs(addrs []string) string {
	out := ""
	for i, a := range addrs {
		if i > 0 {
			out += ","
		}
		out += a
	}
	return out
}

// connForKey routes a key under the current map and returns the owning
// group's client plus the shard ID it routed to.
func (c *Client) connForKey(ctx context.Context, key uint64) (*tcp.Client, int, error) {
	id := c.Map().ShardOf(key)
	cl, err := c.connFor(ctx, id)
	return cl, id, err
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

// --- Routed single ops ---

// Put stores a key-value pair on the owning shard.
func (c *Client) Put(key uint64, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put bounded by ctx.
func (c *Client) PutCtx(ctx context.Context, key uint64, value []byte) error {
	c.ops.Add(1)
	for attempt := 0; ; attempt++ {
		cl, id, err := c.connForKey(ctx, key)
		if err != nil {
			return err
		}
		c.countShard(id, 1)
		err = cl.PutCtx(ctx, key, value)
		if !c.shouldReroute(err, attempt) {
			return err
		}
	}
}

// Get fetches a value from the owning shard.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get bounded by ctx.
func (c *Client) GetCtx(ctx context.Context, key uint64) ([]byte, bool, error) {
	c.ops.Add(1)
	for attempt := 0; ; attempt++ {
		cl, id, err := c.connForKey(ctx, key)
		if err != nil {
			return nil, false, err
		}
		c.countShard(id, 1)
		v, ok, err := cl.GetCtx(ctx, key)
		if !c.shouldReroute(err, attempt) {
			return v, ok, err
		}
	}
}

// Delete removes a key from the owning shard.
func (c *Client) Delete(key uint64) (bool, error) {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (c *Client) DeleteCtx(ctx context.Context, key uint64) (bool, error) {
	c.ops.Add(1)
	for attempt := 0; ; attempt++ {
		cl, id, err := c.connForKey(ctx, key)
		if err != nil {
			return false, err
		}
		c.countShard(id, 1)
		ok, err := cl.DeleteCtx(ctx, key)
		if !c.shouldReroute(err, attempt) {
			return ok, err
		}
	}
}

// shouldReroute reports whether err is a WrongShard redirect worth
// chasing: the hint must decode and the attempt budget must not be
// spent. The budget bounds the pathological case of cluster members
// that keep disagreeing about ownership (a stale hint cannot ping-pong
// forever). Replaying a write against the new owner is safe — each
// group's tcp.Client keeps its own dedup sessions, so the replay is a
// fresh (session, id) there and the rejected attempt applied nothing on
// the wrong server. The fan-out calls ask it per op, the round being the
// attempt.
func (c *Client) shouldReroute(err error, attempt int) bool {
	var ws *tcp.WrongShardError
	if !errors.As(err, &ws) || attempt >= c.opts.MaxReroutes {
		return false
	}
	if !c.adoptHint(ws.Hint) {
		return false
	}
	c.reroutes.Add(1)
	return true
}

// --- Fan-out multi-op calls ---

// shardBatch is one shard's slice of a split multi-op call: the op
// indices (into the caller's slice) this shard owns this round.
type shardBatch struct {
	id  int
	idx []int
}

// splitByShard groups op indices by owning shard under the current map.
// Groups come out ID-sorted, so sub-batch issue order is deterministic
// (completion order is not — the merge is positional).
func (c *Client) splitByShard(keys func(i int) uint64, idx []int) []shardBatch {
	m := c.Map()
	byShard := map[int][]int{}
	for _, i := range idx {
		id := m.ShardOf(keys(i))
		byShard[id] = append(byShard[id], i)
	}
	out := make([]shardBatch, 0, len(byShard))
	for id, ix := range byShard {
		out = append(out, shardBatch{id: id, idx: ix})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// fanOut issues one round of per-shard sub-batches concurrently and
// waits for all of them. run executes one shard's sub-batch and reports
// a transport-level error (per-op outcomes are its own business); the
// first transport error fails the round.
func (c *Client) fanOut(ctx context.Context, batches []shardBatch,
	run func(ctx context.Context, b shardBatch) error) error {
	if len(batches) == 1 {
		c.subBatches.Add(1)
		c.countShard(batches[0].id, uint64(len(batches[0].idx)))
		return run(ctx, batches[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for bi := range batches {
		c.subBatches.Add(1)
		c.countShard(batches[bi].id, uint64(len(batches[bi].idx)))
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			errs[bi] = run(ctx, batches[bi])
		}(bi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
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
	c.batches.Add(1)
	out := make([]tcp.MultiRes, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for round := 0; len(pending) > 0; round++ {
		batches := c.splitByShard(func(i int) uint64 { return keys[i] }, pending)
		var mu sync.Mutex
		var next []int
		err := c.fanOut(ctx, batches, func(ctx context.Context, b shardBatch) error {
			cl, err := c.connFor(ctx, b.id)
			if err != nil {
				return err
			}
			sub := make([]uint64, len(b.idx))
			for j, i := range b.idx {
				sub[j] = keys[i]
			}
			res, err := cl.MultiGetCtx(ctx, sub)
			if err != nil {
				return err
			}
			var redo []int
			for j, i := range b.idx {
				if c.shouldReroute(res[j].Err, round) {
					redo = append(redo, i)
					continue
				}
				out[i] = res[j]
			}
			if len(redo) > 0 {
				mu.Lock()
				next = append(next, redo...)
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pending = next
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
	c.batches.Add(1)
	out := make([]tcp.BatchRes, len(ops))
	pending := make([]int, len(ops))
	for i := range pending {
		pending[i] = i
	}
	for round := 0; len(pending) > 0; round++ {
		batches := c.splitByShard(func(i int) uint64 { return ops[i].Key }, pending)
		var mu sync.Mutex
		var next []int
		err := c.fanOut(ctx, batches, func(ctx context.Context, b shardBatch) error {
			cl, err := c.connFor(ctx, b.id)
			if err != nil {
				return err
			}
			sub := make([]tcp.BatchOp, len(b.idx))
			for j, i := range b.idx {
				sub[j] = ops[i]
			}
			res, err := cl.WriteBatchCtx(ctx, sub)
			if err != nil {
				return err
			}
			var redo []int
			for j, i := range b.idx {
				if c.shouldReroute(res[j].Err, round) {
					redo = append(redo, i)
					continue
				}
				out[i] = res[j]
			}
			if len(redo) > 0 {
				mu.Lock()
				next = append(next, redo...)
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pending = next
	}
	return out, nil
}

// MultiPut stores many pairs across the cluster, failing if any put
// failed.
func (c *Client) MultiPut(pairs []tcp.Pair) error {
	return c.MultiPutCtx(context.Background(), pairs)
}

// MultiPutCtx is MultiPut bounded by ctx.
func (c *Client) MultiPutCtx(ctx context.Context, pairs []tcp.Pair) error {
	ops := make([]tcp.BatchOp, len(pairs))
	for i := range pairs {
		ops[i] = tcp.BatchOp{Key: pairs[i].Key, Value: pairs[i].Value}
	}
	res, err := c.WriteBatchCtx(ctx, ops)
	if err != nil {
		return err
	}
	for i := range res {
		if res[i].Err != nil {
			return fmt.Errorf("cluster: multiput key %d: %w", pairs[i].Key, res[i].Err)
		}
	}
	return nil
}

// MultiDelete removes many keys across the cluster, reporting which
// existed.
func (c *Client) MultiDelete(keys []uint64) ([]bool, error) {
	return c.MultiDeleteCtx(context.Background(), keys)
}

// MultiDeleteCtx is MultiDelete bounded by ctx.
func (c *Client) MultiDeleteCtx(ctx context.Context, keys []uint64) ([]bool, error) {
	ops := make([]tcp.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = tcp.BatchOp{Key: k, Delete: true}
	}
	res, err := c.WriteBatchCtx(ctx, ops)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i := range res {
		if res[i].Err != nil {
			return nil, fmt.Errorf("cluster: multidelete key %d: %w", keys[i], res[i].Err)
		}
		out[i] = res[i].Existed
	}
	return out, nil
}
