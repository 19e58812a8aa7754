package cluster

// Routed single ops, sync and pipelined. Every one is a Ticket: it is
// sent to the group that owns its key under the current map, and chase —
// the one WrongShard self-heal — follows it if a server routing on a
// newer map turns it away: adopt that map, send the op to the new owner,
// so the caller sees one completion with the final outcome.
//
// The pipelined API is the fan-out analogue of the tcp client's
// Submit/Poll (tcp/pipeline.go). Each shard group keeps its own in-flight
// window (Options.Window on the per-group tcp.Client), so a cluster
// client can hold NumShards × Window submissions on the wire: depth per
// shard is what feeds each server's horizontal batching, and the
// per-shard windows fill independently — a slow shard back-pressures only
// submissions routed to it. Sync calls take no window slot, as in tcp.

import (
	"context"
	"runtime"
	"sync/atomic"

	"flatstore/internal/tcp"
)

// Ticket is one routed op. The ones Submit* return are in flight: reap
// them with Wait or Poll — each completion is delivered exactly once
// across both.
type Ticket struct {
	c      *Client
	kind   opKind
	key    uint64
	value  []byte        // Put payload
	done   chan struct{} // a Submit ticket's completion signal
	val    []byte        // Get result
	ok     bool          // Get: found; Delete: existed
	err    error
	reaped atomic.Bool
}

// opKind discriminates the routed op types.
type opKind uint8

const (
	kindPut opKind = iota
	kindGet
	kindDelete
)

// Key returns the key the submission targets.
func (t *Ticket) Key() uint64 { return t.key }

// Done reports completion without reaping the ticket.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Err returns the submission's outcome, or tcp.ErrInFlight before
// completion.
func (t *Ticket) Err() error {
	if !t.Done() {
		return tcp.ErrInFlight
	}
	return t.err
}

// Value returns a completed Get's result; ok is false while in flight,
// on error, or when the key was absent.
func (t *Ticket) Value() ([]byte, bool) {
	if !t.Done() || t.err != nil {
		return nil, false
	}
	return t.val, t.ok
}

// Existed reports whether a completed Delete's key was present.
func (t *Ticket) Existed() bool { return t.Done() && t.ok }

// reap marks the completion delivered; the caller holds compMu (same
// protocol as the tcp ticket: in the completion set only while unreaped).
func (t *Ticket) reap() {
	t.reaped.Store(true)
	delete(t.c.comp, t)
}

// Wait blocks until the ticket completes (reaping it) or ctx fires.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		t.c.compMu.Lock()
		t.reap()
		t.c.compMu.Unlock()
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Poll reaps up to max completed tickets (max <= 0: every one that is
// ready) without blocking; like the tcp client's, a Poll that finds
// nothing yields the processor once, so a polling loop does not starve
// what it waits on. Like the tcp client's too, the result is the client's
// one reap slice, valid until the next Poll: one goroutine at a time
// reaps with Poll.
func (c *Client) Poll(max int) []*Ticket {
	c.compMu.Lock()
	n := len(c.comp)
	if max > 0 && max < n {
		n = max
	}
	prev := len(c.polled)
	out := c.polled[:0]
	for t := range c.comp {
		if len(out) == n {
			break
		}
		t.reap()
		out = append(out, t)
	}
	if len(out) < prev {
		clear(c.polled[len(out):prev]) // the earlier Poll's tickets are the caller's
	}
	c.polled = out
	c.compMu.Unlock()
	if len(out) == 0 {
		runtime.Gosched()
	}
	return out
}

// InFlight reports the cluster submissions posted but not yet
// completed, summed over every shard group's window.
func (c *Client) InFlight() int { return int(c.inflight.Load()) }

// try sends t once, to the group that owns its key under the map of the
// moment, as a sync call beside that group's window.
func (c *Client) try(ctx context.Context, t *Ticket) error {
	g, err := c.groupForKey(ctx, t.key)
	if err != nil {
		return err
	}
	g.ops.Add(1)
	switch t.kind {
	case kindPut:
		return g.cl.PutCtx(ctx, t.key, t.value)
	case kindGet:
		t.val, t.ok, err = g.cl.GetCtx(ctx, t.key)
	default:
		t.ok, err = g.cl.DeleteCtx(ctx, t.key)
	}
	return err
}

// chase is the one WrongShard chase of the single ops. err is the
// outcome of t's first send; while it is a redirect worth following
// (shouldReroute adopts the hinted map), t goes to the new owner.
func (c *Client) chase(ctx context.Context, t *Ticket, err error) error {
	for attempt := 0; c.shouldReroute(err, attempt); attempt++ {
		err = c.try(ctx, t)
	}
	return err
}

// routed runs a sync op to its final outcome: send, chase.
func (c *Client) routed(ctx context.Context, t *Ticket) error {
	c.ops.Add(1)
	return c.chase(ctx, t, c.try(ctx, t))
}

// Put stores a key-value pair on the owning shard.
func (c *Client) Put(key uint64, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put bounded by ctx.
func (c *Client) PutCtx(ctx context.Context, key uint64, value []byte) error {
	return c.routed(ctx, &Ticket{kind: kindPut, key: key, value: value})
}

// Get fetches a value from the owning shard.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get bounded by ctx.
func (c *Client) GetCtx(ctx context.Context, key uint64) ([]byte, bool, error) {
	t := Ticket{kind: kindGet, key: key}
	err := c.routed(ctx, &t)
	return t.val, t.ok, err
}

// Delete removes a key from the owning shard.
func (c *Client) Delete(key uint64) (bool, error) {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (c *Client) DeleteCtx(ctx context.Context, key uint64) (bool, error) {
	t := Ticket{kind: kindDelete, key: key}
	err := c.routed(ctx, &t)
	return t.ok, err
}

// SubmitPut queues an asynchronous durable Put on the owning shard. It
// blocks while that shard group's window is full. The caller must not
// modify value until the ticket completes: retries and re-routes
// re-send it.
func (c *Client) SubmitPut(ctx context.Context, key uint64, value []byte) (*Ticket, error) {
	return c.submit(ctx, kindPut, key, value)
}

// SubmitGet queues an asynchronous Get on the owning shard.
func (c *Client) SubmitGet(ctx context.Context, key uint64) (*Ticket, error) {
	return c.submit(ctx, kindGet, key, nil)
}

// SubmitDelete queues an asynchronous Delete on the owning shard.
func (c *Client) SubmitDelete(ctx context.Context, key uint64) (*Ticket, error) {
	return c.submit(ctx, kindDelete, key, nil)
}

// submit routes the op to its owning group and posts it into that
// group's pipelined window (blocking there if the window is full —
// routing happens first, so only the owning shard back-pressures). A
// goroutine waits for the group's answer, chases it if it is a WrongShard
// redirect, then completes the cluster ticket and publishes it for Poll.
func (c *Client) submit(ctx context.Context, kind opKind, key uint64, value []byte) (*Ticket, error) {
	c.ops.Add(1)
	g, err := c.groupForKey(ctx, key)
	if err != nil {
		return nil, err
	}
	g.ops.Add(1)
	var inner *tcp.Ticket
	switch kind {
	case kindPut:
		inner, err = g.cl.SubmitPut(ctx, key, value)
	case kindGet:
		inner, err = g.cl.SubmitGet(ctx, key)
	default:
		inner, err = g.cl.SubmitDelete(ctx, key)
	}
	if err != nil {
		return nil, err
	}
	c.inflight.Add(1)
	t := &Ticket{c: c, kind: kind, key: key, value: value, done: make(chan struct{})}
	go func() {
		err := inner.Wait(ctx)
		t.val, t.ok = inner.Value()
		t.err = c.chase(ctx, t, err)
		c.inflight.Add(-1)
		close(t.done)
		c.compMu.Lock()
		if !t.reaped.Load() {
			c.comp[t] = struct{}{}
		}
		c.compMu.Unlock()
	}()
	return t, nil
}
