package cluster

// Routed single ops, sync and pipelined. Every one is a Ticket: it is
// sent to the group that owns its key under the current map, and if a
// server routing on a newer map turns it away (WrongShard), the client
// adopts that map and sends the op to the new owner, so the caller sees
// one completion with the final outcome. A sync call chases inline
// (routed → try) over the group's sync calls.
//
// The pipelined API is the fan-out analogue of the tcp client's
// Submit/Poll (tcp/pipeline.go). Each shard group keeps its own in-flight
// window (Options.Window on the per-group tcp.Client), so a cluster
// client can hold NumShards × Window submissions on the wire: depth per
// shard is what feeds each server's horizontal batching, and the
// per-shard windows fill independently — a slow shard back-pressures only
// submissions routed to it. Sync calls take no window slot, as in tcp. A
// pipelined ticket is its tcp ticket plus redirect state, and whoever
// reaps it (Wait or Poll) chases it: no goroutine runs per submission.

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"

	"flatstore/internal/tcp"
)

// Ticket is one routed op. The ones Submit* return are in flight: reap
// them with Wait or Poll — each final outcome is delivered exactly once
// across both.
type Ticket struct {
	c     *Client
	ctx   context.Context // the submitter's: a redirected op is sent again under it
	kind  opKind
	key   uint64
	value []byte // Put payload

	// A submitted ticket's send in flight. A reaper claims its answer by
	// swapping it for nil, so one reaper takes each answer; while inner is
	// nil and fin unset, that reaper is sending the op to the new owner.
	inner   atomic.Pointer[tcp.Ticket]
	attempt int         // redirects chased so far (by the claiming reaper)
	fin     atomic.Bool // final: set after the outcome below
	val     []byte      // Get result
	ok      bool        // Get: found; Delete: existed
	err     error
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

// Done reports whether the outcome is final: a Wait or Poll has taken an
// answer that is not a redirect to chase.
func (t *Ticket) Done() bool { return t.fin.Load() }

// Err returns the submission's outcome, or tcp.ErrInFlight before it is
// final.
func (t *Ticket) Err() error {
	if !t.Done() {
		return tcp.ErrInFlight
	}
	return t.err
}

// Value returns a final Get's result; ok is false while in flight, on
// error, or when the key was absent.
func (t *Ticket) Value() ([]byte, bool) {
	if !t.Done() || t.err != nil {
		return nil, false
	}
	return t.val, t.ok
}

// Existed reports whether a final Delete's key was present.
func (t *Ticket) Existed() bool { return t.Done() && t.ok }

// Wait blocks until the ticket is final (reaping it) or ctx fires. It
// chases a redirect itself: the new owner's answer is waited for in the
// same call. Waiting again on a reaped ticket just returns the outcome.
func (t *Ticket) Wait(ctx context.Context) error {
	for !t.reap() && !t.Done() {
		if in := t.inner.Load(); in != nil {
			in.Wait(ctx)
		} else {
			runtime.Gosched() // another reaper is sending it to the new owner
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return t.err
}

// Poll reaps up to max final tickets (max <= 0: every one that is ready)
// without waiting for an answer. A ticket answered with a redirect is
// sent to the new owner instead and stays pending; that send blocks only
// while the new owner's window is full (or its group is first dialled),
// the back-pressure a Submit meets, which the group's connection reader
// relieves without any reaper. Like the tcp client's, a Poll that finds
// nothing yields the processor once. The returned slice is the caller's.
func (c *Client) Poll(max int) []*Ticket {
	var ready []*Ticket
	c.pmu.Lock()
	for _, t := range c.pend {
		if in := t.inner.Load(); in != nil && in.Done() {
			ready = append(ready, t)
		}
	}
	c.pmu.Unlock()
	out := ready[:0]
	for _, t := range ready {
		if (max <= 0 || len(out) < max) && t.reap() {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		runtime.Gosched()
	}
	return out
}

// InFlight reports the cluster submissions posted but not yet final.
func (c *Client) InFlight() int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return len(c.pend)
}

// reap takes the answer to t's current send if it has arrived and no
// other reaper claimed it first. A redirect worth chasing goes to the new
// owner's window; anything else is t's final outcome, and t leaves the
// pending list. It reports whether this call made t final.
func (t *Ticket) reap() bool {
	in := t.inner.Load()
	if in == nil || !in.Done() || !t.inner.CompareAndSwap(in, nil) {
		return false
	}
	err := in.Wait(t.ctx) // answered: this only reaps it from the group's client
	if t.c.shouldReroute(err, t.attempt) {
		t.attempt++
		if in, err = t.send(); err == nil {
			t.inner.Store(in)
			return false
		}
	} else {
		t.val, t.ok = in.Value() // a ticket Wait reaped keeps its value for good
	}
	c := t.c
	c.pmu.Lock()
	i := slices.Index(c.pend, t)
	c.pend = slices.Delete(c.pend, i, i+1)
	c.pmu.Unlock()
	t.err = err
	t.fin.Store(true)
	return true
}

// send posts t into the window of the group that owns its key under the
// map of the moment, blocking while that window is full.
func (t *Ticket) send() (*tcp.Ticket, error) {
	g, err := t.c.owner(t.ctx, t.key)
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case kindPut:
		return g.cl.SubmitPut(t.ctx, t.key, t.value)
	case kindGet:
		return g.cl.SubmitGet(t.ctx, t.key)
	default:
		return g.cl.SubmitDelete(t.ctx, t.key)
	}
}

// try sends t once, to the group that owns its key under the map of the
// moment, as a sync call beside that group's window.
func (c *Client) try(ctx context.Context, t *Ticket) error {
	g, err := c.owner(ctx, t.key)
	if err != nil {
		return err
	}
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

// routed runs a sync op to its final outcome: send it, and while the
// answer is a redirect worth following (shouldReroute adopts the hinted
// map), send it to the new owner.
func (c *Client) routed(ctx context.Context, t *Ticket) error {
	c.ops.Add(1)
	err := c.try(ctx, t)
	for ; c.shouldReroute(err, t.attempt); t.attempt++ {
		err = c.try(ctx, t)
	}
	return err
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

// submit sends the op into its owning group's window (blocking there if
// the window is full — routing happens first, so only the owning shard
// back-pressures) and lists it as pending for the reapers.
func (c *Client) submit(ctx context.Context, kind opKind, key uint64, value []byte) (*Ticket, error) {
	c.ops.Add(1)
	t := &Ticket{c: c, ctx: ctx, kind: kind, key: key, value: value}
	in, err := t.send()
	if err != nil {
		return nil, err
	}
	t.inner.Store(in)
	c.pmu.Lock()
	c.pend = append(c.pend, t)
	c.pmu.Unlock()
	return t, nil
}
