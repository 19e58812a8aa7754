package tcp

// Multi-op client calls: MultiGet, MultiPut, MultiDelete, and the
// generic WriteBatch pack many operations into one wire frame (opBatch),
// which the server decodes into the per-core pending pools in one shot —
// one frame can seal into one horizontal-batch oplog write. Each sub-op
// is a ticket of its own with its own request id, so the server's
// (session, id) dedup gives replayed sub-ops the same exactly-once ack
// semantics as single writes: after a lost connection only the
// still-unanswered ones are re-sent, and the ones that were applied are
// acknowledged from the dedup table.

import (
	"context"
	"fmt"
)

// doAll runs qs to completion as one multi-op frame, beside the window:
// post a ticket per request, wait for them all, and hand each to read
// with its index; then the tickets go back to the client for reuse.
// Per-op failures the server answered with stay on their tickets; a
// request the transport gave up on fails the call, which then calls no
// read.
func (c *Client) doAll(ctx context.Context, qs []request, read func(int, *Ticket)) error {
	ts := make([]*Ticket, len(qs))
	for i := range qs {
		ts[i] = c.ticket(ctx, qs[i], false)
	}
	defer func() {
		for _, t := range ts {
			c.recycle(t)
		}
	}()
	if err := c.post(ts...); err != nil {
		return err
	}
	for _, t := range ts {
		if err := t.Wait(ctx); err != nil && !t.answered() {
			return err
		}
	}
	for i, t := range ts {
		read(i, t)
	}
	return nil
}

// MultiRes is one MultiGet result.
type MultiRes struct {
	Value []byte
	OK    bool  // key present
	Err   error // per-key server-side failure
}

// MultiGet fetches many keys through one wire frame.
func (c *Client) MultiGet(keys []uint64) ([]MultiRes, error) {
	return c.MultiGetCtx(context.Background(), keys)
}

// MultiGetCtx is MultiGet bounded by ctx.
func (c *Client) MultiGetCtx(ctx context.Context, keys []uint64) ([]MultiRes, error) {
	qs := make([]request, len(keys))
	for i, k := range keys {
		qs[i] = request{op: opGet, key: k}
	}
	out := make([]MultiRes, len(keys))
	if err := c.doAll(ctx, qs, func(i int, t *Ticket) {
		out[i].Value, out[i].OK = t.Value()
		out[i].Err = t.err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchOp is one write in a generic batch: a Put of Value under Key, or
// a Delete of Key when Delete is set (Value is then ignored).
type BatchOp struct {
	Key    uint64
	Value  []byte
	Delete bool
}

// BatchRes is one write-batch outcome.
type BatchRes struct {
	Existed bool  // for deletes: the key was present
	Err     error // server-side failure of this op
}

// WriteBatch applies a mixed batch of puts and deletes through one wire
// frame. The batch is not atomic — each op lands (and is acked)
// individually — but every op is applied exactly once even across
// retries and reconnects.
func (c *Client) WriteBatch(ops []BatchOp) ([]BatchRes, error) {
	return c.WriteBatchCtx(context.Background(), ops)
}

// WriteBatchCtx is WriteBatch bounded by ctx.
func (c *Client) WriteBatchCtx(ctx context.Context, ops []BatchOp) ([]BatchRes, error) {
	qs := make([]request, len(ops))
	for i := range ops {
		if ops[i].Delete {
			qs[i] = request{op: opDelete, key: ops[i].Key}
		} else {
			qs[i] = request{op: opPut, key: ops[i].Key, value: ops[i].Value}
		}
	}
	out := make([]BatchRes, len(ops))
	if err := c.doAll(ctx, qs, func(i int, t *Ticket) { out[i] = BatchRes{Existed: t.ok, Err: t.err} }); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchWriter is what MultiPut is written over: anything that applies a
// WriteBatch — a Client, or the cluster client, which splits the batch
// across many.
type BatchWriter interface {
	WriteBatchCtx(ctx context.Context, ops []BatchOp) ([]BatchRes, error)
}

// PutAll stores pairs through w as one write batch, failing if any put
// failed.
func PutAll(ctx context.Context, w BatchWriter, pairs []Pair) error {
	ops := make([]BatchOp, len(pairs))
	for i := range pairs {
		ops[i] = BatchOp{Key: pairs[i].Key, Value: pairs[i].Value}
	}
	res, err := w.WriteBatchCtx(ctx, ops)
	if err != nil {
		return err
	}
	for i := range res {
		if res[i].Err != nil {
			return fmt.Errorf("multiput key %d: %w", pairs[i].Key, res[i].Err)
		}
	}
	return nil
}

// MultiPut stores many pairs through one wire frame, failing if any put
// failed.
func (c *Client) MultiPut(pairs []Pair) error {
	return PutAll(context.Background(), c, pairs)
}

// MultiDelete removes many keys through one wire frame, reporting which
// existed.
func (c *Client) MultiDelete(keys []uint64) ([]bool, error) {
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Key: k, Delete: true}
	}
	res, err := c.WriteBatch(ops)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i := range res {
		if res[i].Err != nil {
			return nil, fmt.Errorf("multidelete key %d: %w", keys[i], res[i].Err)
		}
		out[i] = res[i].Existed
	}
	return out, nil
}
