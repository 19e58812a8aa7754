package tcp

// Multi-op client calls: MultiGet, MultiPut, MultiDelete, and the
// generic WriteBatch pack many operations into one wire frame (opBatch),
// which the server decodes into the per-core pending pools in one shot —
// one frame can seal into one horizontal-batch oplog write. Each sub-op
// keeps its own request id, so the server's (session, id) dedup gives
// replayed multi-op frames the same exactly-once ack semantics as single
// writes: a retried frame re-sends only the still-unanswered sub-ops,
// and the ones that were applied are acknowledged from the dedup table.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// batchTrip sends one multi-op frame carrying ops and delivers responses
// as they arrive (on the caller's goroutine, via deliver) until every id
// has answered, the per-attempt deadline d passes, or ctx fires. All
// sub-responses funnel through one channel sized for the whole batch, so
// the readLoop's under-lock send can never block.
func (cc *clientConn) batchTrip(ctx context.Context, ops []request, d time.Duration, deliver func(response)) error {
	ch := make(chan response, len(ops))
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	for i := range ops {
		cc.pend[ops[i].id] = ch
	}
	cc.mu.Unlock()

	cc.wmu.Lock()
	cc.enc = appendBatchFrame(cc.enc[:0], ops)
	err := writeFrame(cc.bw, cc.enc)
	if err == nil {
		err = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(fmt.Errorf("tcp: write: %w", err))
		return err
	}

	var expire <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expire = t.C
	}
	for got := 0; got < len(ops); {
		select {
		case rs, ok := <-ch:
			if !ok {
				// Closed by fail — buffered responses were drained first,
				// so everything that arrived has been delivered.
				cc.mu.Lock()
				err := cc.err
				cc.mu.Unlock()
				if err == nil {
					err = ErrTimeout
				}
				return err
			}
			deliver(rs)
			got++
		case <-ctx.Done():
			cc.forgetIDs(ch, ops)
			return ctx.Err()
		case <-expire:
			cc.forgetIDs(ch, ops)
			return ErrTimeout
		}
	}
	return nil
}

// multiCall runs a set of logical requests to completion as multi-op
// frames. Ids are assigned once — they are the dedup keys the server
// sees on every replay — and each attempt re-frames only the
// still-unanswered ops: sub-ops answered on a previous attempt keep
// their recorded result, busy sheds and NotPrimary refusals stay pending
// (the latter re-point the client at the primary first, like call), and
// writes applied before a connection died are acked from the server's
// dedup table.
func (c *Client) multiCall(ctx context.Context, ops []request) ([]response, error) {
	n := len(ops)
	if n == 0 {
		return nil, nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	for i := range ops {
		c.nextID++
		ops[i].id = c.nextID
	}
	c.mu.Unlock()

	results := make([]response, n)
	done := make([]bool, n)
	idIdx := make(map[uint64]int, n)
	for i := range ops {
		idIdx[ops[i].id] = i
	}
	ndone := 0
	var lastErr error
	sub := make([]request, 0, n)
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleep(ctx, c.backoff(attempt-1)); err != nil {
				return nil, fmt.Errorf("tcp: batch: %w (last error: %v)", err, lastErr)
			}
		}
		cc, err := c.connection(ctx)
		if err != nil {
			if errors.Is(err, ErrClosed) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		sub = sub[:0]
		for i := range ops {
			if done[i] {
				continue
			}
			ops[i].core = c.route(ops[i].key) // re-route per attempt
			sub = append(sub, ops[i])
		}
		notPrimary, primary := false, []byte(nil)
		err = cc.batchTrip(ctx, sub, c.opts.RequestTimeout, func(rs response) {
			i, ok := idIdx[rs.id]
			if !ok || done[i] {
				return
			}
			switch rs.status {
			case statusBusy:
				return // shed: stays pending for the next attempt
			case statusNotPrimary:
				notPrimary, primary = true, rs.value
				return // refused by a replica: stays pending for the primary
			}
			results[i] = rs
			done[i] = true
			ndone++
		})
		if err != nil {
			// The connection is suspect; drop it so the next attempt
			// redials (matching the single-op retry path).
			c.dropConn(cc, err)
			if errors.Is(err, ErrClosed) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		if ndone == n {
			return results, nil
		}
		lastErr = ErrBusy
		if notPrimary {
			lastErr = ErrNotPrimary
			c.redirect(cc, primary)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tcp: batch: %w (last error: %v)", err, lastErr)
		}
	}
	return nil, fmt.Errorf("tcp: batch failed after %d attempts (%d/%d ops answered): %w",
		c.opts.MaxAttempts, ndone, n, lastErr)
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
	ops := make([]request, len(keys))
	for i, k := range keys {
		ops[i] = request{op: opGet, key: k}
	}
	rss, err := c.multiCall(ctx, ops)
	if err != nil {
		return nil, err
	}
	out := make([]MultiRes, len(keys))
	for i := range rss {
		switch rss[i].status {
		case statusOK:
			out[i] = MultiRes{Value: rss[i].value, OK: true}
		case statusNotFound:
		default:
			out[i].Err = statusToErr("get", rss[i].status, rss[i].value)
		}
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
	wire := make([]request, len(ops))
	for i := range ops {
		if ops[i].Delete {
			wire[i] = request{op: opDelete, key: ops[i].Key}
		} else {
			wire[i] = request{op: opPut, key: ops[i].Key, value: ops[i].Value}
		}
	}
	rss, err := c.multiCall(ctx, wire)
	if err != nil {
		return nil, err
	}
	out := make([]BatchRes, len(ops))
	for i := range rss {
		switch {
		case rss[i].status == statusOK:
			out[i].Existed = true
		case rss[i].status == statusNotFound && ops[i].Delete:
			// Absent key: a normal delete outcome, not an error.
		case rss[i].status == statusWrongShard:
			out[i].Err = &WrongShardError{Hint: rss[i].value}
		default:
			out[i].Err = fmt.Errorf("tcp: batch op %d failed (status %d)", i, rss[i].status)
		}
	}
	return out, nil
}

// MultiPut stores many pairs through one wire frame, failing if any put
// failed.
func (c *Client) MultiPut(pairs []Pair) error {
	return c.MultiPutCtx(context.Background(), pairs)
}

// MultiPutCtx is MultiPut bounded by ctx.
func (c *Client) MultiPutCtx(ctx context.Context, pairs []Pair) error {
	ops := make([]BatchOp, len(pairs))
	for i := range pairs {
		ops[i] = BatchOp{Key: pairs[i].Key, Value: pairs[i].Value}
	}
	res, err := c.WriteBatchCtx(ctx, ops)
	if err != nil {
		return err
	}
	for i := range res {
		if res[i].Err != nil {
			return fmt.Errorf("tcp: multiput key %d: %w", pairs[i].Key, res[i].Err)
		}
	}
	return nil
}

// MultiDelete removes many keys through one wire frame, reporting which
// existed.
func (c *Client) MultiDelete(keys []uint64) ([]bool, error) {
	return c.MultiDeleteCtx(context.Background(), keys)
}

// MultiDeleteCtx is MultiDelete bounded by ctx.
func (c *Client) MultiDeleteCtx(ctx context.Context, keys []uint64) ([]bool, error) {
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Key: k, Delete: true}
	}
	res, err := c.WriteBatchCtx(ctx, ops)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i := range res {
		if res[i].Err != nil {
			return nil, fmt.Errorf("tcp: multidelete key %d: %w", keys[i], res[i].Err)
		}
		out[i] = res[i].Existed
	}
	return out, nil
}
