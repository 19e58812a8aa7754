package tcp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Options tunes the client's resilience machinery. The zero value asks
// for the defaults below; set a field negative to disable it where that
// is meaningful (timeouts, attempts).
type Options struct {
	// DialTimeout bounds one connect attempt, including the handshake
	// read and hello write, so a black-holed address cannot hang the
	// caller. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one round trip of one attempt. A request
	// that times out marks the connection suspect: the client tears it
	// down and the next attempt redials. Default 10s; negative: none.
	RequestTimeout time.Duration
	// MaxAttempts is the per-call attempt budget (first try included)
	// spent across reconnects, timeouts, and StatusBusy sheds.
	// Default 6.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// attempts; the actual sleep is full-jitter uniform in
	// (0, min(BackoffMax, BackoffBase<<attempt)]. Defaults 5ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Window bounds the in-flight pipelined submissions (Submit tickets,
	// see pipeline.go) — the paper's FlatRPC batchsize. Submit blocks
	// when the window is full until a completion is reaped. The sync
	// Put/Get/Delete/Scan calls are depth-1 by construction and do not
	// consume window slots. Default 8.
	Window int
	// Seed seeds the client's RNG: the randomized starting position in
	// the candidate address list (so a fleet of clients handed the same
	// list does not dial the same server first — the connect-time
	// thundering herd) and the backoff jitter. 0 draws a random seed;
	// tests set it for determinism.
	Seed int64
}

// Default resilience parameters (see Options).
const (
	DefaultDialTimeout    = 5 * time.Second
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxAttempts    = 6
	DefaultBackoffBase    = 5 * time.Millisecond
	DefaultBackoffMax     = 500 * time.Millisecond
	DefaultWindow         = 8
)

// withDefaults resolves the zero value to the documented defaults.
func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	return o
}

// ErrTimeout reports a request that outlived Options.RequestTimeout.
var ErrTimeout = errors.New("tcp: request timed out")

// ErrBusy reports a server overload shed (StatusBusy) that survived the
// whole retry budget.
var ErrBusy = errors.New("tcp: server busy")

// ErrNotPrimary reports a write that kept landing on read replicas for
// the whole retry budget (the cluster had no reachable primary).
var ErrNotPrimary = errors.New("tcp: no reachable primary")

// backoff returns the sleep before attempt n (n ≥ 1): full jitter over
// an exponentially growing cap, so a thundering herd of retriers
// decorrelates instead of re-colliding.
func (c *Client) backoff(n int) time.Duration {
	max := c.opts.BackoffMax
	if d := c.opts.BackoffBase << uint(n-1); d < max && d > 0 {
		max = d
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max))) + 1
	c.rngMu.Unlock()
	return d
}

// sleep waits d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call runs one logical request to completion: it assigns the request a
// stable id (the dedup key the server sees on every replay), then loops
// over attempts — (re)connecting with backoff, round-tripping with the
// per-request deadline, and treating connection failures, timeouts, and
// StatusBusy sheds as retryable. Reads are naturally idempotent; writes
// are safe to replay because the server dedups on (session, id) and acks
// a replayed Put/Delete exactly once.
func (c *Client) call(ctx context.Context, q request) (response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, ErrClosed
	}
	c.nextID++
	q.id = c.nextID
	c.mu.Unlock()

	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleep(ctx, c.backoff(attempt-1)); err != nil {
				return response{}, fmt.Errorf("tcp: request %d: %w (last error: %v)", q.id, err, lastErr)
			}
		}
		cc, err := c.connection(ctx)
		if err != nil {
			if errors.Is(err, ErrClosed) || ctx.Err() != nil {
				return response{}, err
			}
			lastErr = err
			continue
		}
		q.core = c.route(q.key) // re-route: the core count may have changed
		rs, err := cc.roundTrip(ctx, q, c.opts.RequestTimeout)
		if err != nil {
			// The connection is suspect (broken pipe, checksum failure,
			// or deadline blown); drop it so the next attempt redials.
			c.dropConn(cc, err)
			if errors.Is(err, ErrClosed) || ctx.Err() != nil {
				return response{}, err
			}
			lastErr = err
			continue
		}
		if rs.status == statusNotPrimary {
			lastErr = ErrNotPrimary
			c.redirect(cc, rs.value)
			if err := ctx.Err(); err != nil {
				return response{}, fmt.Errorf("tcp: request %d: %w (last error: %v)", q.id, err, lastErr)
			}
			continue
		}
		if rs.status == statusBusy {
			lastErr = ErrBusy // shed: connection is fine, just back off
			// Bail out before the next backoff sleep if the caller is
			// gone; the sleep would only delay the inevitable.
			if err := ctx.Err(); err != nil {
				return response{}, fmt.Errorf("tcp: request %d: %w (last error: %v)", q.id, err, lastErr)
			}
			continue
		}
		return rs, nil
	}
	return response{}, fmt.Errorf("tcp: request %d failed after %d attempts: %w",
		q.id, c.opts.MaxAttempts, lastErr)
}

// redirect follows a StatusNotPrimary answer on cc: that server is a read
// replica and did NOT apply the op. Re-point at the primary it named (or
// the next candidate if it doesn't know one) and drop the connection, so
// the next attempt replays there — ids are stable, but the dedup session
// is per server identity, so the replay cannot alias state on the old
// node. The single-op and the multi-op retry loops share it.
func (c *Client) redirect(cc *clientConn, primary []byte) {
	c.retarget(string(primary))
	c.dropConn(cc, ErrNotPrimary)
}

// newRNG seeds the jitter source; the seed mixes the session id so
// clients created in the same nanosecond still decorrelate.
func newRNG(session uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(session) ^ time.Now().UnixNano()))
}
