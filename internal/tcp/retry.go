package tcp

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
	// RequestTimeout is the connection's one deadline: how long its
	// oldest unanswered request may stay unanswered. When it passes the
	// connection is suspect as a whole — it is torn down and the recovery
	// step redials and re-sends everything still unanswered. Default 10s;
	// negative: none.
	RequestTimeout time.Duration
	// MaxAttempts is the per-request attempt budget (first try included)
	// spent across reconnects, timeouts, and StatusBusy sheds.
	// Default 6.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff before a
	// redial or the re-send of a shed request; the actual sleep is
	// full-jitter uniform in (0, min(BackoffMax, BackoffBase<<attempt)].
	// Defaults 5ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Window bounds the in-flight Submit tickets (see pipeline.go) — the
	// paper's FlatRPC batchsize. Submit blocks while the window is full,
	// until an outstanding ticket completes. The sync calls and the
	// multi-op calls ride the same path but take no slot: their depth is
	// the caller's own concurrency. Default 8.
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

// backoff returns the sleep before attempt n+1 (n ≥ 1): full jitter over
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

// spent returns the error that ends t if it may not be sent again — its
// caller's ctx is done or its attempt budget is used up — and nil while
// it may. Caller holds c.mu.
func (c *Client) spent(t *Ticket) error {
	if err := t.ctx.Err(); err != nil {
		return fmt.Errorf("tcp: request %d: %w (last error: %v)", t.q.id, err, t.lastErr)
	}
	if t.attempts >= c.opts.MaxAttempts {
		return fmt.Errorf("tcp: request %d failed after %d attempts: %w", t.q.id, t.attempts, t.lastErr)
	}
	return nil
}

// retry is the client's one retry step, run on the reader's goroutine
// once the connection dead has died of cause (a broken pipe, a checksum
// failure, the deadline, a NotPrimary redirect). Every request that was
// in flight on it has used up an attempt; retry ends the ones whose
// budget or ctx is spent, redials with backoff (a failed dial is an
// attempt too), and re-sends whatever is still unanswered in id order
// under the original ids — reads are idempotent, and the server dedups
// writes on (session, id), so a replayed Put/Delete is applied and
// acknowledged exactly once. While nothing is pending the client stays
// disconnected; the next submission wakes the step. It returns once a new
// connection (with its own reader) has taken over, or the client is
// closed.
func (c *Client) retry(dead *clientConn, cause error) {
	cause = dead.fail(cause) // the first failure is why the read ended
	c.mu.Lock()
	if c.conn == dead {
		c.conn = nil
	}
	for _, t := range c.pend {
		if !t.sent.IsZero() {
			t.lastErr = cause
		}
	}
	for fails := 1; ; fails++ { // mu is held at the top of each round
		for id, t := range c.pend {
			if err := c.spent(t); err != nil {
				delete(c.pend, id)
				c.complete(t, response{}, err)
			}
		}
		for len(c.pend) == 0 && c.life.Err() == nil {
			c.work.Wait()
			fails = 0 // a fresh request: its first dial needs no backoff
		}
		c.mu.Unlock()
		if c.life.Err() != nil {
			return
		}
		if fails > 0 && sleep(c.life, c.backoff(fails)) != nil {
			return
		}
		cc, err := c.dialConn(c.life)
		if err == nil {
			c.resume(cc)
			return
		}
		c.mu.Lock()
		for _, t := range c.pend {
			t.attempts++
			t.lastErr = err
		}
	}
}

// resume makes cc the client's connection and replays the pending table
// onto it. Holding wmu across both means a concurrent submission lands
// either in the replay (it was already in the table) or behind it.
func (c *Client) resume(cc *clientConn) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.life.Err() != nil {
		c.mu.Unlock()
		cc.fail(ErrClosed)
		return
	}
	c.conn = cc
	ts := make([]*Ticket, 0, len(c.pend))
	for _, t := range c.pend {
		ts = append(ts, t)
	}
	c.mu.Unlock()
	// Frames held for the dead connection died with it; the replay
	// carries them.
	c.held.Store(0)
	c.onWire.Store(0)
	sort.Slice(ts, func(i, j int) bool { return ts[i].q.id < ts[j].q.id })
	c.send(ts, false, false)
}
