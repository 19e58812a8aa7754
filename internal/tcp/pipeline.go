package tcp

// The client path — the TCP analogue of the paper's FlatRPC client model
// (§5): post up to Options.Window asynchronous submissions, then reap
// completions with Wait or Poll while the window refills. Depth is what
// keeps the server's horizontal batching fed: with W requests in flight,
// the per-op wire round trip amortizes across the window instead of
// bounding throughput at 1/RTT.
//
//	for i, kv := range work {
//	    t, err := cl.SubmitPut(ctx, kv.Key, kv.Value) // blocks when window full
//	    ...
//	    for _, done := range cl.Poll(0) {             // reap whatever finished
//	        if done.Err() != nil { ... }
//	    }
//	}
//
// There is one path: a Ticket is the client's pending-table entry, post
// gives it its id and puts it on the wire in the same critical section,
// the connection's reader completes it, and the retry step re-sends it
// under the same id if the connection dies first. A sync call is that
// path at depth one — post a ticket, Wait — and a multi-op call is N
// tickets posted as one frame; neither starts a goroutine or a timer.
//
// Every ticket comes from the client's spare list, wake channel and all,
// and goes back once the reaper that took it is done with it: a sync or
// multi-op call's when the call returns, a Poll's at the next Poll. A
// ticket its caller reaped with Wait stays the caller's.
//
// The flush rule is Nagle's algorithm over the pending table: a request
// frame may wait in the connection's bufio.Writer only while an earlier
// request is on the wire and unanswered — the server is busy, and its
// answer will come. A windowed submit flushes at once when nothing flushed
// is unanswered, when its ticket fills the window, or when its frame is
// larger than holdMax; anything else is held
// until one of four points flushes it: a Submit that blocks on a full
// window, a Wait on an unfinished ticket, a Poll that reaps nothing while
// nothing flushed is unanswered, and the connection's reader answering the
// last flushed request. Every other write (sync calls, multi-op frames,
// Busy resends, replays) flushes at once, held frames included, so a
// burst of submissions costs one write syscall instead of one each.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"flatstore/internal/core"
)

// ErrInFlight reports a result accessor called before the ticket
// completed.
var ErrInFlight = errors.New("tcp: ticket still in flight")

// ErrTooLarge reports a request, or a multi-op call, whose frame would
// exceed the protocol's limits (maxFrame bytes, maxBatchOps requests). It
// is refused before anything is sent, and sending it again cannot succeed.
var ErrTooLarge = errors.New("tcp: request frame exceeds the protocol's limits")

// Ticket is one request in flight. A Submit ticket holds one window slot
// from Submit until the request *completes*, so at most Options.Window
// of them are on the wire at once; a blocked Submit wakes as soon as any
// outstanding one finishes. Delivery to the application is a separate
// exactly-once step — *reaping* — done either by the ticket's own Wait
// returning or by the ticket appearing in one Poll batch, never both.
type Ticket struct {
	c        *Client
	ctx      context.Context // the submitter's: once done, the request is not sent again
	q        request         // q.id is assigned by post and stable across re-sends
	windowed bool            // a Submit ticket: holds a window slot, is published to Poll

	// Guarded by Client.mu while the ticket is pending.
	attempts int       // times sent, plus failed dials sat through
	sent     time.Time // when it last went on the wire; zero while it waits out a Busy backoff
	lastErr  error     // why the last attempt did not end it

	// Written under Client.compMu. done has capacity 1 and is made with
	// the ticket: complete signals it, and each Wait it wakes passes the
	// signal on, so one channel serves every request the ticket carries.
	fin     atomic.Bool // completed: set after the result fields below
	done    chan struct{}
	waiters int         // Waits blocked on it: complete leaves it to them, not to Poll
	reaped  atomic.Bool // delivered by Wait or Poll

	rs  response // the server's terminal answer; zero when the transport gave up
	ok  bool     // Get: found; Delete: existed
	err error
}

// syncCallers is how many goroutines making sync calls on one client at
// once its spare list serves, beside a full window of Submit tickets.
const syncCallers = 16

// ticket returns a ticket for q: a spare one if the client has one, else
// a new one with its wake channel.
func (c *Client) ticket(ctx context.Context, q request, windowed bool) *Ticket {
	var t *Ticket
	select {
	case t = <-c.spare:
	default:
		t = &Ticket{c: c, done: make(chan struct{}, 1)}
	}
	t.ctx, t.q, t.windowed = ctx, q, windowed
	return t
}

// recycle hands t back to the spare list once the reaper that took it is
// done with it. Only a reaped ticket goes back, which no part of the client
// can still reach: one never posted, or left pending by a Wait that gave up
// on its ctx, does not. Nor does one that an attempt failed on (a lost
// connection, a failed dial, a Busy shed): it may have been sent again, and
// a resend timer may still name it.
func (c *Client) recycle(t *Ticket) {
	if !t.reaped.Load() || t.lastErr != nil {
		return
	}
	select {
	case <-t.done: // the signal no Wait took
	default:
	}
	*t = Ticket{c: c, done: t.done}
	select {
	case c.spare <- t:
	default:
	}
}

// Key returns the key the submission targets.
func (t *Ticket) Key() uint64 { return t.q.key }

// Done reports completion without reaping the ticket.
func (t *Ticket) Done() bool { return t.fin.Load() }

// Err returns the submission's outcome, or ErrInFlight before
// completion. nil means the op succeeded (for Get/Delete, "key absent"
// is success — see Value/Existed).
func (t *Ticket) Err() error {
	if !t.Done() {
		return ErrInFlight
	}
	return t.err
}

// Value returns a completed Get's result; ok is false while in flight,
// on error, or when the key was absent (Err distinguishes the latter).
func (t *Ticket) Value() (value []byte, ok bool) {
	if !t.Done() || t.err != nil {
		return nil, false
	}
	return t.rs.value, t.ok
}

// Existed reports whether a completed Delete's key was present.
func (t *Ticket) Existed() bool { return t.Done() && t.ok }

// answered reports a ticket the server gave a terminal answer, of
// whatever status — as opposed to one still in flight or one the
// transport gave up on.
func (t *Ticket) answered() bool { return t.Done() && t.rs.id != 0 }

// reap marks the completion delivered. Wait and Poll both do it under
// compMu, which also guards complete's insert: a ticket is in the
// completion set only while it is unreaped and no Wait is blocked on it,
// so the two agree on a single delivery.
func (t *Ticket) reap() {
	t.reaped.Store(true)
	delete(t.c.comp, t)
}

// Wait blocks until the ticket completes (reaping it) or ctx fires, and
// returns the submission's outcome. Waiting again on a reaped ticket
// just returns the recorded outcome. A ticket reaped by Wait stays the
// caller's; one reaped by Poll is valid until the next Poll. A Wait that
// has to block first flushes the frames held in the writer — its own
// request may be one — and counts itself a waiter under compMu, so
// complete leaves the ticket to it rather than publish it for Poll.
func (t *Ticket) Wait(ctx context.Context) error {
	c := t.c
	if !t.Done() && c.held.Load() > 0 {
		c.flushHeld()
	}
	c.compMu.Lock()
	if !t.Done() {
		t.waiters++
		c.compMu.Unlock()
		select {
		case <-t.done:
			t.done <- struct{}{} // for any other Wait blocked on t
		case <-ctx.Done():
		}
		c.compMu.Lock()
		t.waiters--
		if !t.Done() { // given up: complete publishes it once no Wait is left
			c.compMu.Unlock()
			return ctx.Err()
		}
	}
	t.reap()
	c.compMu.Unlock()
	return t.err
}

// Poll reaps up to max completed tickets (max <= 0: every one that is
// ready) without blocking. Each completion is delivered exactly once
// across all Poll and Wait calls. A Poll that finds nothing yields the
// processor once before it returns: a caller that polls while it waits —
// the closed loop above, or `for cl.InFlight() > 0 { cl.Poll(0) }` — then
// gives the goroutines it is waiting on a turn (the connection's reader;
// in a one-process test or benchmark the server too, whose idle naps only
// end on a scheduler pass) instead of spinning through its time slice.
// When nothing flushed is unanswered it first flushes whatever is held:
// no response is coming whose arrival would.
//
// The result is the client's one reap slice, and its tickets are valid
// until the next Poll: that Poll overwrites the slice and hands the
// tickets back to the client for reuse, so read each one before polling
// again, and keep what you need of it, not the ticket. One goroutine at a
// time reaps with Poll.
func (c *Client) Poll(max int) []*Ticket {
	c.compMu.Lock()
	for _, t := range c.polled {
		c.recycle(t)
	}
	n := len(c.comp)
	if max > 0 && max < n {
		n = max
	}
	out := c.polled[:0]
	for t := range c.comp {
		if len(out) == n {
			break
		}
		t.reap()
		out = append(out, t)
	}
	c.polled = out
	c.compMu.Unlock()
	if len(out) == 0 {
		if c.stranded() {
			c.flushHeld()
		}
		runtime.Gosched()
	}
	return out
}

// InFlight reports how many window slots are currently held (submitted
// tickets not yet completed).
func (c *Client) InFlight() int { return len(c.win) }

// SubmitPut queues an asynchronous durable Put. It blocks while the
// window is full (until some outstanding request completes) and returns
// a Ticket to reap via Wait or Poll. The caller must not modify value
// until the ticket completes: retries re-send it.
//
// Requests go on the wire in submission order, and a lost connection's
// unanswered requests are replayed in that order ahead of anything
// submitted later, so two writes in flight on one key are applied in the
// order they were submitted. The one exception is overload: a request the
// server sheds with StatusBusy is sent again after its backoff, behind
// whatever was submitted in the meantime.
func (c *Client) SubmitPut(ctx context.Context, key uint64, value []byte) (*Ticket, error) {
	return c.submit(ctx, request{op: opPut, key: key, value: value})
}

// SubmitGet queues an asynchronous Get (see SubmitPut).
func (c *Client) SubmitGet(ctx context.Context, key uint64) (*Ticket, error) {
	return c.submit(ctx, request{op: opGet, key: key})
}

// SubmitDelete queues an asynchronous Delete (see SubmitPut).
func (c *Client) SubmitDelete(ctx context.Context, key uint64) (*Ticket, error) {
	return c.submit(ctx, request{op: opDelete, key: key})
}

// submit acquires a window slot and posts the request.
func (c *Client) submit(ctx context.Context, q request) (*Ticket, error) {
	select {
	case c.win <- struct{}{}: // window has room
	default:
		if c.held.Load() > 0 {
			c.flushHeld() // the completions this submit waits for may be held
		}
		select { // full: block until a completion, cancellation, or close
		case c.win <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.life.Done():
			return nil, ErrClosed
		}
	}
	t := c.ticket(ctx, q, true)
	if err := c.post(t); err != nil {
		<-c.win
		return nil, err
	}
	return t, nil
}

// post enters ts into the pending table and puts them on the wire as one
// frame, or refuses with ErrTooLarge a frame the server would refuse.
// Ids are assigned and the frame is written under wmu, so wire
// order is id order is the order post was called in. A windowed ticket's
// frame may be held (see the flush rule); having released wmu, post
// flushes it if the reader answered the last flushed request meanwhile,
// since the reader only tries wmu and leaves the flush to its holder.
func (c *Client) post(ts ...*Ticket) error {
	// mayHold is read now: once ts are posted, Close may complete them,
	// and a Poll hand them back for reuse, before send runs.
	size, mayHold := 0, len(ts) == 1 && ts[0].windowed
	if len(ts) > 1 {
		size = batchHeader
	}
	for _, t := range ts {
		size += requestHeader + len(t.q.value)
	}
	if size > maxFrame || len(ts) > maxBatchOps {
		return ErrTooLarge
	}
	c.wmu.Lock()
	c.mu.Lock()
	if c.life.Err() != nil {
		c.mu.Unlock()
		c.wmu.Unlock()
		return ErrClosed
	}
	for _, t := range ts {
		c.nextID++
		t.q.id = c.nextID
		c.pend[t.q.id] = t
	}
	c.mu.Unlock()
	c.send(ts, true, mayHold)
	c.wmu.Unlock()
	for c.stranded() {
		c.flushHeld()
	}
	return nil
}

// holdMax is the largest request frame the flush rule holds. As in
// Nagle's algorithm, where a full segment goes without waiting, a larger
// one goes at once and carries the held frames with it: it saves a
// syscall like any other, but a request that size — a value past the
// inline limit, an out-of-place record write — keeps the server busy, and
// a server left idle while it waits costs more than the syscall.
const holdMax = 512

// stranded reports frames held in the writer while nothing flushed is
// unanswered: no response is coming whose arrival would flush them.
func (c *Client) stranded() bool { return c.held.Load() > 0 && c.onWire.Load() == 0 }

// flushHeld puts the held frames on the wire.
func (c *Client) flushHeld() {
	c.wmu.Lock()
	c.flush()
	c.wmu.Unlock()
}

// flush puts the held frames on the wire. The caller holds wmu. Frames
// held when the connection died are dropped with it: they are in the
// pending table, which the retry step replays.
func (c *Client) flush() {
	n := c.held.Swap(0)
	if n == 0 {
		return
	}
	c.mu.Lock()
	cc := c.conn
	c.mu.Unlock()
	if cc == nil {
		return
	}
	c.onWire.Add(n)
	c.flushes.Add(1)
	if err := cc.bw.Flush(); err != nil {
		cc.fail(fmt.Errorf("tcp: write: %w", err))
	}
}

// resend puts a Busy-shed ticket back on the wire once its backoff has
// passed — unless the retry step replayed it in the meantime, or it was
// ended.
func (c *Client) resend(t *Ticket) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	waiting := c.pend[t.q.id] == t && t.sent.IsZero()
	c.mu.Unlock()
	if waiting {
		c.send([]*Ticket{t}, false, false)
	}
}

// send is the connection's one writer: it charges each ticket an attempt,
// routes it to a core under the current handshake, and writes the
// requests — as one multi-op frame when oneFrame is set and there are
// several, else a frame each — with one flush that also carries the
// frames held before them. When mayHold is set (one windowed request) the
// frame is held instead if the flush rule allows it. The caller holds
// wmu. While the client is disconnected nothing is written: the tickets
// are in the pending table, and the retry step (woken here if it sits
// idle) will send them. A write error fails the connection, which hands
// everything unanswered to the retry step.
func (c *Client) send(ts []*Ticket, oneFrame, mayHold bool) {
	c.mu.Lock()
	cc := c.conn
	if cc == nil {
		c.work.Signal()
		c.mu.Unlock()
		return
	}
	now := time.Now()
	c.reqs = c.reqs[:0]
	for _, t := range ts {
		t.attempts++
		t.sent = now
		t.q.core = uint32(core.RouteKey(t.q.key, c.cores))
		c.reqs = append(c.reqs, t.q)
	}
	c.mu.Unlock()

	// Encode into the client's scratch: writeFrame copies the payload
	// into the bufio.Writer, so the scratch is free again on return.
	//
	// Hold the frame while an earlier request is unanswered, unless it
	// fills the window (its submitter blocks next), is large, or would not
	// fit beside the held frames (bufio would write them out uncounted).
	if mayHold && c.onWire.Load() > 0 && len(c.win) < cap(c.win) {
		c.enc = appendRequest(c.enc[:0], c.reqs[0])
		if n := len(c.enc) + 8; n <= holdMax && n <= cc.bw.Available() { // + length prefix and checksum
			if err := writeFrame(cc.bw, c.enc); err != nil {
				cc.fail(fmt.Errorf("tcp: write: %w", err))
			}
			c.held.Add(1)
			return
		}
	}
	// onWire counts what this flush carries before any of it is written:
	// no response may arrive for a request it does not count.
	c.onWire.Add(c.held.Swap(0) + int32(len(c.reqs)))
	var err error
	if oneFrame && len(c.reqs) > 1 {
		c.enc = appendBatchFrame(c.enc[:0], c.reqs)
		err = writeFrame(cc.bw, c.enc)
	} else {
		for i := 0; i < len(c.reqs) && err == nil; i++ {
			c.enc = appendRequest(c.enc[:0], c.reqs[i])
			err = writeFrame(cc.bw, c.enc)
		}
	}
	if err == nil {
		c.flushes.Add(1)
		err = cc.bw.Flush()
	}
	if err != nil {
		cc.fail(fmt.Errorf("tcp: write: %w", err))
	}
}

// complete ends t — with the server's terminal answer, or with the error
// the transport gave up on it with — frees its window slot and publishes
// it for Poll. It holds the one mapping from a wire status to what Wait,
// Err, Value, Existed and the sync and multi-op calls report. t must be
// out of the pending table.
func (c *Client) complete(t *Ticket, rs response, err error) {
	t.rs, t.err = rs, err
	if err == nil {
		switch {
		case rs.status == statusOK:
			t.ok = true
		case rs.status == statusNotFound && (t.q.op == opGet || t.q.op == opDelete):
			// Absent key: a normal outcome, not an error.
		case rs.status == statusWrongShard:
			t.err = &WrongShardError{Hint: rs.value}
		default:
			t.err = fmt.Errorf("tcp: %s failed (status %d)", opNames[t.q.op], rs.status)
		}
	}
	if t.windowed {
		<-c.win // completion frees the window slot; a blocked Submit may proceed
	}
	// Mark the ticket done, wake a blocked Wait, and publish it for Poll
	// unless a Wait is blocked on it, which delivers it instead — all under
	// compMu, which Wait and Poll take too, so a polled ticket's accessors
	// always see a completed state, and a ticket Poll hands back at its
	// next call has no Wait left to wake on it.
	c.compMu.Lock()
	t.fin.Store(true)
	select {
	case t.done <- struct{}{}:
	default:
	}
	if t.windowed && t.waiters == 0 {
		c.comp[t] = struct{}{}
	}
	c.compMu.Unlock()
}
