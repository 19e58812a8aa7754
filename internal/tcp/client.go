package tcp

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/obs"
	"flatstore/internal/stats"
)

// Client is a network client for a FlatStore TCP server — the TCP
// analogue of the paper's clients posting async requests and polling
// completions. Every call, sync or pipelined, is a Ticket (pipeline.go)
// on one path: one ordered writer puts requests on the connection, the
// connection's reader completes them by id, and one retry step (retry.go)
// per lost connection redials and re-sends what is unanswered.
//
// The client is resilient by default: dials carry deadlines, the
// connection's oldest unanswered request carries one, a dead connection
// is redialled with exponential backoff and jitter, and unanswered
// requests are re-sent within Options.MaxAttempts. Reads retry
// transparently; writes retry safely because every request keeps its id
// across attempts and the server dedups (session, id), so a replayed
// Put/Delete is applied and acknowledged exactly once.
type Client struct {
	opts Options

	// life ends at Close: new posts are refused, and window waiters and
	// the retry step's sleeps, dials and idle wait unblock. bg counts the
	// reader goroutines (each runs the retry step when its connection
	// dies), so Close can join.
	life context.Context
	stop context.CancelFunc
	bg   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter

	// wmu is the write stream: ids are assigned and frames written under
	// it, so the order of ids is the order of requests on the wire. The
	// reader only ever tries it (to flush held frames) — a writer blocked
	// on a full socket cannot stop responses from draining.
	wmu  sync.Mutex
	enc  []byte    // frame-encode scratch
	reqs []request // the requests of the frame being encoded
	// The flush rule's state (pipeline.go), for the current connection:
	// held counts the request frames in its writer since the last flush
	// (changed under wmu), onWire the flushed requests it has not answered
	// yet. resume resets both. flushes counts request flushes.
	held    atomic.Int32
	onWire  atomic.Int32
	flushes atomic.Uint64

	mu      sync.Mutex
	addrs   []string // candidate servers; addrIdx is the one dials target
	addrIdx int
	// sessions maps server identity (the handshake's serverID) to the
	// dedup session this client uses against it. One session per
	// identity, minted on first contact: ids spent against one server
	// are never replayed under the same session against a different
	// instance, whose dedup table knows nothing of them (a reused
	// (session, id) pair there would alias an unrelated op).
	sessions map[uint64]uint64
	session  uint64      // session in use on the current connection
	conn     *clientConn // current connection; nil while down
	cores    int         // from the latest handshake
	nextID   uint64
	// pend holds every unanswered ticket by request id. It belongs to
	// the client, not to a connection: what a dead connection leaves
	// unanswered is what the next one is sent.
	pend map[uint64]*Ticket
	// work (on mu) wakes a retry step that waits, disconnected, for the
	// pending table to fill.
	work sync.Cond

	// Pipelined-submission state (see pipeline.go): win holds one token
	// per in-flight Submit ticket (capacity Options.Window), comp the
	// completed ones not yet reaped by Wait/Poll, polled the slice the
	// last Poll returned. spare holds tickets for reuse: a window's worth
	// and one per concurrent sync caller.
	win    chan struct{}
	compMu sync.Mutex
	comp   map[*Ticket]struct{}
	polled []*Ticket
	spare  chan *Ticket
}

// clientConn is one live connection. Its writer side (bw) is guarded by
// Client.wmu; its reader is the goroutine started with it.
type clientConn struct {
	c          net.Conn
	bw         *bufio.Writer
	readerDone chan struct{} // closed when the reader stops reading

	mu       sync.Mutex
	err      error       // why the connection was failed; nil while alive
	watchdog *time.Timer // the RequestTimeout deadline; nil when disabled
}

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("tcp: client closed")

// Dial connects to a FlatStore TCP server with default Options.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, Options{})
}

// DialOptions connects with explicit resilience options.
func DialOptions(addr string, o Options) (*Client, error) {
	return DialContext(context.Background(), addr, o)
}

// DialContext connects to a FlatStore TCP server. addr may be a
// comma-separated list of candidates (a replicated cluster): the client
// talks to one at a time, rotating on connect failure and re-pointing
// when a server redirects it to the primary. The initial connect is
// retried within o.MaxAttempts (a flaky network may eat the first
// handshake), each attempt bounded by o.DialTimeout and ctx.
func DialContext(ctx context.Context, addr string, o Options) (*Client, error) {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("tcp: no server address")
	}
	c := &Client{
		addrs:    addrs,
		opts:     o.withDefaults(),
		sessions: map[uint64]uint64{},
		pend:     map[uint64]*Ticket{},
		comp:     map[*Ticket]struct{}{},
	}
	c.work.L = &c.mu
	c.life, c.stop = context.WithCancel(context.Background())
	c.win = make(chan struct{}, c.opts.Window)
	c.spare = make(chan *Ticket, c.opts.Window+syncCallers)
	seed := o.Seed
	if seed == 0 {
		seed = int64(mintSession())
	}
	c.rng = rand.New(rand.NewSource(seed))
	// Start at a random candidate: when every client in a fleet is handed
	// the same ordered list, all of them dialling addrs[0] first turns one
	// server into the connect-time hot spot (and a single slow head of the
	// list into everyone's first timeout). NotPrimary redirects still
	// re-point the client wherever the cluster says.
	if len(addrs) > 1 {
		c.addrIdx = c.rng.Intn(len(addrs))
	}
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleep(ctx, c.backoff(attempt-1)); err != nil {
				return nil, fmt.Errorf("tcp: dial %s: %w (last error: %v)", addr, err, lastErr)
			}
		}
		cc, err := c.dialConn(ctx)
		if err == nil {
			c.resume(cc)
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("tcp: dial %s failed after %d attempts: %w", addr, c.opts.MaxAttempts, lastErr)
}

// Cores reports the server's core count (from the latest handshake).
func (c *Client) Cores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cores
}

// Session returns the wire identity (the write-dedup key) the client
// used on its most recent handshake. Sessions are scoped per server
// instance, so the value changes when the client moves to a server it
// has not met before.
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// mintSession draws a random u64 identity.
func mintSession() uint64 {
	var sb [8]byte
	if _, err := crand.Read(sb[:]); err != nil {
		binary.LittleEndian.PutUint64(sb[:], uint64(time.Now().UnixNano()))
	}
	return binary.LittleEndian.Uint64(sb[:])
}

// sessionFor returns the session to use against the given server
// identity, minting (and remembering) one on first contact.
func (c *Client) sessionFor(serverID uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sessions[serverID]; ok {
		return s
	}
	s := mintSession()
	c.sessions[serverID] = s
	return s
}

// currentAddr is the dial target of the moment.
func (c *Client) currentAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[c.addrIdx]
}

// retarget re-points the client at addr (learned from a NotPrimary
// redirect), adding it to the candidate set if new. An empty addr means
// the redirecting server does not know the primary yet; the client moves
// to the next candidate and lets the retry step probe the others.
func (c *Client) retarget(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr == "" {
		c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
		return
	}
	for i, a := range c.addrs {
		if a == addr {
			c.addrIdx = i
			return
		}
	}
	c.addrs = append(c.addrs, addr)
	c.addrIdx = len(c.addrs) - 1
}

// Close tears the connection down and joins the background reader;
// in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.stop() // before the sweep: a post that misses it finds life over
	c.mu.Lock()
	cc := c.conn
	c.conn = nil
	for id, t := range c.pend {
		delete(c.pend, id)
		c.complete(t, response{}, ErrClosed)
	}
	c.work.Broadcast()
	c.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClosed)
	}
	c.bg.Wait() // readers must not touch their sockets after Close
	return nil
}

// dialConn performs one connect attempt: TCP dial, handshake read, and
// hello write, all under the dial deadline so a black-holed address or a
// mute server cannot hang the caller. The connection comes back with its
// reader running and its deadline armed, but not yet the client's
// current one (see resume). A failed attempt moves the client on to the
// next candidate: a dead or unreachable server should not absorb the
// whole retry budget when a peer may be serving (the failover case).
func (c *Client) dialConn(ctx context.Context) (*clientConn, error) {
	// A negative DialTimeout means "no per-attempt bound"; it must not
	// reach net.Dialer, where any non-zero Timeout becomes a deadline
	// (an already-expired one when negative).
	var d net.Dialer
	if c.opts.DialTimeout > 0 {
		d.Timeout = c.opts.DialTimeout
	}
	conn, err := d.DialContext(ctx, "tcp", c.currentAddr())
	if err == nil {
		var cc *clientConn
		if cc, err = c.handshake(ctx, conn); err == nil {
			return cc, nil
		}
		conn.Close()
	}
	c.retarget("")
	return nil, err
}

// handshake identifies both ends of a fresh socket and starts its reader.
func (c *Client) handshake(ctx context.Context, conn net.Conn) (*clientConn, error) {
	// Bound the handshake by the earlier of the per-attempt DialTimeout
	// and the ctx deadline: a ctx deadline later than DialTimeout must
	// not extend the documented per-attempt bound against a mute server.
	var dl time.Time
	if c.opts.DialTimeout > 0 {
		dl = time.Now().Add(c.opts.DialTimeout)
	}
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl = cd
	}
	if !dl.IsZero() {
		conn.SetDeadline(dl)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	hs, err := readFrame(br)
	if err != nil || len(hs) != 20 {
		return nil, fmt.Errorf("tcp: bad handshake: %v", err)
	}
	if binary.LittleEndian.Uint64(hs) != wireMagic {
		return nil, errors.New("tcp: not a FlatStore server (or wire protocol mismatch)")
	}
	session := c.sessionFor(binary.LittleEndian.Uint64(hs[12:]))
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err = writeFrame(bw, encodeHello(session)); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return nil, fmt.Errorf("tcp: hello: %w", err)
	}
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	c.session = session
	c.cores = int(binary.LittleEndian.Uint32(hs[8:]))
	c.mu.Unlock()
	cc := &clientConn{c: conn, bw: bw, readerDone: make(chan struct{})}
	if rt := c.opts.RequestTimeout; rt > 0 {
		cc.mu.Lock()
		cc.watchdog = time.AfterFunc(rt, func() { c.checkDeadline(cc) })
		cc.mu.Unlock()
	}
	c.bg.Add(1)
	go c.readLoop(cc, br)
	return cc, nil
}

// fail marks the connection dead of err — the first cause wins and is
// returned — and closes the socket, which ends its reader. Idempotent.
func (cc *clientConn) fail(err error) error {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		if cc.watchdog != nil {
			cc.watchdog.Stop()
		}
	}
	err = cc.err
	cc.mu.Unlock()
	cc.c.Close()
	return err
}

// checkDeadline is the connection's one deadline, Options.RequestTimeout
// on its oldest unanswered request. A request that is not answered in
// time makes the whole connection suspect, so one timer per connection —
// re-armed for whatever is oldest when it fires — does what a timer per
// request would: fail the connection and let the retry step take over.
func (c *Client) checkDeadline(cc *clientConn) {
	left := c.opts.RequestTimeout
	c.mu.Lock()
	for _, t := range c.pend {
		if !t.sent.IsZero() {
			if d := c.opts.RequestTimeout - time.Since(t.sent); d < left {
				left = d
			}
		}
	}
	c.mu.Unlock()
	if left <= 0 {
		cc.fail(ErrTimeout)
		return
	}
	cc.mu.Lock()
	if cc.err == nil {
		cc.watchdog.Reset(left)
	}
	cc.mu.Unlock()
}

// readLoop is the connection's reader: it completes tickets from the
// responses until the connection fails, then runs the retry step.
func (c *Client) readLoop(cc *clientConn, br *bufio.Reader) {
	defer c.bg.Done()
	err := c.read(br)
	close(cc.readerDone)
	c.retry(cc, err)
}

// read dispatches responses to their tickets by id and returns why it
// stopped. A terminal answer completes the ticket; the two answers that
// mean "not applied, send it again" keep it pending.
func (c *Client) read(br *bufio.Reader) error {
	// Every frame is read into buf, and the next one over it: a value or
	// pairs that outlive their frame are copied into their ticket's own
	// buffer (keepIn) before the next read.
	var buf []byte
	for {
		payload, err := readFrameInto(br, buf)
		if err != nil {
			return fmt.Errorf("tcp: connection lost: %w", err)
		}
		if buf = payload; cap(buf) > keepMax {
			buf = nil // one large answer does not pin its buffer
		}
		rs, err := decodeResponse(payload)
		if err != nil {
			return err
		}
		// The last flushed request is answered: the server has nothing
		// left to do, so held frames go now. A writer holding wmu flushes
		// them itself (see post), so the reader never blocks on it.
		if c.onWire.Add(-1) == 0 && c.held.Load() > 0 && c.wmu.TryLock() {
			c.flush()
			c.wmu.Unlock()
		}
		c.mu.Lock()
		t := c.pend[rs.id]
		switch {
		case t == nil:
			// Answered before (a replay raced the first answer) or given
			// up on: drop the late response.
			c.mu.Unlock()
			continue
		case rs.status == statusNotPrimary:
			// A read replica refused the write. Re-point at the primary it
			// named (or the next candidate if it knows none) and give the
			// connection up: the retry step replays there — ids are
			// stable, but the dedup session is per server identity, so the
			// replay cannot alias state on the old node.
			c.mu.Unlock()
			c.retarget(string(rs.value))
			return ErrNotPrimary
		case rs.status == statusBusy:
			// Shed: the connection is fine, the request goes again after
			// its backoff, unless its budget is spent.
			t.lastErr, t.sent = ErrBusy, time.Time{}
			if err = c.spent(t); err == nil {
				time.AfterFunc(c.backoff(t.attempts), func() { c.resend(t) })
				c.mu.Unlock()
				continue
			}
			rs = response{}
		}
		delete(c.pend, t.q.id)
		c.mu.Unlock()
		rs.keepIn(&t.buf)
		c.complete(t, rs, err)
	}
}

// Wire op codes (match internal/rpc). opStats is server-local: it never
// reaches the engine, the reader answers it directly. Code 5 was the
// integrity op, now a block of the stats reply; it stays unassigned so the
// codes after it keep their values.
const (
	opGet uint8 = iota + 1
	opPut
	opDelete
	opScan
	_
	opStats
	opBatch // multi-op frame: u8 opBatch, u32 count, count × request
)

// opNames name the ops in error messages.
var opNames = [...]string{
	opGet: "get", opPut: "put", opDelete: "delete",
	opScan: "scan (server needs an ordered index)", opStats: "stats",
}

// statusOK mirrors rpc.StatusOK etc.
const (
	statusOK uint8 = iota
	statusNotFound
	statusError
	statusBusy
	statusCorrupt
	statusNotPrimary // write sent to a replica; value = primary's address
	statusWrongShard // key outside this server's shard; value = shard-map hint
)

// WrongShardError reports an op routed to a server that does not own
// the key under the cluster's current shard map. Hint carries the
// rejecting server's encoded map (see internal/cluster): a cluster-
// aware caller decodes it, refreshes its routing, and replays the op
// against the owning group, whose dedup acknowledges the write exactly
// once.
type WrongShardError struct{ Hint []byte }

func (e *WrongShardError) Error() string { return "tcp: key belongs to another shard" }

// do runs one request to completion beside the window: post a ticket,
// wait for it, and hand it completed to read (if not nil); then the
// ticket goes back to the client for reuse, the buffer its answer's bytes
// are in included, so read copies what it keeps. It returns the error
// that says why the request did not succeed, and then calls no read.
func (c *Client) do(ctx context.Context, q request, read func(*Ticket)) error {
	t := c.ticket(ctx, q, false)
	defer c.recycle(t)
	if err := c.post(t); err != nil {
		return err
	}
	if err := t.Wait(ctx); err != nil {
		return err
	}
	if read != nil {
		read(t)
	}
	return nil
}

// Put stores a key-value pair; it returns after the server made it
// durable.
func (c *Client) Put(key uint64, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put bounded by ctx (on top of the connection's deadline).
func (c *Client) PutCtx(ctx context.Context, key uint64, value []byte) error {
	return c.do(ctx, request{op: opPut, key: key, value: value}, nil)
}

// Get fetches a value.
func (c *Client) Get(key uint64) (value []byte, ok bool, err error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get bounded by ctx.
func (c *Client) GetCtx(ctx context.Context, key uint64) (value []byte, ok bool, err error) {
	err = c.do(ctx, request{op: opGet, key: key}, func(t *Ticket) { value, ok = bytes.Clone(t.rs.value), t.ok })
	return value, ok, err
}

// Delete removes a key.
func (c *Client) Delete(key uint64) (ok bool, err error) {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (c *Client) DeleteCtx(ctx context.Context, key uint64) (ok bool, err error) {
	err = c.do(ctx, request{op: opDelete, key: key}, func(t *Ticket) { ok = t.ok })
	return ok, err
}

// Integrity fetches the server's storage-integrity counters (scrubber
// progress, checksum errors, quarantined keys, salvage events), so an
// operator or monitoring agent can watch for media rot remotely.
func (c *Client) Integrity() (stats.Integrity, error) {
	return c.IntegrityCtx(context.Background())
}

// IntegrityCtx is Integrity bounded by ctx.
func (c *Client) IntegrityCtx(ctx context.Context) (stats.Integrity, error) {
	snap, err := c.StatsCtx(ctx)
	if err != nil {
		return stats.Integrity{}, err
	}
	return snap.Integrity, nil
}

// Stats fetches the server's full observability snapshot: per-op counts
// and latency percentiles, HB batch-size distribution, allocator
// occupancy, GC progress, transport counters, and the slow-op trace
// ring.
func (c *Client) Stats() (*obs.Snapshot, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats bounded by ctx.
func (c *Client) StatsCtx(ctx context.Context) (snap *obs.Snapshot, err error) {
	if err := c.do(ctx, request{op: opStats}, func(t *Ticket) { snap, err = obs.UnmarshalSnapshot(t.rs.value) }); err != nil {
		return nil, err
	}
	return snap, err
}

// Pair is one scan result.
type Pair struct {
	Key   uint64
	Value []byte
}

// Scan returns up to limit pairs in [lo, hi] (FlatStore-M servers only).
func (c *Client) Scan(lo, hi uint64, limit int) ([]Pair, error) {
	return c.ScanCtx(context.Background(), lo, hi, limit)
}

// ScanCtx is Scan bounded by ctx.
func (c *Client) ScanCtx(ctx context.Context, lo, hi uint64, limit int) ([]Pair, error) {
	var out []Pair
	err := c.do(ctx, request{op: opScan, key: lo, scanHi: hi, limit: uint32(limit)}, func(t *Ticket) { out = t.rs.decodePairs() })
	return out, err
}
