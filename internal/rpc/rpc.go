// Package rpc is the FlatRPC substrate (§4.3) rebuilt on shared memory.
//
// The paper's FlatRPC runs over RDMA: a client creates ONE queue pair per
// server (to a randomly chosen "agent" core on the NIC-local socket) but
// writes each request directly into a per-server-core message buffer with
// RDMA writes; server cores poll their buffers; responses are posted by
// the agent core — non-agent cores delegate the verb through shared
// memory, which gathers all MMIO doorbells onto one socket and keeps the
// NIC's QP cache small (Nc connections instead of Nt × Nc).
//
// Without an RDMA NIC the transport becomes single-producer /
// single-consumer rings in process memory, preserving the exact topology
// and cost structure: per-(client, core) request rings, per-client
// response rings written only by the agent core, per-core delegation
// rings into the agent, and counters for the quantities the paper's
// argument uses (QP count, MMIO doorbells, delegated verbs).
package rpc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Op codes for requests.
const (
	OpGet uint8 = iota + 1
	OpPut
	OpDelete
	OpScan
)

// Status codes for responses.
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusError
	// StatusBusy is an overload shed: the server refused to queue the
	// request (per-connection or global in-flight cap hit, or a write
	// replay raced its first attempt). The op was NOT applied; the
	// client should back off and retry.
	StatusBusy
	// StatusCorrupt reports a quarantined key: media corruption destroyed
	// (or cast doubt on) the key's last acknowledged value, and the store
	// refuses to serve a possibly-wrong one. Distinct from StatusNotFound —
	// the key may well have existed. A successful Put or Delete of the key
	// clears the quarantine.
	StatusCorrupt
	// StatusNotPrimary redirects a write sent to a read replica: the op
	// was NOT applied, and the response value carries the serve address
	// of the current primary (empty if unknown). Clients re-dial and
	// retry there.
	StatusNotPrimary
	// StatusWrongShard redirects a keyed op sent to a server whose shard
	// does not own the key: the op was NOT applied, and the response
	// value carries the server's encoded shard map (internal/cluster
	// hint form). Cluster-aware clients refresh their map and re-route.
	// Like StatusNotPrimary it is minted by the TCP front end; the
	// engine itself never emits it.
	StatusWrongShard
)

// Request is one client message. Value aliases the client's buffer until
// the request is processed.
type Request struct {
	ID     uint64
	Op     uint8
	Key    uint64
	Value  []byte
	ScanHi uint64 // upper bound for OpScan
	Limit  int    // max pairs for OpScan

	// Buf, when non-nil, is the pooled buffer backing Value (typically a
	// whole decoded frame). Setting it transfers ownership to the engine:
	// once the value bytes are dead — the op was rejected, or the entry
	// reached the log / the record store — the engine returns Buf to
	// bufpool. The sender must not touch Buf or Value after a successful
	// Send. Senders that keep ownership (in-process clients, the
	// simulator) simply leave Buf nil.
	Buf []byte
}

// Pair is one key/value result of a scan.
type Pair struct {
	Key   uint64
	Value []byte
}

// Response is one server reply.
type Response struct {
	ID     uint64
	Status uint8
	Value  []byte
	Pairs  []Pair
}

// ringSize is the per-(client, core) buffer depth; the paper's message
// buffers are sized for the client's async window (batch size 8).
const ringSize = 64

// reqRing is a single-producer single-consumer ring of requests.
type reqRing struct {
	buf  [ringSize]Request
	head atomic.Uint64 // consumer position
	tail atomic.Uint64 // producer position
}

func (r *reqRing) push(m Request) bool {
	t := r.tail.Load()
	if t-r.head.Load() == ringSize {
		return false
	}
	r.buf[t%ringSize] = m
	r.tail.Store(t + 1)
	return true
}

func (r *reqRing) pop() (Request, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return Request{}, false
	}
	m := r.buf[h%ringSize]
	// Clear the cell before publishing the new head: the consumer owns it
	// until then, and a stale cell would pin the request's value buffer
	// (pooled elsewhere) for a full lap of the ring.
	r.buf[h%ringSize] = Request{}
	r.head.Store(h + 1)
	return m, true
}

// respRing is an SPSC ring of responses (producer: agent core).
type respRing struct {
	buf  [ringSize * 2]Response
	head atomic.Uint64
	tail atomic.Uint64
}

func (r *respRing) push(m Response) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t%uint64(len(r.buf))] = m
	r.tail.Store(t + 1)
	return true
}

func (r *respRing) pop() (Response, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return Response{}, false
	}
	m := r.buf[h%uint64(len(r.buf))]
	r.buf[h%uint64(len(r.buf))] = Response{} // drop value refs before advancing
	r.head.Store(h + 1)
	return m, true
}

// delegated is a response captured for transmission by the agent core.
type delegated struct {
	client int
	resp   Response
}

// delRing is the per-core delegation ring into the agent (SPSC: producer
// is the owning core, consumer is the agent core).
type delRing struct {
	buf  [ringSize * 4]delegated
	head atomic.Uint64
	tail atomic.Uint64
}

func (r *delRing) push(m delegated) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t%uint64(len(r.buf))] = m
	r.tail.Store(t + 1)
	return true
}

func (r *delRing) pop() (delegated, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return delegated{}, false
	}
	m := r.buf[h%uint64(len(r.buf))]
	r.buf[h%uint64(len(r.buf))] = delegated{}
	r.head.Store(h + 1)
	return m, true
}

// Stats are the transport counters the §4.3 discussion is about.
type Stats struct {
	QueuePairs  int    // live connections the NIC must cache
	MMIOs       uint64 // doorbells rung (all by the agent core)
	Delegations uint64 // verbs forwarded agent-ward through shared memory
	Requests    uint64
	Responses   uint64
	Dropped     uint64 // responses discarded because the client had detached
}

// Server is one FlatStore node's transport endpoint.
type Server struct {
	ncores int
	agent  int

	mu chan struct{} // connect mutex (buffered-1 semaphore)
	// clients[i] is the slot for client id i; a detached client leaves a
	// nil cell behind and its id on freeIDs for reuse, so the slot count
	// (and the cost of every core's Poll sweep) is bounded by the peak
	// number of CONCURRENT clients, not by the total ever connected.
	// Cells are atomic so server cores can poll without taking mu per
	// slot while Disconnect clears a cell.
	clients []*atomic.Pointer[Client]
	freeIDs []int

	mmios       atomic.Uint64
	delegations atomic.Uint64
	requests    atomic.Uint64
	responses   atomic.Uint64
	dropped     atomic.Uint64

	// draining, when set, bounds the blocking pushes in Respond and
	// deliver: a response that stays stuck behind a full ring for
	// drainGrace is dropped instead of spinning forever. The engine sets
	// it while stopping so a client that abandoned its response ring
	// without closing (a crashed caller, a test simulating power failure)
	// cannot wedge shutdown; a client that is still polling drains its
	// ring well inside the grace window and loses nothing.
	draining atomic.Bool

	delRings []*delRing // one per core, drained by the agent
}

// drainGrace is how long a blocked response push waits for a poller once
// the server is draining before giving up (pollers nap at most tens of
// microseconds between polls, so this is orders of magnitude of slack).
const drainGrace = 50 * time.Millisecond

// SetDraining toggles shutdown mode (see the draining field).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// NewServer creates a transport with ncores server cores; agent is the
// core holding the client QPs (the paper picks a NIC-socket-local core).
func NewServer(ncores, agent int) *Server {
	s := &Server{
		ncores:   ncores,
		agent:    agent,
		mu:       make(chan struct{}, 1),
		delRings: make([]*delRing, ncores),
	}
	for i := range s.delRings {
		s.delRings[i] = &delRing{}
	}
	return s
}

// Client is one connected client: one QP to the agent, a request ring per
// server core, one response ring.
type Client struct {
	s      *Server
	id     int
	reqs   []*reqRing
	resps  *respRing
	next   atomic.Uint64 // request id generator
	closed atomic.Bool
}

// Connect attaches a new client (one queue pair). Ids of detached clients
// are reused, so the server's per-core poll sweep stays proportional to
// the peak concurrent client count.
func (s *Server) Connect() *Client {
	s.mu <- struct{}{}
	defer func() { <-s.mu }()
	c := &Client{
		s:     s,
		reqs:  make([]*reqRing, s.ncores),
		resps: &respRing{},
	}
	for i := range c.reqs {
		c.reqs[i] = &reqRing{}
	}
	if n := len(s.freeIDs); n > 0 {
		c.id = s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
	} else {
		c.id = len(s.clients)
		s.clients = append(s.clients, &atomic.Pointer[Client]{})
	}
	s.clients[c.id].Store(c)
	return c
}

// Disconnect detaches a client: its slot is cleared (server cores skip it
// on the next poll sweep) and its id becomes reusable. Idempotent. The
// caller must have drained the responses it cares about first — an id can
// be handed to a new client immediately, and undelivered responses for
// the old one are dropped.
func (s *Server) Disconnect(c *Client) {
	if c == nil || !c.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu <- struct{}{}
	defer func() { <-s.mu }()
	if c.id < len(s.clients) && s.clients[c.id].Load() == c {
		s.clients[c.id].Store(nil)
		s.freeIDs = append(s.freeIDs, c.id)
	}
}

// Close detaches the client from its server (see Server.Disconnect).
func (c *Client) Close() { c.s.Disconnect(c) }

// Stats snapshots the transport counters.
func (s *Server) Stats() Stats {
	s.mu <- struct{}{}
	nc := 0
	for _, cell := range s.clients {
		if cell.Load() != nil {
			nc++
		}
	}
	<-s.mu
	return Stats{
		QueuePairs:  nc, // FlatRPC: one QP per client (vs nc × ncores all-to-all)
		MMIOs:       s.mmios.Load(),
		Delegations: s.delegations.Load(),
		Requests:    s.requests.Load(),
		Responses:   s.responses.Load(),
		Dropped:     s.dropped.Load(),
	}
}

// ID returns the client's id.
func (c *Client) ID() int { return c.id }

// Send posts a request to a specific server core's message buffer (the
// client-side RDMA write). It reports false if the ring is full — the
// client must poll completions first, like a full send queue. A request
// sent after Close is silently dropped (reported as accepted so that
// retry loops terminate): the server no longer polls this client.
func (c *Client) Send(core int, req Request) bool {
	if c.closed.Load() {
		return true
	}
	if req.ID == 0 {
		req.ID = c.next.Add(1)
	}
	if !c.reqs[core].push(req) {
		return false
	}
	c.s.requests.Add(1)
	return true
}

// SendBatch posts a contiguous run of requests to one core's message
// buffer, returning how many were accepted before the ring filled — the
// batched form of Send for a decoded multi-op frame, so one network
// frame lands in a core's pending pool in one shot. The caller re-posts
// the remainder after yielding, exactly like a full send queue. A closed
// client accepts (and drops) everything, so retry loops terminate.
func (c *Client) SendBatch(core int, reqs []Request) int {
	if c.closed.Load() {
		return len(reqs)
	}
	r := c.reqs[core]
	for i := range reqs {
		if reqs[i].ID == 0 {
			reqs[i].ID = c.next.Add(1)
		}
		if !r.push(reqs[i]) {
			c.s.requests.Add(uint64(i))
			return i
		}
	}
	c.s.requests.Add(uint64(len(reqs)))
	return len(reqs)
}

// Poll drains up to max completed responses (the client-side CQ poll).
func (c *Client) Poll(max int) []Response {
	return c.PollInto(nil, max)
}

// PollInto appends up to max completed responses to dst and returns the
// extended slice — the allocation-free form of Poll for callers that
// recycle their poll buffer across cycles.
func (c *Client) PollInto(dst []Response, max int) []Response {
	for n := 0; n < max; n++ {
		r, ok := c.resps.pop()
		if !ok {
			break
		}
		dst = append(dst, r)
	}
	return dst
}

// CorePort is core i's view of the transport.
type CorePort struct {
	s    *Server
	core int
	rr   int // round-robin cursor over clients
}

// Port returns core i's endpoint.
func (s *Server) Port(core int) *CorePort { return &CorePort{s: s, core: core} }

// Poll returns the next pending request from any client's ring for this
// core (round-robin across clients, like scanning the message buffers).
// Detached clients leave nil cells, which the sweep skips.
func (p *CorePort) Poll() (Request, int, bool) {
	s := p.s
	s.mu <- struct{}{}
	clients := s.clients
	<-s.mu
	n := len(clients)
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		cl := clients[idx].Load()
		if cl == nil {
			continue
		}
		if req, ok := cl.reqs[p.core].pop(); ok {
			p.rr = (idx + 1) % n
			return req, cl.id, true
		}
	}
	return Request{}, 0, false
}

// Respond sends a response to a client. The agent core rings the doorbell
// itself (MMIO); any other core delegates the verb to the agent through
// its delegation ring (§4.3 step 3.0/3.1).
func (p *CorePort) Respond(client int, resp Response) {
	s := p.s
	if p.core == s.agent {
		s.deliver(client, resp)
		return
	}
	s.delegations.Add(1)
	var deadline time.Time
	for !s.delRings[p.core].push(delegated{client: client, resp: resp}) {
		// Ring full: the agent is behind; yield until it drains (a
		// full QP would backpressure the same way). While draining, a
		// bounded wait — the agent may already be wedged behind (or have
		// given up on) an abandoned client, and this core must still
		// reach its own stop check.
		if s.draining.Load() {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(drainGrace)
			} else if now.After(deadline) {
				s.dropped.Add(1)
				return
			}
		}
		runtime.Gosched()
	}
}

// deliver performs the agent-side MMIO write into the client's response
// ring. Responses for a detached client are dropped — including while
// blocked on a full ring, so the agent core can never spin forever on a
// client that left without draining its completions.
func (s *Server) deliver(client int, resp Response) {
	s.mu <- struct{}{}
	var cl *Client
	if client >= 0 && client < len(s.clients) {
		cl = s.clients[client].Load()
	}
	<-s.mu
	if cl == nil || cl.closed.Load() {
		s.dropped.Add(1)
		return
	}
	s.mmios.Add(1)
	s.responses.Add(1)
	var deadline time.Time
	for !cl.resps.push(resp) {
		if cl.closed.Load() {
			s.dropped.Add(1)
			return
		}
		if s.draining.Load() {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(drainGrace)
			} else if now.After(deadline) {
				// Shutdown with a client that abandoned its ring:
				// completed-but-unacked, the crash model's allowed state.
				s.dropped.Add(1)
				return
			}
		}
		runtime.Gosched() // client must poll completions
	}
}

// DrainDelegated transmits delegated responses from every core; only the
// agent core's loop calls this. Returns the number forwarded.
func (p *CorePort) DrainDelegated() int {
	if p.core != p.s.agent {
		return 0
	}
	n := 0
	for _, r := range p.s.delRings {
		for {
			d, ok := r.pop()
			if !ok {
				break
			}
			p.s.deliver(d.client, d.resp)
			n++
		}
	}
	return n
}
