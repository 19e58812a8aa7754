package tcp

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/bufpool"
	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/rpc"
)

const (
	// writerMaxDrain bounds how many responses one write cycle encodes
	// before it must flush, so response coalescing cannot add unbounded
	// latency under sustained load.
	writerMaxDrain = 1024

	// readerMaxCoalesce bounds how many already-buffered frames the
	// reader decodes per wakeup before kicking the cores, for the same
	// latency reason.
	readerMaxCoalesce = 64
)

// ServerOptions tunes the server's overload and fault behaviour. The
// zero value means the defaults below; negative values disable a cap or
// timeout where that is meaningful.
type ServerOptions struct {
	// MaxConnInFlight caps unanswered requests per connection; beyond
	// it the server sheds with StatusBusy instead of queueing. Default
	// 256; negative: unlimited.
	MaxConnInFlight int
	// MaxInFlight caps unanswered requests across all connections.
	// Default 4096; negative: unlimited.
	MaxInFlight int
	// WriteTimeout bounds every response write, so one stalled reader
	// cannot wedge its connection's response fan-out forever: on expiry
	// the connection is torn down. Default 10s; negative: none.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the handshake write and the hello read.
	// Default 5s.
	HandshakeTimeout time.Duration
	// DedupWindow is how many recent write outcomes are retained per
	// client session for replay dedup. Default 4096.
	DedupWindow int
	// MaxSessions bounds the number of client sessions the dedup table
	// retains (LRU-evicted beyond it). Default 1024.
	MaxSessions int
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxConnInFlight == 0 {
		o.MaxConnInFlight = 256
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 4096
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.DedupWindow <= 0 {
		o.DedupWindow = 4096
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	return o
}

// ShardGate is the sharding hook the server consults on every keyed
// op. Implemented by cluster.Gate; nil means unsharded (every key
// accepted). A key outside this node's range is rejected with
// StatusWrongShard carrying Hint(), the encoded shard map, so a client
// routing on stale membership self-heals instead of landing keys on a
// group where no reader would ever look for them.
type ShardGate interface {
	// Owns reports whether this server's shard owns key under the
	// current map.
	Owns(key uint64) bool
	// Hint is the encoded shard-map hint carried in redirects (shared;
	// not mutated by the server).
	Hint() []byte
	// ShardID, NumShards, and MapVersion describe the gate for metrics.
	ShardID() int
	NumShards() int
	MapVersion() uint64
}

// ReplGate is the replication hook the server consults on the write
// path and in Metrics. Implemented by repl.Node; nil means standalone
// (every write allowed, no replication section in the snapshot).
type ReplGate interface {
	// AllowWrite reports whether this node currently accepts writes
	// (it is the primary, or replication is not configured).
	AllowWrite() bool
	// PrimaryAddr is the serve address of the current primary ("" when
	// unknown), carried in StatusNotPrimary redirects.
	PrimaryAddr() string
	// Snap reports the replication state and counters for metrics.
	Snap() obs.ReplSnap
}

// Server bridges TCP connections onto a running store's FlatRPC
// transport: each connection becomes one in-process RPC client, so the
// engine sees network clients exactly like local ones (same per-core
// message buffers, same agent-core response path).
type Server struct {
	st   *core.Store
	opts ServerOptions
	id   uint64 // instance identity, sent in the handshake

	replMu sync.RWMutex
	repl   ReplGate

	shardMu sync.RWMutex
	shard   ShardGate

	inflight   atomic.Int64 // global unanswered requests
	shed       atomic.Uint64
	dedupHits  atomic.Uint64
	badFrames  atomic.Uint64
	wrongShard atomic.Uint64
	dedup      *dedupTable

	batchFrames     atomic.Uint64
	batchOps        atomic.Uint64
	framesCoalesced atomic.Uint64
	respFlushes     atomic.Uint64
	respWritten     atomic.Uint64
	inflightPeak    atomic.Int64

	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup // connection handlers (the readers)
	writers *core.Runner   // connection writers, which outlive their readers
}

// NewServer creates a TCP front end for a store (which must be Run) with
// default ServerOptions.
func NewServer(st *core.Store) *Server {
	return NewServerOptions(st, ServerOptions{})
}

// NewServerOptions creates a TCP front end with explicit options.
func NewServerOptions(st *core.Store, o ServerOptions) *Server {
	o = o.withDefaults()
	return &Server{
		st:      st,
		opts:    o,
		id:      mintServerID(),
		dedup:   newDedupTable(o.MaxSessions, o.DedupWindow),
		conns:   map[net.Conn]struct{}{},
		writers: core.NewRunner(),
	}
}

// mintServerID draws the random identity the handshake advertises. A
// fresh one per Server is what makes a client's dedup sessions unusable
// against the wrong instance: the id never repeats across restarts, so
// a reconnect to a recycled address cannot resume a stale session.
func mintServerID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("tcp: no entropy for server id: " + err.Error())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// SetRepl installs the replication gate. Call before Serve; a nil gate
// (the default) means standalone operation.
func (s *Server) SetRepl(g ReplGate) {
	s.replMu.Lock()
	s.repl = g
	s.replMu.Unlock()
}

func (s *Server) replGate() ReplGate {
	s.replMu.RLock()
	g := s.repl
	s.replMu.RUnlock()
	return g
}

// SetShard installs the shard gate. Call before Serve; a nil gate (the
// default) means this server owns the whole key space.
func (s *Server) SetShard(g ShardGate) {
	s.shardMu.Lock()
	s.shard = g
	s.shardMu.Unlock()
}

func (s *Server) shardGate() ShardGate {
	s.shardMu.RLock()
	g := s.shard
	s.shardMu.RUnlock()
	return g
}

// Stats snapshots the server's resilience and pipelining counters: the
// TCP front end's part of the snapshot's Net block.
func (s *Server) Stats() obs.NetSnap {
	var n obs.NetSnap
	s.fillNet(&n)
	return n
}

func (s *Server) fillNet(n *obs.NetSnap) {
	n.Shed = s.shed.Load()
	n.DedupHits = s.dedupHits.Load()
	n.BadFrames = s.badFrames.Load()
	n.InFlight = s.inflight.Load()
	n.BatchFrames = s.batchFrames.Load()
	n.BatchOps = s.batchOps.Load()
	n.FramesCoalesced = s.framesCoalesced.Load()
	n.RespFlushes = s.respFlushes.Load()
	n.RespWritten = s.respWritten.Load()
	n.InFlightPeak = s.inflightPeak.Load()
}

// noteInflight charges one accepted request against the global in-flight
// gauge, tracking the high-water mark (the pipelining depth actually
// reached, which is what the Window tuning knob should be judged by).
func (s *Server) noteInflight() {
	v := s.inflight.Add(1)
	for {
		p := s.inflightPeak.Load()
		if v <= p || s.inflightPeak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Metrics assembles the store's observability snapshot with this front
// end's transport counters folded into the Net section. It backs both
// the opStats wire reply and the HTTP metrics endpoint.
func (s *Server) Metrics() obs.Snapshot {
	snap := s.st.Metrics()
	s.fillNet(&snap.Net)
	if g := s.replGate(); g != nil {
		snap.Repl = g.Snap()
	}
	if g := s.shardGate(); g != nil {
		snap.Shard = obs.ShardSnap{
			Configured: true,
			ID:         int64(g.ShardID()),
			Count:      uint64(g.NumShards()),
			MapVersion: g.MapVersion(),
			WrongShard: s.wrongShard.Load(),
		}
	}
	return snap
}

// Serve accepts connections until the listener is closed (by Close).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("tcp: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Register under the lock that Close sweeps with, re-checking
		// closed: a connection accepted between Close's conn-map sweep
		// and an unguarded insert would never be closed, and a wg.Add
		// landing after Close's wg.Wait would race it. Holding mu for
		// both makes Close's view atomic: any handler it must wait for
		// is in wg, any conn it must close is in the map.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every connection, and waits for the
// handlers to return and the writers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.wg.Wait()
	s.writers.Stop()
	return nil
}

// localQueue carries responses the reader generates without touching the
// engine (busy sheds, dedup-cached acks) to the connection's writer.
type localQueue struct {
	mu sync.Mutex
	q  []response
}

func (l *localQueue) push(rs response) {
	l.mu.Lock()
	l.q = append(l.q, rs)
	l.mu.Unlock()
}

// take swaps the queued responses out, installing spare (a recycled
// buffer from the previous take, or nil) as the next accumulation
// buffer. The caller owns the returned slice until the take after next.
func (l *localQueue) take(spare []response) []response {
	l.mu.Lock()
	q := l.q
	if spare != nil {
		l.q = spare[:0]
	} else {
		l.q = nil
	}
	l.mu.Unlock()
	return q
}

func (l *localQueue) empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q) == 0
}

// handle runs one connection: a reader loop feeding the in-process RPC
// client, and a writer participant draining its completions back to the
// socket.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Handshake: magic + core count (so the client can route by key) +
	// server identity (so the client scopes its dedup session to this
	// instance). Bounded by the handshake deadline, as is the hello the
	// client must answer with — a mute or byzantine peer is cut off here.
	conn.SetDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	var hs []byte
	hs = binary.LittleEndian.AppendUint64(hs, wireMagic)
	hs = binary.LittleEndian.AppendUint32(hs, uint32(s.st.Cores()))
	hs = binary.LittleEndian.AppendUint64(hs, s.id)
	if err := writeFrame(bw, hs); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	hello, err := readFrame(br)
	if err != nil {
		if errors.Is(err, errCRC) {
			s.badFrames.Add(1)
		}
		return
	}
	session, err := decodeHello(hello)
	if err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	sess := s.dedup.session(session)

	cl := s.st.Connect().Raw()
	var readerGone atomic.Bool
	var outstanding atomic.Int64 // unanswered engine requests on this conn
	var lq localQueue            // reader-generated responses (shed/dedup)

	// armWrite sets the slow-client write deadline for the next write
	// burst; a client that stops reading makes the deadline fire, which
	// kills the connection instead of wedging the writer forever.
	armWrite := func() {
		if s.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
	}

	// Writer: a participant that polls the in-process client and pushes
	// frames out. It stops once the reader is gone and every accepted
	// request is answered: polling on after the socket dies keeps the
	// engine's agent core from spinning forever on a full response ring.
	// Then it detaches the RPC client, so the connection's message
	// buffers stop costing every server core a poll probe.
	//
	// Per-connection reuse: responses poll into respBuf, localQueue
	// alternates between two buffers via take(spare), and every frame is
	// encoded into the enc scratch (writeFrame copies it into the
	// bufio.Writer, so it is reusable immediately).
	var (
		respBuf  []rpc.Response
		locSpare []response
		enc      []byte
		discard  bool
	)
	fail := func() {
		discard = true
		conn.Close() // unblock the reader too: the conn is dead
	}
	write := func() bool {
		loc := lq.take(locSpare)
		wrote := 0
		armed := false
		// Drain every completion that is already ready before the single
		// Flush below (bounded, so one cycle cannot starve the socket
		// forever): completions landing while earlier ones are being
		// encoded ride the same flush, which is what amortizes the syscall
		// across a pipelined window.
		for {
			rs := cl.PollInto(respBuf[:0], 64)
			respBuf = rs
			if len(rs) == 0 {
				break
			}
			if !armed {
				armWrite()
				armed = true
			}
			for i := range rs {
				r := &rs[i]
				outstanding.Add(-1)
				s.inflight.Add(-1)
				// Record write outcomes even when the socket is gone: the
				// client will replay on a new connection and must be
				// answered from the table, not re-applied.
				sess.complete(r.ID, r.Status)
				if !discard {
					enc = appendEngineResponse(enc[:0], r)
					if err := writeFrame(bw, enc); err != nil {
						fail()
					}
				}
				// The engine materializes every response value (Get value,
				// scan pair values) as a fresh bufpool copy owned by this
				// poller; once encoded (or discarded) they are dead.
				bufpool.Put(r.Value)
				for j := range r.Pairs {
					bufpool.Put(r.Pairs[j].Value)
				}
				*r = rpc.Response{}
			}
			wrote += len(rs)
			if len(rs) < 64 || wrote >= writerMaxDrain {
				break
			}
		}
		// Recycle even an empty take: locSpare must always be the buffer
		// that is NOT installed in lq, or the next take would hand back
		// the very slice the reader is appending into.
		locSpare = loc
		if len(loc) == 0 && wrote == 0 {
			return false
		}
		if !armed {
			armWrite()
		}
		for i := range loc {
			if !discard {
				enc = appendResponse(enc[:0], loc[i])
				if err := writeFrame(bw, enc); err != nil {
					fail()
				}
			}
			loc[i] = response{}
		}
		if !discard {
			if err := bw.Flush(); err != nil {
				fail()
			}
			s.respFlushes.Add(1)
			s.respWritten.Add(uint64(wrote + len(loc)))
		}
		return true
	}
	s.writers.Poll(core.Participant{
		Step: write,
		Stop: func() bool { return readerGone.Load() && outstanding.Load() == 0 && lq.empty() },
		Exit: cl.Close,
	})
	defer readerGone.Store(true)

	// prep applies the reader-side duties for one decoded request —
	// server-local ops, write-replay dedup, overload shedding — and
	// reports whether the request still needs the engine (send=true).
	// An engine-bound request is already charged against the in-flight
	// accounting; the caller must deliver it or the gauges leak.
	prep := func(q request, own []byte) (req rpc.Request, dst int, send bool) {
		if int(q.core) >= s.st.Cores() {
			q.core = uint32(core.RouteKey(q.key, s.st.Cores()))
		}

		// The metrics snapshot is answered by the reader without
		// touching the engine, so observability works even when the
		// data path is saturated (the moment an operator most wants
		// the counters).
		if q.op == opStats {
			snap := s.Metrics()
			lq.push(response{id: q.id, status: statusOK, value: snap.Marshal()})
			return rpc.Request{}, 0, false
		}

		isWrite := q.op == opPut || q.op == opDelete

		// Shard ownership: a keyed op for a key outside this node's
		// range is bounced with the current shard map, BEFORE any dedup
		// state is created — the client replays it (same id) against the
		// owning group, under that server's own per-identity dedup
		// session. Scans are exempt: the fan-out client queries every
		// shard and each serves whatever of the range it holds.
		if q.op == opGet || isWrite {
			if g := s.shardGate(); g != nil && !g.Owns(q.key) {
				s.wrongShard.Add(1)
				lq.push(response{id: q.id, status: statusWrongShard, value: g.Hint()})
				return rpc.Request{}, 0, false
			}
		}

		// Read-replica redirect: a follower refuses writes BEFORE the
		// dedup begin, so no session state is created for an op this
		// node will never apply — the client retries it, under the same
		// id, against the primary the response names.
		if isWrite {
			if g := s.replGate(); g != nil && !g.AllowWrite() {
				lq.push(response{id: q.id, status: statusNotPrimary, value: []byte(g.PrimaryAddr())})
				return rpc.Request{}, 0, false
			}
		}

		// Write replay dedup (exactly-once ack for the retry path) —
		// batch sub-ops carry individual ids, so a partially applied
		// multi-op frame replays correctly op by op.
		if isWrite {
			status, state := sess.begin(q.id)
			switch state {
			case dedupDone:
				s.dedupHits.Add(1)
				lq.push(response{id: q.id, status: status})
				return rpc.Request{}, 0, false
			case dedupPending:
				// First attempt still executing (likely on the previous
				// connection's drain): shed; the client backs off and
				// replays, by which time the outcome is recorded.
				s.shed.Add(1)
				lq.push(response{id: q.id, status: statusBusy})
				return rpc.Request{}, 0, false
			}
		}

		// Overload shedding: refuse work beyond the in-flight caps so
		// a flood degrades into cheap busy acks instead of unbounded
		// queueing in the engine's rings.
		if (s.opts.MaxConnInFlight > 0 && outstanding.Load() >= int64(s.opts.MaxConnInFlight)) ||
			(s.opts.MaxInFlight > 0 && s.inflight.Load() >= int64(s.opts.MaxInFlight)) {
			if isWrite {
				sess.abort(q.id)
			}
			s.shed.Add(1)
			lq.push(response{id: q.id, status: statusBusy})
			return rpc.Request{}, 0, false
		}

		req = rpc.Request{
			ID:     q.id,
			Op:     q.op,
			Key:    q.key,
			ScanHi: q.scanHi,
			Limit:  int(q.limit),
			Value:  q.value,
			Buf:    own, // ownership transfers with the send (may be nil)
		}
		outstanding.Add(1)
		s.noteInflight()
		return req, int(q.core), true
	}

	// Engine-bound requests accumulate per core across every frame of
	// one reader wakeup and land in the pending pools in one shot — one
	// multi-op frame (or a burst of coalesced frames) becomes one
	// horizontal-batch seal opportunity instead of ring-push-per-op.
	perCore := make([][]rpc.Request, s.st.Cores())
	dispatch := func() {
		for dst := range perCore {
			reqs := perCore[dst]
			for len(reqs) > 0 {
				n := cl.SendBatch(dst, reqs)
				reqs = reqs[n:]
				if len(reqs) > 0 {
					runtime.Gosched() // ring full: engine backpressure
				}
			}
			perCore[dst] = perCore[dst][:0]
		}
	}

	// process decodes one frame payload (single-op or opBatch) into
	// perCore/localQueue work. It owns payload: every non-engine path
	// recycles it here; on the single-op engine path ownership transfers
	// with the request (Buf), and the engine returns it once the value
	// is dead (see rpc.Request). It returns false on an undecodable
	// frame — the connection is torn down, like any framing loss.
	var batchScratch []request
	process := func(payload []byte) bool {
		if len(payload) > 0 && payload[0] == opBatch {
			var derr error
			batchScratch, derr = decodeBatchInto(batchScratch[:0], payload)
			if derr != nil {
				bufpool.Put(payload)
				return false
			}
			s.batchFrames.Add(1)
			s.batchOps.Add(uint64(len(batchScratch)))
			for i := range batchScratch {
				req, dst, send := prep(batchScratch[i], nil)
				if !send {
					continue
				}
				if req.Op == rpc.OpPut && len(req.Value) > 0 {
					// Sub-op values alias the frame buffer, which is
					// recycled when this frame is done; a Put's bytes
					// outlive it, so they move to a pooled buffer of
					// their own (one frame cannot share ownership with
					// N sub-ops).
					buf := bufpool.Get(len(req.Value))
					n := copy(buf, req.Value)
					req.Value, req.Buf = buf[:n], buf
				} else {
					req.Value = nil
				}
				perCore[dst] = append(perCore[dst], req)
			}
			bufpool.Put(payload)
			return true
		}
		q, err := decodeRequest(payload)
		if err != nil {
			bufpool.Put(payload)
			return false
		}
		req, dst, send := prep(q, payload)
		if !send {
			bufpool.Put(payload)
			return true
		}
		perCore[dst] = append(perCore[dst], req)
		return true
	}

	// frameReady reports whether a complete frame is already buffered on
	// br — readable without touching the socket.
	frameReady := func() bool {
		buffered := br.Buffered()
		if buffered < 8 {
			return false
		}
		hdr, err := br.Peek(4)
		if err != nil {
			return false
		}
		n := binary.LittleEndian.Uint32(hdr)
		return n <= maxFrame && buffered >= int(4+n+4)
	}

	for {
		// Block for the next frame, then drain whatever else the socket
		// already delivered (read-path frame coalescing): a pipelined
		// window arrives as a burst, and decoding the whole burst before
		// dispatch() lets it seal as few large engine batches.
		payload, err := readFrameBuf(br)
		if err != nil {
			if errors.Is(err, errCRC) {
				// Corruption detected: framing may be lost from here, so
				// the connection dies rather than risk a mis-decoded op.
				s.badFrames.Add(1)
			}
			return
		}
		dead := false
		for frames := 1; ; frames++ {
			if !process(payload) {
				dead = true
				break
			}
			if frames >= readerMaxCoalesce || !frameReady() {
				break
			}
			payload, err = readFrameBuf(br)
			if err != nil {
				if errors.Is(err, errCRC) {
					s.badFrames.Add(1)
				}
				dead = true
				break
			}
			s.framesCoalesced.Add(1)
		}
		// Even on a dying connection the requests already accepted are
		// charged to the in-flight gauges and must reach the engine (the
		// writer drains their completions).
		dispatch()
		if dead {
			return
		}
	}
}
