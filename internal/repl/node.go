package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/oplog"
)

// Config wires a Node to its store and peers.
type Config struct {
	// Store is the engine this node replicates. It must not be Run yet
	// when the node is created (the seal hook installs into it) — call
	// Store.Run after NewPrimary/NewFollower, then Node.Start.
	Store *core.Store
	// ListenAddr is this node's replication listener ("host:port").
	// Every node listens: a follower serves its own history once
	// promoted.
	ListenAddr string
	// ServeAddr is this node's client-facing address, advertised to
	// followers (and through them to redirected clients).
	ServeAddr string
	// PrimaryAddr is the primary's *replication* address; required for
	// followers, ignored for primaries.
	PrimaryAddr string
	// SyncFollowers is how many follower acks a sealed batch needs
	// before its ops are acknowledged to clients (semi-synchronous
	// replication). 0 means fully asynchronous. With K=1 and the
	// promote-the-most-caught-up-follower rule, a failover loses no
	// acked write.
	SyncFollowers int
	// SyncTimeout bounds the semi-sync wait; past it the batch is
	// acknowledged anyway (availability over replication factor) and
	// SyncTimeouts counts the degradation. Default 2s.
	SyncTimeout time.Duration
	// HistoryBytes caps the in-memory batch history a node serves
	// catch-up from; a follower further behind than it must bootstrap
	// from a snapshot (empty nodes) or be reset. Default 64 MiB.
	HistoryBytes int64
	// FetchWait is the follower's long-poll bound. Default 500ms.
	FetchWait time.Duration
	// QuiesceTimeout bounds the pre-snapshot wait for sealed batches to
	// finish applying. Default 2s.
	QuiesceTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
	if c.HistoryBytes <= 0 {
		c.HistoryBytes = 64 << 20
	}
	if c.FetchWait <= 0 {
		c.FetchWait = 500 * time.Millisecond
	}
	if c.QuiesceTimeout <= 0 {
		c.QuiesceTimeout = 2 * time.Second
	}
	return c
}

// ErrClosed reports use of a closed node.
var ErrClosed = errors.New("repl: node closed")

// errDemoted downgrades in-flight batch acks when the node loses the
// primary role mid-wait (fencing observed a higher epoch, or Close).
var errDemoted = errors.New("repl: demoted while replicating batch")

// fetcher is the primary-side state of one connected follower.
type fetcher struct {
	addr string // the follower's serve address (from its hello)
	ack  uint64 // highest position the follower confirmed applied
}

// Node is one member of a replication group: the engine-side seal hook,
// the history buffer, the replication listener, and (on followers) the
// fetch-apply loop. It implements tcp.ReplGate.
type Node struct {
	st  *core.Store
	cfg Config

	mu    sync.Mutex
	role  obs.ReplRole
	epoch uint64 // current epoch (increments on every promotion)
	pos   uint64 // stream tail: last position sealed (primary) or applied (follower)
	// remoteTail/remoteTailEpoch are the highest position and epoch
	// observed from any peer; promotion moves past the latter.
	remoteTail      uint64
	remoteTailEpoch uint64
	hist            *history
	primaryRepl     string // follower: where to fetch from
	primaryServe    string // follower: the primary's client address (for redirects)
	fetchers        map[*fetcher]struct{}
	notify          chan struct{} // closed+replaced on any state advance (broadcast)
	needsReset      bool          // sticky: diverged beyond automatic recovery
	closed          bool

	lis         net.Listener
	conns       map[net.Conn]struct{}
	fetchConn   net.Conn      // follower: the live upstream connection
	stopFetch   chan struct{} // follower: closes to stop the fetch loop
	fetchDoneCh chan struct{} // closed when the fetch loop exits
	ops         []core.ReplOp // the fetch loop's decode scratch
	wg          sync.WaitGroup

	batchesShipped  atomic.Uint64
	bytesShipped    atomic.Uint64
	batchesApplied  atomic.Uint64
	entriesApplied  atomic.Uint64
	snapshotsServed atomic.Uint64
	snapshotsLoaded atomic.Uint64
	syncTimeouts    atomic.Uint64
	demotions       atomic.Uint64
}

// NewPrimary creates the write-accepting member. The store must not be
// Run yet. Epoch and position resume from the store's durable
// replication state; a fresh store starts at epoch 1.
func NewPrimary(cfg Config) (*Node, error) {
	n, err := newNode(cfg, obs.ReplRolePrimary)
	if err != nil {
		return nil, err
	}
	if n.epoch == 0 {
		n.epoch = 1
		n.st.SetReplState(n.epoch, n.pos)
	}
	n.st.SetSealHook(n.onSeal)
	return n, nil
}

// NewFollower creates a read replica fetching from cfg.PrimaryAddr. The
// store must not be Run yet. A follower with no replication history must
// start empty (it bootstraps from a snapshot, which cannot subtract keys
// the primary deleted before the capture).
func NewFollower(cfg Config) (*Node, error) {
	if cfg.PrimaryAddr == "" {
		return nil, errors.New("repl: follower needs PrimaryAddr")
	}
	n, err := newNode(cfg, obs.ReplRoleFollower)
	if err != nil {
		return nil, err
	}
	if n.pos == 0 && n.st.Len() != 0 {
		return nil, errors.New("repl: refusing snapshot bootstrap onto a non-empty store")
	}
	n.primaryRepl = cfg.PrimaryAddr
	// The seal hook is installed on followers too: it only fires once
	// the node is promoted and local writes start flowing.
	n.st.SetSealHook(n.onSeal)
	// Until then the store's PM is the fetch loop's to write: the cores
	// must know before they run.
	n.st.SetReplOwner(true)
	return n, nil
}

func newNode(cfg Config, role obs.ReplRole) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("repl: Config.Store is required")
	}
	cfg = cfg.withDefaults()
	n := &Node{
		st:       cfg.Store,
		cfg:      cfg,
		role:     role,
		hist:     newHistory(cfg.HistoryBytes),
		fetchers: map[*fetcher]struct{}{},
		notify:   make(chan struct{}),
		conns:    map[net.Conn]struct{}{},
	}
	n.epoch, n.pos = n.st.ReplState()
	return n, nil
}

// Start opens the replication listener and, on a follower, the
// fetch-apply loop. Call after Store.Run.
func (n *Node) Start() error {
	if n.cfg.ListenAddr != "" {
		lis, err := net.Listen("tcp", n.cfg.ListenAddr)
		if err != nil {
			return fmt.Errorf("repl: listen: %w", err)
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			lis.Close()
			return ErrClosed
		}
		n.lis = lis
		n.mu.Unlock()
		n.wg.Add(1)
		go n.acceptLoop(lis)
	}
	n.mu.Lock()
	if n.role == obs.ReplRoleFollower && n.stopFetch == nil && !n.closed {
		n.stopFetch = make(chan struct{})
		n.fetchDoneCh = make(chan struct{})
		n.wg.Add(1)
		go n.fetchLoop(n.stopFetch, n.fetchDoneCh)
	}
	n.mu.Unlock()
	return nil
}

// ListenAddr reports the replication listener's bound address (useful
// with ":0" configs in tests).
func (n *Node) ListenAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lis == nil {
		return ""
	}
	return n.lis.Addr().String()
}

// Close stops the listener, the fetch loop, and every peer connection,
// releasing any batch still waiting on follower acks (those ops report
// StatusError: maybe applied). Close the node BEFORE stopping the store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	lis := n.lis
	if n.stopFetch != nil {
		close(n.stopFetch)
		n.stopFetch = nil
	}
	if n.fetchConn != nil {
		n.fetchConn.Close()
	}
	for c := range n.conns {
		c.Close()
	}
	n.bump()
	n.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	n.wg.Wait()
	return nil
}

// bump wakes every waiter (long-pollers, semi-sync ack waits). Callers
// hold n.mu.
func (n *Node) bump() {
	close(n.notify)
	n.notify = make(chan struct{})
}

// Promote turns a follower into the primary of a new epoch: the fetch
// loop stops, the epoch increments past every epoch this node has seen,
// and the (epoch, position) pair is persisted before any write is
// accepted. The position counter continues where the applied stream
// ended — the new primary's first batch extends the old stream, and the
// higher epoch fences anything the deposed primary still tries to ship.
func (n *Node) Promote() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role == obs.ReplRolePrimary {
		n.mu.Unlock()
		return nil
	}
	stop, done := n.stopFetch, n.fetchDoneCh
	n.stopFetch = nil
	if stop != nil {
		close(stop)
	}
	if n.fetchConn != nil {
		n.fetchConn.Close()
	}
	n.mu.Unlock()
	// Join the fetch loop before flipping roles: no replicated apply
	// may interleave with local writes (they share the cores' logs), so
	// only now do the logs go back to the cores.
	if done != nil {
		<-done
	}
	n.st.SetReplOwner(false)

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	maxEpoch := n.epoch
	if n.remoteTailEpoch > maxEpoch {
		maxEpoch = n.remoteTailEpoch
	}
	n.epoch = maxEpoch + 1
	n.role = obs.ReplRolePrimary
	n.primaryServe = ""
	n.st.SetReplState(n.epoch, n.pos)
	n.bump()
	return nil
}

// SetPrimary re-points a follower at a new primary's replication
// address (after a failover it did not win). The live upstream
// connection is cut so the fetch loop re-dials immediately.
func (n *Node) SetPrimary(replAddr string) {
	n.mu.Lock()
	n.primaryRepl = replAddr
	n.primaryServe = "" // re-learned from the new primary's hello
	if n.fetchConn != nil {
		n.fetchConn.Close()
	}
	n.bump()
	n.mu.Unlock()
}

// onSeal is the engine's SealHook: it assigns the batch the next stream
// position, encodes it into the history buffer, persists the stream
// tail, wakes long-polling followers, and — when semi-sync is on —
// holds the ops' acknowledgement until enough followers confirmed.
func (n *Node) onSeal(entries []*oplog.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role != obs.ReplRolePrimary {
		// A local write slipped onto a replica (in-process client, or a
		// race with demotion): it is durable and applied here but part
		// of no replicated stream — maybe-ack it.
		n.mu.Unlock()
		return errDemoted
	}
	// Materialize the values while the entries are stable (the hook
	// window). The encoded body is retained by the history buffer, so
	// it is a fresh allocation, not scratch.
	vals := make([][]byte, len(entries))
	for i, e := range entries {
		v, err := n.st.EntryValue(e)
		if err != nil {
			// The freshly written record fails verification — the batch
			// cannot be shipped faithfully. Leave the stream untouched
			// and maybe-ack the ops.
			n.mu.Unlock()
			return fmt.Errorf("repl: batch value: %w", err)
		}
		vals[i] = v
	}
	n.pos++
	pos, epoch := n.pos, n.epoch
	body := appendBatchBody(nil, pos, entries, vals)
	n.hist.push(pos, body)
	n.st.SetReplState(epoch, pos)
	n.bump()
	k := n.cfg.SyncFollowers
	n.mu.Unlock()

	n.batchesShipped.Add(1)
	n.bytesShipped.Add(uint64(len(body)))
	if k > 0 {
		return n.waitAcks(epoch, pos, k)
	}
	return nil
}

// waitAcks blocks until k followers acked pos, the sync timeout passes
// (ack anyway, counted), or the node stops being this epoch's primary
// (maybe-ack).
func (n *Node) waitAcks(epoch, pos uint64, k int) error {
	deadline := time.Now().Add(n.cfg.SyncTimeout)
	for {
		n.mu.Lock()
		if n.closed || n.role != obs.ReplRolePrimary || n.epoch != epoch {
			n.mu.Unlock()
			return errDemoted
		}
		acked := 0
		for f := range n.fetchers {
			if f.ack >= pos {
				acked++
			}
		}
		ch := n.notify
		n.mu.Unlock()
		if acked >= k {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			n.syncTimeouts.Add(1)
			return nil
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
	}
}

// --- tcp.ReplGate ---

// AllowWrite reports whether this node currently accepts writes.
func (n *Node) AllowWrite() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == obs.ReplRolePrimary && !n.closed
}

// PrimaryAddr is the client-facing address of the current primary, as
// far as this node knows ("" when it doesn't).
func (n *Node) PrimaryAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == obs.ReplRolePrimary {
		return n.cfg.ServeAddr
	}
	return n.primaryServe
}

// Snap assembles the replication section of the observability snapshot.
func (n *Node) Snap() obs.ReplSnap {
	n.mu.Lock()
	s := obs.ReplSnap{
		Role:      n.role,
		Epoch:     n.epoch,
		Followers: uint64(len(n.fetchers)),
	}
	switch n.role {
	case obs.ReplRolePrimary:
		s.TailPos = n.pos
		s.AppliedPos = n.pos
		s.PrimaryAddr = n.cfg.ServeAddr
		if len(n.fetchers) > 0 {
			minAck := ^uint64(0)
			for f := range n.fetchers {
				if f.ack < minAck {
					minAck = f.ack
				}
			}
			if n.pos > minAck {
				s.LagBatches = n.pos - minAck
				s.LagBytes = n.hist.bytesSince(minAck)
			}
		}
	default:
		s.TailPos = n.remoteTail
		s.AppliedPos = n.pos
		s.PrimaryAddr = n.primaryServe
		if n.remoteTail > n.pos {
			s.LagBatches = n.remoteTail - n.pos
		}
	}
	n.mu.Unlock()
	s.BatchesShipped = n.batchesShipped.Load()
	s.BytesShipped = n.bytesShipped.Load()
	s.BatchesApplied = n.batchesApplied.Load()
	s.EntriesApplied = n.entriesApplied.Load()
	s.SnapshotsServed = n.snapshotsServed.Load()
	s.SnapshotsLoaded = n.snapshotsLoaded.Load()
	s.SyncTimeouts = n.syncTimeouts.Load()
	s.Demotions = n.demotions.Load()
	return s
}

// Role reports the node's current role (obs.ReplRolePrimary/Follower).
func (n *Node) Role() obs.ReplRole {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch reports the node's current epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Pos reports the stream tail (primary) or last applied position
// (follower) — the promotion rule picks the follower with the highest.
func (n *Node) Pos() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pos
}

// NeedsReset reports the sticky diverged state: this node's stream
// forked from (or fell irrecoverably behind) its primary and an
// operator must rebuild it from scratch.
func (n *Node) NeedsReset() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.needsReset
}

// demoteLocked flips a fenced primary to follower (caller holds mu).
// In-flight semi-sync waits observe the role change and maybe-ack.
func (n *Node) demoteLocked(newEpoch uint64) {
	if n.role == obs.ReplRolePrimary {
		n.role = obs.ReplRoleFollower
		n.demotions.Add(1)
	}
	if newEpoch > n.remoteTailEpoch {
		n.remoteTailEpoch = newEpoch
	}
	n.bump()
}
