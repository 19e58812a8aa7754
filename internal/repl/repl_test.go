package repl

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/tcp"
)

// testNode bundles a store with its replication node for cluster tests.
type testNode struct {
	st *core.Store
	n  *Node
}

// startPrimary brings up a fresh primary on a loopback repl listener.
func startPrimary(t *testing.T, mut func(*Config)) *testNode {
	t.Helper()
	return startNode(t, "", mut)
}

// startFollower brings up a fresh follower fetching from primaryRepl.
func startFollower(t *testing.T, primaryRepl string, mut func(*Config)) *testNode {
	t.Helper()
	return startNode(t, primaryRepl, mut)
}

func startNode(t *testing.T, primaryRepl string, mut func(*Config)) *testNode {
	t.Helper()
	return startNodeOn(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB}, primaryRepl, mut)
}

// startNodeOn is startNode over a fresh store of the given configuration.
func startNodeOn(t *testing.T, scfg core.Config, primaryRepl string, mut func(*Config)) *testNode {
	t.Helper()
	st, err := core.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, ListenAddr: "127.0.0.1:0", PrimaryAddr: primaryRepl}
	if mut != nil {
		mut(&cfg)
	}
	var n *Node
	if primaryRepl == "" {
		n, err = NewPrimary(cfg)
	} else {
		n, err = NewFollower(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		st.Stop()
		if tr := st.Tier(); tr != nil {
			tr.Close()
		}
	})
	return &testNode{st: st, n: n}
}

// waitPos polls until node's applied position reaches want.
func waitPos(t *testing.T, tn *testNode, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if tn.n.Pos() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("node stuck at pos %d, want %d (needsReset=%v)",
		tn.n.Pos(), want, tn.n.NeedsReset())
}

// expectKeys asserts every key in [lo,hi) holds val(k) on the node.
func expectKeys(t *testing.T, tn *testNode, lo, hi uint64, val func(uint64) string) {
	t.Helper()
	cl := tn.st.Connect()
	defer cl.Close()
	for k := lo; k < hi; k++ {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if !ok {
			t.Fatalf("key %d missing on replica", k)
		}
		if string(v) != val(k) {
			t.Fatalf("key %d = %q, want %q", k, v, val(k))
		}
	}
}

func kv(k uint64) string { return fmt.Sprintf("value-%d", k) }

// TestFollowerStreamsBatches covers the incremental path: a follower
// attached from position zero against a full history replays every
// sealed batch (puts and deletes) without a snapshot.
func TestFollowerStreamsBatches(t *testing.T) {
	p := startPrimary(t, nil)
	f := startFollower(t, p.n.ListenAddr(), nil)

	cl := p.st.Connect()
	defer cl.Close()
	for k := uint64(0); k < 200; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 200; k += 10 {
		if _, err := cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	waitPos(t, f, p.n.Pos())

	fcl := f.st.Connect()
	defer fcl.Close()
	for k := uint64(0); k < 200; k++ {
		v, ok, err := fcl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k%10 == 0 {
			if ok {
				t.Fatalf("deleted key %d still on follower", k)
			}
			continue
		}
		if !ok || string(v) != kv(k) {
			t.Fatalf("key %d = %q,%v on follower", k, v, ok)
		}
	}
	snap := f.n.Snap()
	if snap.SnapshotsLoaded != 0 {
		t.Fatalf("incremental catch-up took %d snapshots", snap.SnapshotsLoaded)
	}
	if snap.BatchesApplied == 0 || snap.EntriesApplied == 0 {
		t.Fatalf("apply counters empty: %+v", snap)
	}
	if snap.Epoch != p.n.Epoch() {
		t.Fatalf("follower epoch %d, primary %d", snap.Epoch, p.n.Epoch())
	}
}

// TestFollowerBootstrapsFromSnapshot pins the bootstrap path: when the
// batches a fresh follower needs have been evicted from the primary's
// history, the follower loads a snapshot image and then streams the
// tail incrementally.
func TestFollowerBootstrapsFromSnapshot(t *testing.T) {
	p := startPrimary(t, func(c *Config) { c.HistoryBytes = 2048 })

	cl := p.st.Connect()
	defer cl.Close()
	for k := uint64(0); k < 300; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 300; k += 7 {
		if _, err := cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if p.n.hist.has(1) {
		t.Fatal("test premise broken: history still holds batch 1")
	}

	f := startFollower(t, p.n.ListenAddr(), nil)
	waitPos(t, f, p.n.Pos())
	if got := f.n.Snap().SnapshotsLoaded; got != 1 {
		t.Fatalf("SnapshotsLoaded = %d, want 1", got)
	}
	if got := p.n.Snap().SnapshotsServed; got != 1 {
		t.Fatalf("SnapshotsServed = %d, want 1", got)
	}

	fcl := f.st.Connect()
	defer fcl.Close()
	for k := uint64(0); k < 300; k++ {
		v, ok, err := fcl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k%7 == 0 {
			if ok {
				t.Fatalf("key %d deleted before the snapshot is on the follower", k)
			}
			continue
		}
		if !ok || string(v) != kv(k) {
			t.Fatalf("key %d = %q,%v after snapshot bootstrap", k, v, ok)
		}
	}

	// The tail after the snapshot streams incrementally.
	for k := uint64(1000); k < 1005; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
		waitPos(t, f, p.n.Pos())
	}
	expectKeys(t, f, 1000, 1005, kv)
	if got := f.n.Snap().SnapshotsLoaded; got != 1 {
		t.Fatalf("tail catch-up took another snapshot (loaded=%d)", got)
	}
}

// TestFollowerCatchupFromCheckpoint is the satellite regression: a
// follower that shut down cleanly (checkpoint + persisted replication
// state) rejoins from its durable position and catches up from the log
// tail alone — no snapshot, no replay of what it already has.
func TestFollowerCatchupFromCheckpoint(t *testing.T) {
	p := startPrimary(t, nil)
	cl := p.st.Connect()
	defer cl.Close()
	for k := uint64(0); k < 100; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}

	fst, err := core.New(core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := NewFollower(Config{Store: fst, ListenAddr: "127.0.0.1:0", PrimaryAddr: p.n.ListenAddr()})
	if err != nil {
		t.Fatal(err)
	}
	fst.Run()
	if err := fn.Start(); err != nil {
		t.Fatal(err)
	}
	waitPos(t, &testNode{st: fst, n: fn}, p.n.Pos())
	stopPos := fn.Pos()

	// Clean shutdown: node first (stops the apply loop), then the store
	// (checkpoint + clean flag into the arena).
	fn.Close()
	fst.Stop()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on while the follower is down.
	for k := uint64(100); k < 150; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen from the same arena: recovery restores the keys and the
	// durable (epoch, pos), so the follower resumes mid-stream.
	rst, err := core.Open(core.Config{Mode: batch.ModePipelinedHB, Arena: fst.Arena()})
	if err != nil {
		t.Fatal(err)
	}
	if _, pos := rst.ReplState(); pos != stopPos {
		t.Fatalf("reopened store at pos %d, stopped at %d", pos, stopPos)
	}
	rn, err := NewFollower(Config{Store: rst, ListenAddr: "127.0.0.1:0", PrimaryAddr: p.n.ListenAddr()})
	if err != nil {
		t.Fatal(err)
	}
	rst.Run()
	if err := rn.Start(); err != nil {
		t.Fatal(err)
	}
	r := &testNode{st: rst, n: rn}
	t.Cleanup(func() {
		rn.Close()
		rst.Stop()
	})
	waitPos(t, r, p.n.Pos())
	expectKeys(t, r, 0, 150, kv)
	if got := rn.Snap().SnapshotsLoaded; got != 0 {
		t.Fatalf("checkpoint rejoin used a snapshot (loaded=%d)", got)
	}
}

// TestNewFollowerRefusesNonEmptyBootstrap pins the safety check: a store
// with keys but no replication history must not snapshot-bootstrap (the
// snapshot cannot subtract keys the primary deleted).
func TestNewFollowerRefusesNonEmptyBootstrap(t *testing.T) {
	st, err := core.New(core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	cl := st.Connect()
	if err := cl.Put(1, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	st.Stop()
	if _, err := NewFollower(Config{Store: st, PrimaryAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("NewFollower accepted a non-empty store at pos 0")
	}
}

// fence dials a node's replication listener and plays a hello from the
// given epoch, returning the first response frame type.
func fence(t *testing.T, addr string, epoch, pos uint64) byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(conn)
	if err := tcp.WriteFrame(bw, appendHello(nil, epoch, pos, "fencer")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	frame, err := tcp.ReadFrame(bufio.NewReader(conn))
	if err != nil || len(frame) == 0 {
		t.Fatalf("no fence response: %v", err)
	}
	return frame[0]
}

// TestPromotionAndFencing walks the failover state machine: promote one
// follower, re-point the other, and verify the deposed primary is
// fenced by the new epoch the moment it hears from the new regime.
func TestPromotionAndFencing(t *testing.T) {
	a := startPrimary(t, nil)
	b := startFollower(t, a.n.ListenAddr(), nil)
	c := startFollower(t, a.n.ListenAddr(), nil)

	cl := a.st.Connect()
	for k := uint64(0); k < 60; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	waitPos(t, b, a.n.Pos())
	waitPos(t, c, a.n.Pos())

	// Failover: B wins, C follows B, A is (for now) none the wiser.
	if err := b.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := b.n.Epoch(); got != a.n.Epoch()+1 {
		t.Fatalf("promoted epoch %d, want %d", got, a.n.Epoch()+1)
	}
	if !b.n.AllowWrite() {
		t.Fatal("promoted node refuses writes")
	}
	c.n.SetPrimary(b.n.ListenAddr())

	bcl := b.st.Connect()
	for k := uint64(100); k < 140; k++ {
		if err := bcl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}
	bcl.Close()
	waitPos(t, c, b.n.Pos())
	expectKeys(t, c, 0, 60, kv)
	expectKeys(t, c, 100, 140, kv)
	if got := c.n.Epoch(); got != b.n.Epoch() {
		t.Fatalf("re-pointed follower epoch %d, new primary %d", got, b.n.Epoch())
	}

	// The old primary meets the new epoch: immediate demotion + rStale.
	if resp := fence(t, a.n.ListenAddr(), b.n.Epoch(), 0); resp != rStale {
		t.Fatalf("deposed primary answered %d, want rStale", resp)
	}
	if a.n.AllowWrite() {
		t.Fatal("deposed primary still accepts writes")
	}
	if got := a.n.Role(); got != obs.ReplRoleFollower {
		t.Fatalf("deposed primary role %d, want follower", got)
	}
	if got := a.n.Snap().Demotions; got != 1 {
		t.Fatalf("Demotions = %d, want 1", got)
	}

	// Local writes on the fenced node maybe-ack as errors: no silent
	// divergence behind the new primary's back.
	acl := a.st.Connect()
	defer acl.Close()
	if err := acl.Put(9999, []byte("split-brain")); err == nil {
		t.Fatal("write on a fenced ex-primary was acknowledged")
	}
}

// TestStaleFeedRejected pins the follower side of fencing: a follower
// that has seen epoch E never applies a stream from an older epoch.
func TestStaleFeedRejected(t *testing.T) {
	a := startPrimary(t, nil)
	b := startFollower(t, a.n.ListenAddr(), nil)
	// A control follower that stays on A's epoch: once it has applied a
	// batch, A's feed has demonstrably delivered it to whoever listens.
	c := startFollower(t, a.n.ListenAddr(), nil)

	cl := a.st.Connect()
	defer cl.Close()
	if err := cl.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitPos(t, b, a.n.Pos())

	// B moves to a higher epoch (as if promoted elsewhere and re-pointed
	// back by a confused operator). A's feed is now stale for B.
	if err := b.n.Promote(); err != nil {
		t.Fatal(err)
	}
	posBefore := b.n.Pos()
	if err := cl.Put(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitPos(t, c, a.n.Pos())
	if b.n.Pos() != posBefore {
		t.Fatal("higher-epoch node applied batches from a stale primary")
	}
}

// TestSemiSyncDegradesWithoutFollowers pins the availability choice:
// with no follower reachable, a semi-sync primary acks after the sync
// timeout and counts the degradation.
func TestSemiSyncDegradesWithoutFollowers(t *testing.T) {
	p := startPrimary(t, func(c *Config) {
		c.SyncFollowers = 1
		c.SyncTimeout = 150 * time.Millisecond
	})
	cl := p.st.Connect()
	defer cl.Close()
	start := time.Now()
	if err := cl.Put(1, []byte("lonely")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("semi-sync write acked in %v without a follower", elapsed)
	}
	if got := p.n.Snap().SyncTimeouts; got == 0 {
		t.Fatal("degraded ack not counted in SyncTimeouts")
	}

	// With a caught-up follower attached, acks ride the replication
	// stream instead of the timeout.
	f := startFollower(t, p.n.ListenAddr(), nil)
	waitPos(t, f, p.n.Pos())
	start = time.Now()
	if err := cl.Put(2, []byte("paired")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Fatalf("semi-sync ack took %v with a live follower", elapsed)
	}
	waitPos(t, f, p.n.Pos())
}

// TestReplGateMetrics pins the observability plumbing end to end: a
// tcp.Server with the node installed reports replication state in its
// metrics snapshot, and a follower redirects write attempts.
func TestReplGateMetrics(t *testing.T) {
	p := startPrimary(t, nil)
	f := startFollower(t, p.n.ListenAddr(), nil)

	cl := p.st.Connect()
	defer cl.Close()
	for k := uint64(0); k < 20; k++ {
		if err := cl.Put(k, []byte(kv(k))); err != nil {
			t.Fatal(err)
		}
	}
	waitPos(t, f, p.n.Pos())

	psnap := p.n.Snap()
	if psnap.Role != obs.ReplRolePrimary || psnap.Followers != 1 {
		t.Fatalf("primary snap: %+v", psnap)
	}
	if psnap.TailPos == 0 || psnap.BatchesShipped == 0 || psnap.BytesShipped == 0 {
		t.Fatalf("primary ship counters empty: %+v", psnap)
	}
	fsnap := f.n.Snap()
	if fsnap.Role != obs.ReplRoleFollower || fsnap.AppliedPos != psnap.TailPos {
		t.Fatalf("follower snap: %+v (primary tail %d)", fsnap, psnap.TailPos)
	}
	if fsnap.LagBatches != 0 {
		t.Fatalf("caught-up follower reports lag %d", fsnap.LagBatches)
	}
}
