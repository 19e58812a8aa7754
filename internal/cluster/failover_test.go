package cluster

// Sharded failover e2e: three shard groups of two replicated nodes each
// (primary + semi-sync follower), a mixed write load through the
// fan-out client, one shard's primary killed mid-load, its follower
// promoted — and afterwards every key audited through the cluster client
// against the history of the load. With FLATSTORE_CLUSTER_SNAPSHOT set to a
// directory, each surviving group's metrics land there as
// shard-<id>.prom for the CI artifact.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/obs"
	"flatstore/internal/repl"
	"flatstore/internal/tcp"
)

// replMember is one replicated node of a shard group: engine,
// replication node, client-facing TCP server.
type replMember struct {
	st     *core.Store
	n      *repl.Node
	srv    *tcp.Server
	addr   string
	killed bool
}

// startReplMember builds one serving group member. primaryRepl == ""
// makes it the group's primary.
func startReplMember(t *testing.T, primaryRepl string) *replMember {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	st, err := core.New(core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	if err != nil {
		t.Fatal(err)
	}
	cfg := repl.Config{
		Store: st, ListenAddr: "127.0.0.1:0", ServeAddr: addr,
		PrimaryAddr:   primaryRepl,
		SyncFollowers: 1, SyncTimeout: 10 * time.Second,
	}
	var n *repl.Node
	if primaryRepl == "" {
		n, err = repl.NewPrimary(cfg)
	} else {
		n, err = repl.NewFollower(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	srv := tcp.NewServer(st)
	srv.SetRepl(n)
	go srv.Serve(lis)
	m := &replMember{st: st, n: n, srv: srv, addr: addr}
	t.Cleanup(func() { m.kill() })
	return m
}

// kill hard-stops the member: client server, replication node, store.
// Idempotent so the mid-test kill and the cleanup do not collide.
func (m *replMember) kill() {
	if m.killed {
		return
	}
	m.killed = true
	m.srv.Close()
	m.n.Close()
	m.st.Stop()
}

// shardGroup is one replication group owning one shard.
type shardGroup struct {
	primary  *replMember
	follower *replMember
}

// TestClusterFailoverZeroLoss is the sharded acceptance gate: kill one
// shard group's primary under mixed load across all shards, promote its
// follower, and audit the whole write history: no acknowledged write lost
// anywhere.
func TestClusterFailoverZeroLoss(t *testing.T) {
	const nGroups = 3
	groups := make([]shardGroup, nGroups)
	shards := make([]Shard, nGroups)
	for i := range groups {
		p := startReplMember(t, "")
		f := startReplMember(t, p.n.ListenAddr())
		groups[i] = shardGroup{primary: p, follower: f}
		// Primary first: the happy path connects without a redirect, and
		// failover exercises the in-group rotation to the follower.
		shards[i] = Shard{ID: i, Addrs: []string{p.addr, f.addr}}
	}
	m, err := NewMap(1, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		for _, mem := range []*replMember{g.primary, g.follower} {
			gate, err := NewGate(m, i)
			if err != nil {
				t.Fatal(err)
			}
			mem.srv.SetShard(gate)
		}
	}

	// One worker per shard, overwriting two keys that shard owns in turn: the
	// promoted follower takes one write, to the other key than the last one
	// before the kill, so a loss on either side of the promotion stays
	// visible. A key moves after an errored write (DESIGN.md §5.4).
	h := histcheck.New(nil)

	opts := ClientOptions{TCP: tcp.Options{
		DialTimeout:    300 * time.Millisecond,
		RequestTimeout: 300 * time.Millisecond,
		MaxAttempts:    50,
	}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < nGroups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := DialMap(context.Background(), m, opts)
			if err != nil {
				t.Errorf("worker %d: dial: %v", i, err)
				return
			}
			defer cl.Close()
			var fresh uint64
			next := func() uint64 {
				for fresh++; m.ShardOf(fresh) != i; fresh++ {
				}
				return fresh
			}
			keys := [2]uint64{next(), next()}
			var vb [8]byte
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				key := &keys[seq%2]
				binary.LittleEndian.PutUint64(vb[:], seq)
				o := h.Put(*key, vb[:])
				if o.End(cl.Put(*key, vb[:])) != nil {
					*key = next()
				}
			}
		}(i)
	}

	// Every group must be carrying load before the kill, and again after
	// the promotion: the phases end on sealed batches, not on a timer.
	waitSealed := func(what string, n *repl.Node, want uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for n.Pos() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck at position %d, want %d", what, n.Pos(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	const phase = 300 // batches per group per phase
	for i, g := range groups {
		waitSealed(fmt.Sprintf("group %d primary", i), g.primary.n, phase)
	}
	victim := groups[1]
	// Semi-sync must be intact on the victim before the kill — that is
	// what makes zero loss a guarantee rather than luck.
	if got := victim.primary.n.Snap().SyncTimeouts; got != 0 {
		t.Fatalf("semi-sync degraded pre-kill (%d timeouts): audit premise broken", got)
	}
	victim.primary.kill()
	// This sleep IS the scenario: the shard runs headless for as long as an
	// orchestrator takes to notice the dead primary.
	time.Sleep(200 * time.Millisecond)
	if err := victim.follower.n.Promote(); err != nil {
		t.Fatal(err)
	}
	// The promoted node has no follower of its own, so each of its acks
	// waits out the semi-sync timeout: one batch sealed there is the proof
	// that the shard's worker found the new primary; the other shards must
	// have kept their pace meanwhile.
	waitSealed("promoted follower", victim.follower.n, victim.follower.n.Pos()+1)
	for i, g := range groups {
		if g != victim {
			waitSealed(fmt.Sprintf("group %d primary", i), g.primary.n, 2*phase)
		}
	}
	close(stop)
	wg.Wait()

	// Fresh client for the audit: every group is reachable (the killed
	// primary's address fails over to the promoted follower in-group).
	audit, err := DialMap(context.Background(), m, ClientOptions{TCP: tcp.Options{MaxAttempts: 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	if err := h.Audit(audit.Get); err != nil {
		t.Fatal(err)
	}
	if !victim.follower.n.AllowWrite() {
		t.Error("promoted follower does not accept writes")
	}

	// CI artifact: per-shard metrics of each group's serving node.
	if dir := os.Getenv("FLATSTORE_CLUSTER_SNAPSHOT"); dir != "" {
		for i, g := range groups {
			mem := g.primary
			if mem.killed {
				mem = g.follower
			}
			snap := mem.srv.Metrics()
			path := filepath.Join(dir, fmt.Sprintf("shard-%d.prom", i))
			fh, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			obs.WritePrometheus(fh, &snap)
			if err := fh.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("per-shard metrics snapshots written to %s", dir)
	}
}
