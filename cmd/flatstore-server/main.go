// Command flatstore-server runs a FlatStore node as a network service:
// the engine over the TCP transport, with the PM arena persisted to a
// file image. On startup an existing image is recovered (crash replay or
// checkpoint fast path, whichever the image's shutdown flag selects); on
// SIGINT/SIGTERM the store closes cleanly (checkpoint + bitmaps + clean
// flag) and saves the image, so the next start is fast.
//
//	flatstore-server -addr :7399 -data /var/lib/flatstore.img -cores 4
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/cluster"
	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/pmem"
	"flatstore/internal/repl"
	"flatstore/internal/tcp"
)

// replFlags collects the replication command line.
type replFlags struct {
	role          string
	listenAddr    string // this node's replication listener
	primaryAddr   string // the primary's replication listener (follower)
	advertiseAddr string // client-facing address advertised in redirects
	syncFollowers int
	syncTimeout   time.Duration
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7399", "listen address")
	data := flag.String("data", "", "arena image file (empty: volatile)")
	cores := flag.Int("cores", 4, "server cores")
	chunks := flag.Int("chunks", 64, "arena size in 4MB chunks (new stores)")
	ordered := flag.Bool("ordered", false, "FlatStore-M: ordered index with scans")
	gc := flag.Bool("gc", true, "run the log cleaners")
	ckptEvery := flag.Duration("checkpoint", 0, "periodic runtime checkpoint interval (0: off)")
	connInflight := flag.Int("conn-inflight", 0, "per-connection in-flight cap before shedding (0: default, <0: off)")
	maxInflight := flag.Int("max-inflight", 0, "global in-flight cap before shedding (0: default, <0: off)")
	writeTimeout := flag.Duration("write-timeout", 0, "slow-client write deadline (0: default, <0: off)")
	scrubEvery := flag.Duration("scrub-interval", 0, "online scrubber interval: verify log and record checksums in the background (0: off)")
	salvage := flag.Bool("salvage", false, "repair media corruption on recovery (truncate + quarantine) instead of refusing to start")
	tierDir := flag.String("tier-dir", "", "cold-tier segment directory: GC demotes cold records to log-structured files here when the arena runs low (empty: tiering off)")
	tierThreshold := flag.Int("tier-threshold", 0, "free-chunk watermark that triggers demotion to the cold tier (0: default 3; needs -tier-dir)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof plus /metrics and /metrics.json on this address, e.g. 127.0.0.1:6060 (empty: off)")
	slowOp := flag.Duration("slow-op", 0, "trace requests at/above this latency into the slow-op ring (0: off)")
	role := flag.String("role", "solo", "replication role: solo, primary, or follower")
	replAddr := flag.String("repl-addr", "", "replication listener address (primary and follower)")
	primary := flag.String("primary", "", "the primary's replication address (follower)")
	advertise := flag.String("advertise", "", "client-facing address advertised to peers and in redirects (default: -addr)")
	syncFollowers := flag.Int("sync-followers", 0, "follower acks required before a write is acknowledged (0: async replication)")
	syncTimeout := flag.Duration("sync-timeout", 0, "semi-sync ack wait bound before degrading to async (0: default 2s)")
	shardID := flag.Int("shard-id", -1, "this node's shard ID in a sharded cluster (-1: unsharded)")
	shardCount := flag.Int("shard-count", 0, "total shard count (with -shard-id; ignored when -cluster is set)")
	clusterSpec := flag.String("cluster", "", "full cluster spec: ';'-separated shard groups, each a comma-separated address list (richer WrongShard hints than -shard-count)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0: default; all parties must agree)")
	mapVersion := flag.Uint64("shard-map-version", 1, "shard-map membership version advertised in WrongShard hints")
	flag.Parse()

	if *pprofAddr != "" {
		// The default mux already carries the /debug/pprof handlers via
		// the blank import; profiles of the serving hot path come from
		// e.g.: go tool pprof http://127.0.0.1:6060/debug/pprof/profile
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}

	sopts := tcp.ServerOptions{
		MaxConnInFlight: *connInflight,
		MaxInFlight:     *maxInflight,
		WriteTimeout:    *writeTimeout,
	}
	rf := replFlags{
		role: *role, listenAddr: *replAddr, primaryAddr: *primary,
		advertiseAddr: *advertise, syncFollowers: *syncFollowers,
		syncTimeout: *syncTimeout,
	}
	if rf.advertiseAddr == "" {
		rf.advertiseAddr = *addr
	}
	switch rf.role {
	case "solo", "primary", "follower":
	default:
		fmt.Fprintf(os.Stderr, "flatstore-server: unknown -role %q (want solo, primary, or follower)\n", rf.role)
		os.Exit(2)
	}
	if rf.role != "solo" && rf.listenAddr == "" {
		fmt.Fprintln(os.Stderr, "flatstore-server: -role", rf.role, "needs -repl-addr")
		os.Exit(2)
	}
	if rf.role == "follower" && rf.primaryAddr == "" {
		fmt.Fprintln(os.Stderr, "flatstore-server: -role follower needs -primary")
		os.Exit(2)
	}
	gate, err := shardGate(*shardID, *shardCount, *clusterSpec, *vnodes, *mapVersion)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatstore-server:", err)
		os.Exit(2)
	}
	if *tierThreshold != 0 && *tierDir == "" {
		fmt.Fprintln(os.Stderr, "flatstore-server: -tier-threshold needs -tier-dir")
		os.Exit(2)
	}
	tc := core.TierConfig{Dir: *tierDir, DemoteFreeChunks: *tierThreshold}
	if err := run(*addr, *data, *cores, *chunks, *ordered, *gc, *ckptEvery, *scrubEvery, *slowOp, *salvage, tc, sopts, rf, gate); err != nil {
		fmt.Fprintln(os.Stderr, "flatstore-server:", err)
		os.Exit(1)
	}
}

// shardGate resolves the sharding flags into the gate the TCP server
// enforces (nil when unsharded). With only -shard-id/-shard-count the
// gate routes over the address-less uniform map — which routes
// identically to any client's full map over the same IDs — and its
// WrongShard hints carry no addresses; -cluster supplies the full spec
// so hints can re-point clients.
func shardGate(id, count int, spec string, vnodes int, version uint64) (*cluster.Gate, error) {
	if id < 0 {
		if count > 0 || spec != "" {
			return nil, fmt.Errorf("-shard-count/-cluster need -shard-id")
		}
		return nil, nil
	}
	var m *cluster.Map
	var err error
	if spec != "" {
		m, err = cluster.ParseSpec(spec, version, vnodes)
	} else {
		if count <= 0 {
			return nil, fmt.Errorf("-shard-id needs -shard-count or -cluster")
		}
		m, err = cluster.UniformMap(version, count, vnodes)
	}
	if err != nil {
		return nil, err
	}
	return cluster.NewGate(m, id)
}

func run(addr, data string, cores, chunks int, ordered, gc bool, ckptEvery, scrubEvery, slowOp time.Duration, salvage bool, tc core.TierConfig, sopts tcp.ServerOptions, rf replFlags, gate *cluster.Gate) error {
	idx := core.IndexHash
	if ordered {
		idx = core.IndexMasstree
	}
	cfg := core.Config{
		Cores: cores, Mode: batch.ModePipelinedHB, Index: idx,
		ArenaChunks: chunks, GC: core.GCConfig{Enabled: gc}, Tier: tc,
		Salvage: salvage, ScrubEvery: scrubEvery, SlowOpThreshold: slowOp,
	}

	var st *core.Store
	if data != "" {
		if fh, err := os.Open(data); err == nil {
			arena, rerr := pmem.ReadArena(fh)
			fh.Close()
			if rerr != nil {
				return fmt.Errorf("loading %s: %w", data, rerr)
			}
			start := time.Now()
			st, rerr = core.Open(core.Config{Mode: cfg.Mode, Index: idx,
				GC: cfg.GC, Arena: arena, Tier: tc,
				Salvage: salvage, ScrubEvery: scrubEvery,
				SlowOpThreshold: slowOp})
			if rerr != nil {
				return fmt.Errorf("recovering %s: %w (rerun with -salvage to repair)", data, rerr)
			}
			fmt.Printf("recovered %d keys from %s in %v\n",
				st.Len(), data, time.Since(start).Round(time.Millisecond))
			for _, lt := range st.LogTails() {
				fmt.Println(" ", lt)
			}
			if rep := st.SalvageReport(); rep != nil && !rep.Clean() {
				fmt.Printf("salvage repaired media damage:\n%s\n", rep)
			}
		}
	}
	if st == nil {
		var err error
		st, err = core.New(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("created new store (%d cores, %d MB arena, %s)\n",
			cores, chunks*4, idx)
	}
	if t := st.Tier(); t != nil {
		ts := t.Stats()
		fmt.Printf("cold tier: %s (%d segments, %d records)\n", t.Dir(), ts.Segments, ts.Records)
	}

	// The replication node must exist before Run (the seal hook installs
	// into the not-yet-serving store) and start after it.
	var node *repl.Node
	if rf.role != "solo" {
		rcfg := repl.Config{
			Store:         st,
			ListenAddr:    rf.listenAddr,
			ServeAddr:     rf.advertiseAddr,
			PrimaryAddr:   rf.primaryAddr,
			SyncFollowers: rf.syncFollowers,
			SyncTimeout:   rf.syncTimeout,
		}
		var err error
		if rf.role == "primary" {
			node, err = repl.NewPrimary(rcfg)
		} else {
			node, err = repl.NewFollower(rcfg)
		}
		if err != nil {
			return err
		}
	}
	st.Run()
	if node != nil {
		if err := node.Start(); err != nil {
			st.Stop()
			return err
		}
		fmt.Printf("replication: %s, repl listener %s\n", rf.role, node.ListenAddr())
	}

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := tcp.NewServerOptions(st, sopts)
	if node != nil {
		srv.SetRepl(node)
	}
	if gate != nil {
		srv.SetShard(gate)
		fmt.Printf("sharding: shard %d of %d (map v%d)\n",
			gate.ShardID(), gate.NumShards(), gate.MapVersion())
	}
	// Observability endpoints ride the pprof mux (-pprof): Prometheus
	// text at /metrics, the full snapshot as JSON at /metrics.json.
	http.Handle("/metrics", obs.Handler(srv.Metrics))
	http.Handle("/metrics.json", obs.JSONHandler(srv.Metrics))
	fmt.Printf("serving on %s\n", lis.Addr())

	stopCkpt := make(chan struct{})
	if ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					if err := st.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "checkpoint:", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if node != nil {
		// SIGUSR1 is the operator's failover trigger: promote this
		// follower to primary of a new epoch (the deposed primary is
		// fenced the moment it hears the higher epoch).
		promote := make(chan os.Signal, 1)
		signal.Notify(promote, syscall.SIGUSR1)
		go func() {
			for range promote {
				if err := node.Promote(); err != nil {
					fmt.Fprintln(os.Stderr, "promote:", err)
					continue
				}
				fmt.Printf("promoted to primary, epoch %d\n", node.Epoch())
			}
		}()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case s := <-sig:
		fmt.Printf("\n%v: shutting down\n", s)
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}
	close(stopCkpt)
	if node != nil {
		node.Close() // before the store stops: releases semi-sync waiters
	}
	srv.Close()
	st.Stop()
	if err := st.Close(); err != nil {
		return fmt.Errorf("clean shutdown: %w", err)
	}
	if data != "" {
		tmp := data + ".tmp"
		fh, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if _, err := st.Arena().WriteTo(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp, data); err != nil {
			return err
		}
		fmt.Printf("image saved to %s\n", data)
	}
	return nil
}
