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
	"errors"
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

// config is the whole command line, as parseFlags fills it.
type config struct {
	addr      string
	data      string // arena image file ("": volatile)
	cores     int
	chunks    int
	ordered   bool
	ckptEvery time.Duration
	scrub     time.Duration
	slowOp    time.Duration
	salvage   bool
	pprof     string
	tier      core.TierConfig
	server    tcp.ServerOptions
	repl      replFlags
	gate      *cluster.Gate // nil: unsharded
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatstore-server:", err)
		os.Exit(2)
	}
	if cfg.pprof != "" {
		// The default mux already carries the /debug/pprof handlers via
		// the blank import; profiles of the serving hot path come from
		// e.g.: go tool pprof http://127.0.0.1:6060/debug/pprof/profile
		go func() {
			if err := http.ListenAndServe(cfg.pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "flatstore-server:", err)
		os.Exit(1)
	}
}

// parseFlags parses and checks the command line.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("flatstore-server", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7399", "listen address")
	fs.StringVar(&cfg.data, "data", "", "arena image file (empty: volatile)")
	fs.IntVar(&cfg.cores, "cores", 4, "server cores")
	fs.IntVar(&cfg.chunks, "chunks", 64, "arena size in 4MB chunks (new stores)")
	fs.BoolVar(&cfg.ordered, "ordered", false, "FlatStore-M: ordered index with scans")
	fs.DurationVar(&cfg.ckptEvery, "checkpoint", 0, "periodic runtime checkpoint interval (0: off)")
	fs.IntVar(&cfg.server.MaxConnInFlight, "conn-inflight", 0, "per-connection in-flight cap before shedding (0: default, <0: off)")
	fs.IntVar(&cfg.server.MaxInFlight, "max-inflight", 0, "global in-flight cap before shedding (0: default, <0: off)")
	fs.DurationVar(&cfg.server.WriteTimeout, "write-timeout", 0, "slow-client write deadline (0: default, <0: off)")
	fs.DurationVar(&cfg.scrub, "scrub-interval", 0, "online scrubber interval: verify log and record checksums in the background (0: off)")
	fs.BoolVar(&cfg.salvage, "salvage", false, "repair media corruption on recovery (truncate + quarantine) instead of refusing to start")
	fs.StringVar(&cfg.tier.Dir, "tier-dir", "", "cold-tier segment directory: GC demotes cold records to log-structured files here when the arena runs low (empty: tiering off)")
	fs.IntVar(&cfg.tier.DemoteFreeChunks, "tier-threshold", 0, "free-chunk watermark that triggers demotion to the cold tier (0: default 3; needs -tier-dir)")
	fs.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof plus /metrics and /metrics.json on this address, e.g. 127.0.0.1:6060 (empty: off)")
	fs.DurationVar(&cfg.slowOp, "slow-op", 0, "trace requests at/above this latency into the slow-op ring (0: off)")
	fs.StringVar(&cfg.repl.role, "role", "solo", "replication role: solo, primary, or follower")
	fs.StringVar(&cfg.repl.listenAddr, "repl-addr", "", "replication listener address (primary and follower)")
	fs.StringVar(&cfg.repl.primaryAddr, "primary", "", "the primary's replication address (follower)")
	fs.StringVar(&cfg.repl.advertiseAddr, "advertise", "", "client-facing address advertised to peers and in redirects (default: -addr)")
	fs.IntVar(&cfg.repl.syncFollowers, "sync-followers", 0, "follower acks required before a write is acknowledged (0: async replication)")
	fs.DurationVar(&cfg.repl.syncTimeout, "sync-timeout", 0, "semi-sync ack wait bound before degrading to async (0: default 2s)")
	shardID := fs.Int("shard-id", -1, "this node's shard ID in a sharded cluster (-1: unsharded)")
	shardCount := fs.Int("shard-count", 0, "total shard count (with -shard-id; ignored when -cluster is set)")
	clusterSpec := fs.String("cluster", "", "full cluster spec: ';'-separated shard groups, each a comma-separated address list (richer WrongShard hints than -shard-count)")
	mapVersion := fs.Uint64("shard-map-version", 1, "shard-map membership version advertised in WrongShard hints")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}

	rf := &cfg.repl
	if rf.advertiseAddr == "" {
		rf.advertiseAddr = cfg.addr
	}
	switch rf.role {
	case "solo", "primary", "follower":
	default:
		return cfg, fmt.Errorf("unknown -role %q (want solo, primary, or follower)", rf.role)
	}
	if rf.role != "solo" && rf.listenAddr == "" {
		return cfg, fmt.Errorf("-role %s needs -repl-addr", rf.role)
	}
	if rf.role == "follower" && rf.primaryAddr == "" {
		return cfg, errors.New("-role follower needs -primary")
	}
	if cfg.tier.DemoteFreeChunks != 0 && cfg.tier.Dir == "" {
		return cfg, errors.New("-tier-threshold needs -tier-dir")
	}
	var err error
	cfg.gate, err = shardGate(*shardID, *shardCount, *clusterSpec, *mapVersion)
	return cfg, err
}

// shardGate resolves the sharding flags into the gate the TCP server
// enforces (nil when unsharded). With only -shard-id/-shard-count the
// gate routes over the address-less uniform map — which routes
// identically to any client's full map over the same IDs — and its
// WrongShard hints carry no addresses; -cluster supplies the full spec
// so hints can re-point clients.
func shardGate(id, count int, spec string, version uint64) (*cluster.Gate, error) {
	if id < 0 {
		if count > 0 || spec != "" {
			return nil, fmt.Errorf("-shard-count/-cluster need -shard-id")
		}
		return nil, nil
	}
	var m *cluster.Map
	var err error
	if spec != "" {
		m, err = cluster.ParseSpec(spec, version, cluster.DefaultVnodes)
	} else {
		if count <= 0 {
			return nil, fmt.Errorf("-shard-id needs -shard-count or -cluster")
		}
		m, err = cluster.UniformMap(version, count, cluster.DefaultVnodes)
	}
	if err != nil {
		return nil, err
	}
	return cluster.NewGate(m, id)
}

func run(c config) error {
	idx := core.IndexHash
	if c.ordered {
		idx = core.IndexMasstree
	}
	cfg := core.Config{
		Cores: c.cores, Mode: batch.ModePipelinedHB, Index: idx,
		ArenaChunks: c.chunks, GC: core.GCConfig{Enabled: true}, Tier: c.tier,
		Salvage: c.salvage, ScrubEvery: c.scrub, SlowOpThreshold: c.slowOp,
	}

	var st *core.Store
	if c.data != "" {
		if fh, err := os.Open(c.data); err == nil {
			arena, rerr := pmem.ReadArena(fh)
			fh.Close()
			if rerr != nil {
				return fmt.Errorf("loading %s: %w", c.data, rerr)
			}
			start := time.Now()
			st, rerr = core.Open(core.Config{Mode: cfg.Mode, Index: idx,
				GC: cfg.GC, Arena: arena, Tier: c.tier,
				Salvage: c.salvage, ScrubEvery: c.scrub,
				SlowOpThreshold: c.slowOp})
			if rerr != nil {
				return fmt.Errorf("recovering %s: %w (rerun with -salvage to repair)", c.data, rerr)
			}
			fmt.Printf("recovered %d keys from %s in %v\n",
				st.Len(), c.data, time.Since(start).Round(time.Millisecond))
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
			c.cores, c.chunks*4, idx)
	}
	if t := st.Tier(); t != nil {
		ts := t.Stats()
		fmt.Printf("cold tier: %s (%d segments, %d records)\n", t.Dir(), ts.Segments, ts.Records)
	}

	// The replication node must exist before Run (the seal hook installs
	// into the not-yet-serving store) and start after it.
	var node *repl.Node
	if c.repl.role != "solo" {
		rcfg := repl.Config{
			Store:         st,
			ListenAddr:    c.repl.listenAddr,
			ServeAddr:     c.repl.advertiseAddr,
			PrimaryAddr:   c.repl.primaryAddr,
			SyncFollowers: c.repl.syncFollowers,
			SyncTimeout:   c.repl.syncTimeout,
		}
		var err error
		if c.repl.role == "primary" {
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
		fmt.Printf("replication: %s, repl listener %s\n", c.repl.role, node.ListenAddr())
	}

	lis, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	srv := tcp.NewServerOptions(st, c.server)
	if node != nil {
		srv.SetRepl(node)
	}
	if c.gate != nil {
		srv.SetShard(c.gate)
		fmt.Printf("sharding: shard %d of %d (map v%d)\n",
			c.gate.ShardID(), c.gate.NumShards(), c.gate.MapVersion())
	}
	// Observability endpoints ride the pprof mux (-pprof): Prometheus
	// text at /metrics, the full snapshot as JSON at /metrics.json.
	http.Handle("/metrics", obs.Handler(srv.Metrics))
	http.Handle("/metrics.json", obs.JSONHandler(srv.Metrics))
	fmt.Printf("serving on %s\n", lis.Addr())

	ckpt := core.NewRunner()
	if c.ckptEvery > 0 {
		ckpt.Every(c.ckptEvery, func() {
			if err := st.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "checkpoint:", err)
			}
		})
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
	ckpt.Stop()
	if node != nil {
		node.Close() // before the store stops: releases semi-sync waiters
	}
	srv.Close()
	st.Stop()
	if err := st.Close(); err != nil {
		return fmt.Errorf("clean shutdown: %w", err)
	}
	if c.data != "" {
		tmp := c.data + ".tmp"
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
		if err := os.Rename(tmp, c.data); err != nil {
			return err
		}
		fmt.Printf("image saved to %s\n", c.data)
	}
	return nil
}
