// Command flatstore-bench regenerates the tables and figures of the
// FlatStore paper (ASPLOS'20) on the virtual-time simulator described in
// DESIGN.md. Each experiment prints the rows/series of the corresponding
// figure; `all` runs the whole table below in order (the output
// EXPERIMENTS.md quotes). Time here is virtual, so the output is a
// function of the code alone; wall-clock numbers come from the scoreboard
// (benchmark/README.md), never from this command.
//
// Usage:
//
//	flatstore-bench [flags] <experiment>... | all
//
// Absolute numbers depend on the calibrated cost model (see
// internal/sim); the shapes — who wins, by what factor, where curves
// cross — are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flatstore/internal/sim"
)

type benchConfig struct {
	cores   int
	clients int
	cbatch  int
	ops     int
	keys    uint64
	quick   bool
}

var cfg benchConfig

type experiment struct {
	name string
	run  func()
}

// experiments is every experiment this command knows, in the order `all`
// runs them.
var experiments = []experiment{
	{"fig1a", fig1a},
	{"fig1b", fig1b},
	{"fig1c", fig1c},
	{"table1", table1},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"rpc", rpcBench},
	{"groupsize", groupSize},
	{"offload", offload},
	{"inline", inlineAblation},
}

func usage() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return "usage: flatstore-bench [flags] <" + strings.Join(names, "|") + "|all>..."
}

// plan resolves the argument list to the experiments to run, in order. An
// unknown name fails the whole list, so nothing has run when it is
// reported.
func plan(args []string) ([]experiment, error) {
	var runs []experiment
	for _, a := range args {
		n := len(runs)
		for _, e := range experiments {
			if a == "all" || a == e.name {
				runs = append(runs, e)
			}
		}
		if len(runs) == n {
			return nil, fmt.Errorf("unknown experiment %q", a)
		}
	}
	return runs, nil
}

func main() {
	flag.IntVar(&cfg.cores, "cores", 26, "server cores for the full-load experiments")
	flag.IntVar(&cfg.clients, "clients", 288, "closed-loop client threads (the paper uses 12 nodes × 24)")
	flag.IntVar(&cfg.cbatch, "client-batch", 8, "per-client async request window")
	flag.IntVar(&cfg.ops, "ops", 0, "measured requests per configuration point (default 50000, or 15000 with -quick)")
	flag.Uint64Var(&cfg.keys, "keys", 192_000_000, "YCSB key-space size")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink sweeps for a fast smoke run")
	flag.Parse()

	if cfg.ops == 0 {
		cfg.ops = 50_000
		if cfg.quick {
			cfg.ops = 15_000
		}
	}
	runs, err := plan(flag.Args())
	if err != nil || len(runs) == 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "flatstore-bench:", err)
		}
		fmt.Fprintln(os.Stderr, usage())
		os.Exit(2)
	}
	for _, e := range runs {
		e.run()
	}
}

// params builds the common simulation parameters.
func params(ops int) sim.Params {
	return sim.Params{
		Cores:       cfg.cores,
		Clients:     cfg.clients,
		ClientBatch: cfg.cbatch,
		Ops:         ops,
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatstore-bench:", err)
		os.Exit(1)
	}
}
