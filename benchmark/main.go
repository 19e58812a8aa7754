// Command benchmark is the repository's one scoreboard: it starts the
// served configuration (engine + TCP front end on loopback) in this
// process, drives it with one load goroutine over one connection, checks
// every reply, and prints the metrics ../BENCHMARK.json names. README.md
// has the workloads, the glossary and how to compare two results.
//
//	bash benchmark/run.sh                                   # everything, ≈4 min
//	bash benchmark/run.sh --workload d1_mixed_small --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options is the command line.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	out     string // results and traces
	tmp     string // cold-tier segment files, removed at exit
}

// -quick is a smoke run: a twentieth of everything, one set-up, one
// recovery. Its numbers are marked and mean nothing.
func (o *options) scale(n int) int {
	if o.quick {
		return max(n/20, 1)
	}
	return n
}

func (o *options) window() time.Duration {
	return time.Duration(float64(o.scale(1000)) * o.seconds * float64(time.Millisecond))
}

// setups is how often a run sets up; setup_s is the median.
func (o *options) setups() int {
	if o.quick {
		return 1
	}
	return 3
}

func (o *options) recoveries() int {
	if o.quick {
		return 1
	}
	return 5
}

// result is the file a full run writes, and what -compare reads.
type result struct {
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Quick      bool                       `json:"quick"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Go         string                     `json:"go"`
	Commit     string                     `json:"commit"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

// merge folds a second run of the same workload into r.
func (r *workloadResult) merge(o *workloadResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Violations += o.Violations
	r.Audited += o.Audited
	if r.FirstError == "" {
		r.FirstError = o.FirstError
	}
	for k, n := range o.Ops {
		r.Ops[k] += n
	}
	if o.EndToEnd != nil {
		r.EndToEnd = o.EndToEnd
	}
	if o.PerLayer != nil {
		r.PerLayer = o.PerLayer
	}
}

func printMetrics(title string, defs []metricDef, m map[string]*sample) {
	if m == nil {
		return
	}
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		s := m[d.Name]
		n := ""
		if s.Samples > 1 {
			n = fmt.Sprintf("  (%d samples)", s.Samples)
		}
		fmt.Printf("    %-34s %16.4f %-8s%s\n", d.Name, s.Value, d.Unit, n)
	}
}

func run() error {
	var o options
	workload := flag.String("workload", "", "workloads to run, comma separated (default: all)")
	trace := flag.Int("trace", -1, "0: the timed run (end-to-end metrics); 1: the traced run (per-layer metrics); default both")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Int64Var(&o.seed, "seed", 1, "seeds the op stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: a twentieth of the time and op counts; numbers are marked and mean nothing")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for result.json and trace-<workload>.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds <= 0 || *trace < -1 || *trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}

	specs := workloads
	if *workload != "" {
		specs = nil
		for _, name := range strings.Split(*workload, ",") {
			s := findWorkload(name)
			if s == nil {
				return fmt.Errorf("unknown workload %q", name)
			}
			specs = append(specs, s)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	o.tmp = tmp
	defer os.RemoveAll(tmp)

	res := &result{
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Workloads: map[string]*workloadResult{},
	}
	var last *workloadResult
	for _, s := range specs {
		wr := &workloadResult{Ops: map[string]int{}}
		for _, pass := range []struct {
			trace int
			run   func(*spec, *options) (*workloadResult, error)
		}{{0, timedRun}, {1, tracedRun}} {
			if *trace >= 0 && *trace != pass.trace {
				continue
			}
			r, err := pass.run(s, &o)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			wr.merge(r)
			debug.FreeOSMemory()
		}
		res.Workloads[s.name], last = wr, wr
		fmt.Printf("%s: %d ops attempted, %d failed, %d keys audited after a power cut, %d violations\n",
			s.name, wr.Attempted, wr.Failed, wr.Audited, wr.Violations)
		if wr.FirstError != "" {
			fmt.Printf("  first error: %s\n", wr.FirstError)
		}
		printMetrics("end to end", endToEnd, wr.EndToEnd)
		printMetrics("per layer", perLayer, wr.PerLayer)
	}

	blob, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result.json"), blob, 0o644); err != nil {
		return err
	}

	violations := 0
	for _, wr := range res.Workloads {
		violations += wr.Violations
	}
	if len(specs) == 1 && *trace >= 0 {
		// One workload, one kind of run: the last line of standard
		// output is the record the benchmark's driver reads.
		metrics := last.EndToEnd
		if *trace == 1 {
			metrics = last.PerLayer
		}
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{last.Violations == 0, last.Attempted + last.Audited, last.Failed + last.Violations, map[string]value{}}
		for name, s := range metrics {
			line.Metrics[name] = value{s.Value, s.Unit}
		}
		blob, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	}
	if violations != 0 {
		return fmt.Errorf("%d replies or recovered values broke the correctness rules", violations)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
