package fault

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/tier"
)

// OpKind identifies a scripted workload step.
type OpKind uint8

const (
	// KPut stores Key → Val.
	KPut OpKind = iota + 1
	// KDelete removes Key.
	KDelete
	// KGC runs one CleanOnce on every group's cleaner.
	KGC
	// KCheckpoint persists a runtime checkpoint.
	KCheckpoint
	// KGet reads Key through the request path (a cold hit on a key read
	// before promotes); the answer joins the history.
	KGet
	// KTierCompact runs one cold-tier compaction pass.
	KTierCompact
)

func (k OpKind) String() string {
	switch k {
	case KPut:
		return "put"
	case KDelete:
		return "delete"
	case KGC:
		return "gc"
	case KCheckpoint:
		return "checkpoint"
	case KGet:
		return "get"
	case KTierCompact:
		return "tier-compact"
	}
	return "unknown"
}

// Op is one scripted workload step.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  []byte
}

// Put builds a KPut step.
func Put(key uint64, val []byte) Op { return Op{Kind: KPut, Key: key, Val: val} }

// Delete builds a KDelete step.
func Delete(key uint64) Op { return Op{Kind: KDelete, Key: key} }

// GC builds a KGC step.
func GC() Op { return Op{Kind: KGC} }

// Checkpoint builds a KCheckpoint step.
func Checkpoint() Op { return Op{Kind: KCheckpoint} }

// Get builds a KGet step.
func Get(key uint64) Op { return Op{Kind: KGet, Key: key} }

// TierCompact builds a KTierCompact step.
func TierCompact() Op { return Op{Kind: KTierCompact} }

// Harness sweeps a scripted workload over every crash point. The optional
// prelude runs ONCE, uninstrumented, and is closed cleanly into an arena
// image; every trial then opens an arena over that image, so a trial's
// cost is the (short) script — the pages it writes — rather than the bulk
// fill that created GC-worthy chunks, or a copy of it.
// When cfg.Tier.Dir is set it is treated as a base directory: the
// prelude runs in <dir>/prelude and every trial gets its own
// <dir>/trial-N populated with a byte-exact copy of the prelude's
// segment files, so trials cannot contaminate each other through the
// disk tier. The injected crash counts the tier's disk persist points
// alongside the PM ones.
type Harness struct {
	cfg     core.Config
	prelude []Op
	script  []Op

	// Recovered, when set, sees every trial's store as its first recovery
	// left it, after Check passed: a test can tally which of a script's
	// intermediate states its crash points actually reached.
	Recovered func(st *core.Store)

	img     *pmem.Image       // clean media image after the prelude
	base    map[uint64][]byte // the store's contents after the prelude
	tierImg map[string][]byte // segment files after the prelude
	trialN  int
}

// NewHarness builds a harness for cfg. prelude may be nil.
func NewHarness(cfg core.Config, prelude, script []Op) *Harness {
	if cfg.ArenaChunks == 0 {
		cfg.ArenaChunks = cfg.Cores + 8 // mirror Config.validate's default
	}
	return &Harness{cfg: cfg, prelude: prelude, script: script}
}

// trial is one store being driven inline (single goroutine, no Run): ops
// are submitted directly to the owning core and the per-core state
// machines are stepped until the response surfaces. Every Put, Delete and
// Get is recorded in h, so a crash anywhere leaves the op in flight open
// for h.Crash to close.
type trial struct {
	st       *core.Store
	cleaners []*core.Cleaner
	h        *histcheck.History
	nextID   uint64
}

func newTrialOn(st *core.Store, h *histcheck.History) *trial {
	tr := &trial{st: st, h: h}
	for g := range st.Groups() {
		tr.cleaners = append(tr.cleaners, st.NewCleaner(g))
	}
	return tr
}

// exec runs one scripted op to completion (response observed) or panics
// out through an injected crash, leaving the op open in tr.h.
func (tr *trial) exec(op Op) error {
	switch op.Kind {
	case KGC:
		for _, cl := range tr.cleaners {
			cl.CleanOnce()
		}
		return nil
	case KCheckpoint:
		// Out of space is an acceptable outcome; the crash points inside
		// a failed attempt still count.
		_ = tr.st.Checkpoint()
		return nil
	case KTierCompact:
		if _, err := tr.st.TierCompactOnce(); err != nil {
			return fmt.Errorf("fault: tier compaction: %w", err)
		}
		return nil
	}

	req := rpc.Request{Key: op.Key}
	var o *histcheck.Op
	switch op.Kind {
	case KPut:
		req.Op, req.Value = rpc.OpPut, op.Val
		o = tr.h.Put(op.Key, op.Val)
	case KDelete:
		req.Op = rpc.OpDelete
		o = tr.h.Delete(op.Key)
	case KGet:
		req.Op = rpc.OpGet
		o = tr.h.Read(op.Key)
	default:
		return fmt.Errorf("fault: unknown op kind %d", op.Kind)
	}
	resp, err := tr.call(req)
	if err != nil {
		return err
	}
	switch {
	case resp.Status == rpc.StatusNotFound:
		o.Saw(nil, false) // a Get or a Delete found the key absent
	case op.Kind == KGet && resp.Status == rpc.StatusOK:
		o.Saw(resp.Value, true)
	case op.Kind == KGet:
		return fmt.Errorf("fault: get key %#x: status %d", op.Key, resp.Status)
	case resp.Status == rpc.StatusOK:
		o.Ack()
	default:
		o.Fail() // refused, e.g. out of space
	}
	return nil
}

// call submits req to its key's core and drives the cores until it is
// answered.
func (tr *trial) call(req rpc.Request) (rpc.Response, error) {
	tr.nextID++
	req.ID = tr.nextID
	tc := tr.st.Core(tr.st.CoreOf(req.Key))
	tc.Submit(req, 0)
	return tr.drive(tc, req.ID)
}

// drive steps every core until the response for id appears in tc's
// outbox. Single-goroutine, so a bounded spin means a real deadlock. The
// core that took the request steps first, as it would in its own loop: it
// leads the batch, so a key's entries land in its owner's log and a script
// decides which log grows.
func (tr *trial) drive(tc *core.Core, id uint64) (rpc.Response, error) {
	for spins := 0; spins < 1<<20; spins++ {
		for _, o := range tc.TakeResponses() {
			if o.Resp.ID == id {
				return o.Resp, nil
			}
		}
		for i := 0; i < tr.st.Cores(); i++ {
			c := tr.st.Core((tc.ID() + i) % tr.st.Cores())
			c.TryLead()
			c.DrainCompleted()
		}
	}
	return rpc.Response{}, fmt.Errorf("fault: request %d never completed", id)
}

func (tr *trial) execAll(script []Op) error {
	for i, op := range script {
		if err := tr.exec(op); err != nil {
			return fmt.Errorf("script op %d: %w", i, err)
		}
	}
	return nil
}

// init runs the prelude once, checks it, and captures the clean image and
// the store's contents, which every trial's history starts from.
func (h *Harness) init() error {
	if len(h.prelude) == 0 || h.img != nil {
		return nil
	}
	cfg := h.cfg
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	cfg.Arena = arena
	if h.cfg.Tier.Dir != "" {
		cfg.Tier.Dir = filepath.Join(h.cfg.Tier.Dir, "prelude")
	}
	st, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("fault: prelude store: %w", err)
	}
	tr := newTrialOn(st, histcheck.New(nil))
	if err := tr.execAll(h.prelude); err != nil {
		return fmt.Errorf("fault: prelude: %w", err)
	}
	if h.base, err = audit(st, tr.h); err != nil {
		return fmt.Errorf("fault: prelude: %w", err)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("fault: prelude close: %w", err)
	}
	if h.img, err = arena.Image(); err != nil {
		return err
	}
	arena.Release()
	if cfg.Tier.Dir != "" {
		h.tierImg = map[string][]byte{}
		segs, err := filepath.Glob(filepath.Join(cfg.Tier.Dir, "*.seg"))
		if err != nil {
			return err
		}
		for _, p := range segs {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			h.tierImg[filepath.Base(p)] = b
		}
	}
	return nil
}

// newTrial builds a fresh store at the workload's start state: a clean
// reopen of the prelude image, or a brand-new store without one. The
// returned config is what the trial actually ran with (its Tier.Dir is
// the per-trial directory) — crash recovery must reopen with it.
func (h *Harness) newTrial() (*trial, *pmem.Arena, core.Config, error) {
	cfg := h.cfg
	if h.cfg.Tier.Dir != "" {
		h.trialN++
		dir := filepath.Join(h.cfg.Tier.Dir, fmt.Sprintf("trial-%d", h.trialN))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, cfg, err
		}
		for name, b := range h.tierImg {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				return nil, nil, cfg, err
			}
		}
		cfg.Tier.Dir = dir
	}
	var arena *pmem.Arena
	var st *core.Store
	var err error
	if h.img != nil {
		arena, err = h.img.Open()
		if err != nil {
			return nil, nil, cfg, err
		}
		cfg.Arena = arena
		st, err = core.Open(cfg)
	} else {
		arena = pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
		cfg.Arena = arena
		st, err = core.New(cfg)
	}
	if err != nil {
		arena.Release()
		return nil, nil, cfg, fmt.Errorf("fault: trial store: %w", err)
	}
	return newTrialOn(st, histcheck.New(h.base)), arena, cfg, nil
}

// CountPoints runs the script once uninstrumented-but-counted, audits the
// store it leaves against its history, and returns the total number of
// persist-ordering points plus their kinds.
func (h *Harness) CountPoints() (uint64, []PointInfo, error) {
	if err := h.init(); err != nil {
		return 0, nil, err
	}
	tr, arena, _, err := h.newTrial()
	if err != nil {
		return 0, nil, err
	}
	defer arena.Release()
	in := Attach(arena)
	in.AttachTier(tr.st.Tier())
	in.Record()
	var execErr error
	crashed := in.Run(func() { execErr = tr.execAll(h.script) })
	in.Detach()
	if crashed {
		return 0, nil, fmt.Errorf("fault: count pass crashed without being armed")
	}
	if execErr != nil {
		return 0, nil, execErr
	}
	if _, err := audit(tr.st, tr.h); err != nil {
		return 0, nil, err
	}
	return in.Points(), in.Recorded(), nil
}

// Observe runs the script once on a trial store with no fault injected
// and calls fn after every op, so a test can assert that its script
// really reaches the states it means to crash in; then it audits the store
// against the run's history, as CountPoints does.
func (h *Harness) Observe(fn func(i int, st *core.Store)) error {
	if err := h.init(); err != nil {
		return err
	}
	tr, arena, _, err := h.newTrial()
	if err != nil {
		return err
	}
	defer arena.Release()
	fn(-1, tr.st)
	for i, op := range h.script {
		if err := tr.exec(op); err != nil {
			return fmt.Errorf("script op %d: %w", i, err)
		}
		fn(i, tr.st)
	}
	_, err = audit(tr.st, tr.h)
	if t := tr.st.Tier(); t != nil {
		t.Close()
	}
	return err
}

// probeKey is written to every recovered store to prove it still accepts
// work; workload scripts must not use it.
const probeKey = 0xFA17_0000_0000_0001

// RunPoint executes one fault trial: run the script with a crash armed at
// point n (torn to tearKeep media bytes if tearKeep ≥ 0), recover the
// media image through core.Open, check every invariant against the
// trial's history, exercise the recovered store (a put and a runtime
// checkpoint), crash it AGAIN, and re-check the same history, which now
// holds the first recovery's reads — so state recovery itself must leave a
// recoverable, operational store. Reports whether the armed point was
// reached.
func (h *Harness) RunPoint(n uint64, tearKeep int) (bool, error) {
	if err := h.init(); err != nil {
		return false, err
	}
	tr, arena, tcfg, err := h.newTrial()
	if err != nil {
		return false, err
	}
	defer arena.Release()
	in := Attach(arena)
	in.AttachTier(tr.st.Tier())
	if tearKeep >= 0 {
		in.TearAt(n, tearKeep)
	} else {
		in.CrashAt(n)
	}
	var execErr error
	crashed := in.Run(func() { execErr = tr.execAll(h.script) })
	in.Detach()
	// A run with fewer points than n (the engine is not required to be
	// deterministic across runs) completed: its state must survive a
	// crash-at-the-end exactly.
	if !crashed && execErr != nil {
		return false, execErr
	}

	// Power failure: only the media view survives — and the disk tier,
	// whose files are real and are reopened in place by recovery. The
	// abandoned store's segment handles are closed first (closing fds
	// mutates nothing on disk, so this is crash-faithful).
	if t := tr.st.Tier(); t != nil {
		t.Close()
	}
	cfg := tcfg
	cfg.Arena = arena.Crash()
	tr.h.Crash()
	defer cfg.Arena.Release()
	re, err := core.Open(cfg)
	if err != nil {
		return crashed, fmt.Errorf("recovery failed: %w", err)
	}
	if err := Check(re, tr.h); err != nil {
		return crashed, err
	}
	if h.Recovered != nil {
		h.Recovered(re)
	}

	// Liveness probe: the recovered store must take new writes and a
	// runtime checkpoint (which frees any pre-crash checkpoint block
	// through the allocator — a path that only works if recovery left
	// the blob accounted for).
	probe := newTrialOn(re, tr.h)
	if err := probe.exec(Put(probeKey, []byte("post-recovery probe"))); err != nil {
		return crashed, fmt.Errorf("post-recovery put: %w", err)
	}
	if err := probe.exec(Checkpoint()); err != nil {
		return crashed, err
	}

	// Second crash: recovery's own persists (journal clears, descriptor
	// repairs, segment quarantines) must themselves be durable and
	// consistent.
	cfg2 := tcfg
	if t := re.Tier(); t != nil {
		t.Close()
	}
	cfg2.Arena = re.Arena().Crash()
	tr.h.Crash()
	defer cfg2.Arena.Release()
	re2, err := core.Open(cfg2)
	if err != nil {
		return crashed, fmt.Errorf("second recovery failed: %w", err)
	}
	if err := Check(re2, tr.h); err != nil {
		return crashed, fmt.Errorf("after second crash: %w", err)
	}
	return crashed, nil
}

// SweepStats summarizes a Sweep.
type SweepStats struct {
	Points    uint64 // persist-ordering points the workload generates
	Crashes   int    // trials that crashed at their armed point
	Completed int    // trials whose run had fewer points (checked at end)
	Torn      int    // additional torn-flush trials
}

// tornKeeps lists the prefixes an n-byte flush is torn to: every 8-byte
// prefix of a flush of up to 1 KiB (log batches, headers and slots — where
// one word more or less on the media decides what recovery reads), the
// first word and the half of anything larger.
func tornKeeps(n int) (keeps []int) {
	if n > 1024 {
		return []int{8, (n / 2) &^ 7}
	}
	for k := 8; k < n; k += 8 {
		keeps = append(keeps, k)
	}
	return keeps
}

// Sweep runs the workload once per crash point, checking every recovery
// invariant each time. With tear set, every multi-word flush point is
// additionally swept with torn (partial) flushes. The first failure fails
// t; a sweep that ran logs what it covered, and one that covered nothing
// fails too.
func (h *Harness) Sweep(t testing.TB, tear bool) SweepStats {
	t.Helper()
	var stats SweepStats
	total, points, err := h.CountPoints()
	if err != nil {
		t.Fatal(err)
	}
	stats.Points = total
	for n := uint64(1); n <= total; n++ {
		crashed, err := h.RunPoint(n, -1)
		if err != nil {
			t.Fatalf("crash point %d/%d: %v", n, total, err)
		}
		if crashed {
			stats.Crashes++
		} else {
			stats.Completed++
		}
	}
	if tear {
		for i, pi := range points {
			tornTmp := pi.Kind == PointTier && pi.Stage == tier.StageTmpWritten
			if (pi.Kind != pmem.PointFlush && !tornTmp) || pi.N <= 8 {
				continue
			}
			n := uint64(i + 1)
			for _, keep := range tornKeeps(pi.N) {
				if _, err := h.RunPoint(n, keep); err != nil {
					t.Fatalf("torn flush at point %d (keep %d/%d): %v", n, keep, pi.N, err)
				}
				stats.Torn++
			}
		}
	}
	if stats.Points == 0 || stats.Crashes == 0 {
		t.Fatalf("sweep exercised nothing: %+v", stats)
	}
	t.Logf("swept %d crash points (%d crashed, %d completed, %d torn)",
		stats.Points, stats.Crashes, stats.Completed, stats.Torn)
	return stats
}
