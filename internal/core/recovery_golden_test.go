package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/tier"
)

// goldenPath holds, per image, the persist trace Open produced and a digest
// of the state it recovered. Delete the file and run TestRecoverGolden to
// regenerate it: the run writes it and fails, so a regeneration is never
// mistaken for a pass.
const goldenPath = "testdata/recover_golden.txt"

// stepper steps a store's cores on the calling goroutine, one request
// at a time, as the fault harness's trial does: the owner core leads first,
// so every batch and every persist lands in the same place on every run.
type stepper struct {
	st     *Store
	nextID uint64
}

func (d *stepper) do(t *testing.T, op uint8, key uint64, val []byte) {
	t.Helper()
	d.nextID++
	tc := d.st.cores[d.st.CoreOf(key)]
	tc.Submit(rpc.Request{ID: d.nextID, Op: op, Key: key, Value: val}, 0)
	for spins := 0; spins < 1<<20; spins++ {
		for _, o := range tc.TakeResponses() {
			if o.Resp.ID == d.nextID {
				return
			}
		}
		for i := range d.st.cores {
			c := d.st.cores[(tc.id+i)%len(d.st.cores)]
			c.TryLead()
			c.DrainCompleted()
		}
	}
	t.Fatalf("request %d on key %#x never completed", d.nextID, key)
}

func (d *stepper) put(t *testing.T, key uint64, step, size int) {
	t.Helper()
	v := []byte(fmt.Sprintf("k%d-s%d-", key, step))
	for len(v) < size {
		v = append(v, byte('a'+(key+uint64(step)+uint64(len(v)))%26))
	}
	d.do(t, rpc.OpPut, key, v[:size])
}

func (d *stepper) del(t *testing.T, key uint64) {
	t.Helper()
	d.do(t, rpc.OpDelete, key, nil)
}

// goldenBase writes 120 keys (every fourth out of place), overwrites a
// third of them and deletes ten.
func goldenBase(t *testing.T, _ *Store, d *stepper) {
	for k := uint64(0); k < 120; k++ {
		size := 40
		if k%4 == 0 {
			size = 300
		}
		d.put(t, k, 0, size)
	}
	for k := uint64(0); k < 40; k++ {
		d.put(t, k, 1, 60+int(k%3)*150)
	}
	for k := uint64(40); k < 50; k++ {
		d.del(t, k)
	}
}

// goldenLater is the traffic after a runtime checkpoint.
func goldenLater(t *testing.T, d *stepper) {
	for k := uint64(100); k < 140; k++ {
		d.put(t, k, 2, 30+int(k%2)*300)
	}
	d.del(t, 0)
	d.del(t, 101)
}

// crashSignal is the panic a persist hook raises to cut the power.
type crashSignal struct{}

// runToCrash runs fn and reports whether it ended in a crashSignal.
func runToCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// goldenImage is one arena image Open is pinned on.
type goldenImage struct {
	name  string
	cfg   func(t *testing.T) Config
	build func(t *testing.T, st *Store, d *stepper)
	// clean closes the store before the power cut.
	clean bool
	// rot damages the cut image at rest before Open.
	rot     func(t *testing.T, st *Store, a *pmem.Arena)
	salvage bool
}

func goldenCfg(*testing.T) Config {
	return Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 10}
}

func goldenImages() []goldenImage {
	return []goldenImage{
		{name: "clean close", cfg: goldenCfg, build: goldenBase, clean: true},
		{name: "crash", cfg: goldenCfg, build: goldenBase},
		{name: "crash after checkpoint", cfg: goldenCfg, build: func(t *testing.T, st *Store, d *stepper) {
			goldenBase(t, st, d)
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			goldenLater(t, d)
		}},
		{name: "crash with torn descriptor", cfg: goldenCfg, build: func(t *testing.T, st *Store, d *stepper) {
			goldenBase(t, st, d)
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			goldenLater(t, d)
			// Cut the power between the descriptor's length and pointer
			// persists: the media holds the new length and the old pointer.
			st.arena.SetHook(func(k pmem.PointKind, off, _ int) {
				if k == pmem.PointFlush && off == offCkpt {
					panic(crashSignal{})
				}
			})
			if !runToCrash(func() { _ = st.Checkpoint() }) {
				t.Fatal("second checkpoint never persisted its pointer")
			}
			st.arena.SetHook(nil)
		}},
		{name: "tiered crash mid-demotion", cfg: func(t *testing.T) Config {
			return Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 8,
				GC:   GCConfig{DeadRatio: 0.3},
				Tier: TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10}}
		}, build: func(t *testing.T, st *Store, d *stepper) {
			// Churn plus one never-overwritten key per round, until the log
			// has two closed chunks that are mostly dead.
			keep := uint64(10_000)
			for len(st.cores[0].log.Chunks()) < 3 {
				for k := uint64(0); k < 250; k++ {
					d.put(t, 1000+k, int(keep), 200)
				}
				d.put(t, keep, 0, 24)
				keep++
			}
			d.del(t, 1000)
			// The segment is durable; the index still names the PM copies.
			st.tier.SetHook(func(p tier.Point) error {
				if p.Stage == tier.StageDirSynced {
					panic(crashSignal{})
				}
				return nil
			})
			if !runToCrash(func() { st.NewCleaner(0).CleanOnce() }) {
				t.Fatal("cleaning pass demoted nothing")
			}
			st.tier.SetHook(nil)
		}},
		{name: "salvage rotted batch", cfg: goldenCfg, salvage: true, build: goldenBase,
			rot: func(t *testing.T, st *Store, a *pmem.Arena) {
				var offs []int64
				if err := st.cores[0].log.Scan(func(off int64, _ oplog.Entry) bool {
					offs = append(offs, off)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				a.Corrupt(int(offs[len(offs)/2])+9, 1, func(b []byte) { b[0] ^= 0x10 })
			}},
		{name: "salvage clean image with rotted checkpoint", cfg: goldenCfg, build: goldenBase, clean: true, salvage: true,
			rot: func(t *testing.T, st *Store, a *pmem.Arena) {
				ptr, n := st.CheckpointDesc()
				if ptr == 0 {
					t.Fatal("clean close left no checkpoint")
				}
				a.Corrupt(int(ptr)+n/2, 1, func(b []byte) { b[0] ^= 0x01 })
			}},
	}
}

// TestRecoverGolden pins Open on seven images built deterministically: the
// exact sequence of persist points it reaches (kind, offset, length), and a
// digest of everything it recovers — index, registry, quarantine set, chunk
// usage, allocator blocks, salvage report, integrity counters and log
// tails. A change to recovery that is meant to move no byte keeps both.
func TestRecoverGolden(t *testing.T) {
	var out strings.Builder
	for _, img := range goldenImages() {
		fmt.Fprintf(&out, "== %s\n", img.name)
		out.WriteString(recoverGolden(t, img))
	}
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; rerun to compare against it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("recovery moved from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("recovery output has %d lines, %s has %d", len(gl), goldenPath, len(wl))
	}
}

// recoverGolden builds img, cuts the power, and opens the surviving media
// with a persist hook installed; it returns the trace and the digest.
func recoverGolden(t *testing.T, img goldenImage) string {
	t.Helper()
	cfg := img.cfg(t)
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	defer arena.Release()
	cfg.Arena = arena
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img.build(t, st, &stepper{st: st})
	if img.clean {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	} else if st.tier != nil {
		st.tier.Close()
	}
	if img.rot != nil {
		// Every log witnessed first, so rot reads as rot, not a torn tail.
		for _, c := range st.cores {
			c.log.PersistWitness(c.f)
		}
	}
	cut := arena.Crash()
	defer cut.Release()
	if img.rot != nil {
		img.rot(t, st, cut)
	}

	var b strings.Builder
	var trace []string
	cut.SetHook(func(k pmem.PointKind, off, n int) {
		trace = append(trace, fmt.Sprintf("%d %#x %d", k, off, n))
	})
	cfg.Arena, cfg.Salvage = cut, img.salvage
	re, err := Open(cfg)
	cut.SetHook(nil)
	if err != nil {
		t.Fatalf("%s: %v", img.name, err)
	}
	if re.tier != nil {
		defer re.tier.Close()
	}
	fmt.Fprintf(&b, "trace %d\n", len(trace))
	for _, p := range trace {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	b.WriteString(recoverDigest(re))
	return b.String()
}

// recoverDigest renders a recovered store's state in a canonical order.
func recoverDigest(st *Store) string {
	var lines []string
	add := func(format string, a ...any) { lines = append(lines, fmt.Sprintf(format, a...)) }
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		add("idx %#x %#x %d", key, ref, ver)
	})
	for _, c := range st.cores {
		for key, m := range c.reg {
			add("reg %d %#x ver=%d stale=%d deleted=%v tomb=%#x", c.id, key, m.lastVer, m.stale, m.deleted, m.tombOff)
		}
		for key, ver := range c.quar {
			add("quar %d %#x %d", c.id, key, ver)
		}
	}
	for i := range st.usage {
		if owner, total, live := st.usage.load(i); owner >= 0 {
			add("usage %#x owner=%d total=%d live=%d", int64(i)*pmem.ChunkSize, owner, total, live)
		}
	}
	st.al.AuditBlocks(func(off int64, class int) { add("block %#x %d", off, class) })
	slices.Sort(lines)
	var b strings.Builder
	fmt.Fprintf(&b, "digest %d\n", len(lines))
	for _, l := range lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "salvage %+v\n", st.SalvageReport())
	fmt.Fprintf(&b, "integrity %+v\n", st.Integrity())
	for _, lt := range st.LogTails() {
		fmt.Fprintf(&b, "%s\n", lt)
	}
	return b.String()
}
