package fault

// Media-fault tests for the cold tier: segment files are real files, so
// unlike the arena sweeps the damage here is applied directly to the
// bytes on disk — bit flips in record data, rotted footers, a zeroed
// page, truncation — before the store reopens. The contract mirrors the
// PM one: a corrupt cold record fails closed (StatusCorrupt), salvage
// quarantines the affected keys (harvesting footer-rotted segments for
// candidates), a non-salvage open fails with a typed error, and no read
// ever returns bytes that were not acknowledged.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/index"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
)

func tierMediaCfg(dir string) core.Config {
	return core.Config{
		Cores: 1, Mode: batch.ModeNone, ArenaChunks: 9,
		GC:   core.GCConfig{DeadRatio: 0.5},
		Tier: core.TierConfig{Dir: dir, DemoteFreeChunks: 1 << 10, CompactRatio: 0.5},
	}
}

// tierMediaImage fills a tiered store until chunk 1 closes, demotes its
// live records with one GC pass, writes a little more foreground data,
// and captures the dirty arena image plus the segment file bytes — the
// exact state a power cut would leave. The demoted keys' only copies
// live in the segments (the victim chunk was reclaimed), so damaging the
// files attacks data with no PM fallback.
func tierMediaImage(t *testing.T) (img []byte, segImg map[string][]byte, h *histcheck.History, coldKeys []uint64) {
	t.Helper()
	dir := t.TempDir()
	cfg := tierMediaCfg(dir)
	arena := pmem.New(cfg.ArenaChunks * pmem.ChunkSize)
	cfg.Arena = arena
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrialOn(st, histcheck.New(nil))
	step := func(op Op) {
		t.Helper()
		if err := tr.exec(op); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 120; k++ {
		step(Put(k, mval(k, 0, 200)))
	}
	for k := uint64(200); k <= 219; k++ {
		step(Put(k, mval(k, 0, 400)))
	}
	for r := 0; r < 200; r++ {
		for k := uint64(1000); k < 1080; k++ {
			step(Put(k, mval(k, r, 250)))
		}
	}
	for k := uint64(116); k <= 120; k++ {
		step(Delete(k))
	}
	step(GC()) // demotes every live chunk-1 record
	for k := uint64(300); k <= 305; k++ {
		step(Put(k, mval(k, 0, 64)))
	}
	st.Core(0).Index().Range(func(k uint64, ref int64, _ uint32) bool {
		if index.Cold(ref) {
			coldKeys = append(coldKeys, k)
		}
		return true
	})
	if len(coldKeys) < 100 {
		t.Fatalf("GC demoted only %d keys", len(coldKeys))
	}
	var buf bytes.Buffer
	if _, err := arena.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img = buf.Bytes()
	segImg = map[string][]byte{}
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segment files after demotion (err=%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		segImg[filepath.Base(p)] = b
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return img, segImg, tr.h, coldKeys
}

// tierReopen materializes the captured state into a fresh tier dir,
// applies damage to the segment files, and reopens through core.Open.
// Returns the store (nil if Open failed loudly — acceptable when
// salvage is off) and never lets recovery panic.
func tierReopen(t *testing.T, img []byte, segImg map[string][]byte, damage func(dir string), salvage bool) *core.Store {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("recovery panicked (salvage=%v): %v\n%s", salvage, r, debug.Stack())
		}
	}()
	dir := t.TempDir()
	for name, b := range segImg {
		if err := os.WriteFile(filepath.Join(dir, name), append([]byte(nil), b...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if damage != nil {
		damage(dir)
	}
	arena, err := pmem.ReadArena(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tierMediaCfg(dir)
	cfg.Arena = arena
	cfg.Salvage = salvage
	st, err := core.Open(cfg)
	if err != nil {
		if salvage {
			t.Fatalf("salvage open refused: %v", err)
		}
		return nil // typed loud failure — the non-salvage contract
	}
	return st
}

// segFile returns the single segment file name holding cold records
// (the image's one demotion produces one segment).
func segFile(t *testing.T, segImg map[string][]byte) string {
	t.Helper()
	if len(segImg) != 1 {
		t.Fatalf("expected exactly one segment, have %d", len(segImg))
	}
	for name := range segImg {
		return name
	}
	return ""
}

// TestTierMediaFaultShapes drives the canonical segment-rot shapes
// through both salvage and strict recovery: a value-byte bit flip, a
// rotted footer, a zeroed 4 KiB page of record data, and file
// truncation. Salvage must come up with every damaged key quarantined
// or absent and nothing fabricated; strict recovery must refuse with a
// typed error rather than open over silent loss.
func TestTierMediaFaultShapes(t *testing.T) {
	img, segImg, h, _ := tierMediaImage(t)
	name := segFile(t, segImg)
	size := len(segImg[name])
	shapes := map[string]func(dir string){
		"recordflip": func(dir string) {
			corruptFile(t, filepath.Join(dir, name), 32+24+5, func(b byte) byte { return b ^ 0x20 })
		},
		"footerflip": func(dir string) {
			corruptFile(t, filepath.Join(dir, name), size-17, func(b byte) byte { return b ^ 0x04 })
		},
		"zeropage": func(dir string) {
			p := filepath.Join(dir, name)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 32; i < 32+4096 && i < len(b); i++ {
				b[i] = 0
			}
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncate": func(dir string) {
			if err := os.Truncate(filepath.Join(dir, name), int64(size/2)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for sname, damage := range shapes {
		t.Run(sname, func(t *testing.T) {
			st := tierReopen(t, img, segImg, damage, true)
			st.ScrubOnce() // catches record rot a clean-path open would not touch
			if err := CheckSalvage(st, h); err != nil {
				t.Fatal(err)
			}
			if rep := st.SalvageReport(); rep.Clean() && st.Integrity().Quarantined == 0 {
				t.Fatalf("damage went unnoticed: report %q", rep)
			}
			// Strict mode: the same damage must refuse to open (or, if it
			// opens, still never serve garbage).
			if ss := tierReopen(t, img, segImg, damage, false); ss != nil {
				if err := unfabricated(ss, h); err != nil {
					t.Fatal(err)
				}
				t.Fatal("strict open succeeded over damaged segment media")
			}
		})
	}
	// Control: undamaged reopen must be byte-exact in strict salvage terms.
	st := tierReopen(t, img, segImg, nil, true)
	if err := CheckSalvage(st, h); err != nil {
		t.Fatal(err)
	}
	if rep := st.SalvageReport(); !rep.Clean() || st.Integrity().Quarantined != 0 {
		t.Fatalf("undamaged image reported damage: %q", rep)
	}
}

// corruptFile rewrites one byte of a file through fn.
func corruptFile(t *testing.T, path string, off int, fn func(byte) byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 || off >= len(b) {
		t.Fatalf("corrupt offset %d outside file of %d bytes", off, len(b))
	}
	b[off] = fn(b[off])
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTierMediaColdReadFailsClosed rots one specific cold record and
// proves the full fail-closed story end to end: salvage quarantines
// exactly that key, the serving path answers StatusCorrupt (never
// bytes), an overwrite heals it, and a second crash + salvage reopen
// neither resurrects the rotted value nor loses the heal.
func TestTierMediaColdReadFailsClosed(t *testing.T) {
	img, segImg, h, coldKeys := tierMediaImage(t)
	name := segFile(t, segImg)

	// Locate the victim's record inside the segment file via an
	// undamaged probe open: ColdParts gives its file offset.
	probe := tierReopen(t, img, segImg, nil, false)
	victim := coldKeys[len(coldKeys)/2]
	ref, _, ok := probe.Core(0).Index().Get(victim)
	if !ok || !index.Cold(ref) {
		t.Fatalf("victim %#x not cold in probe open", victim)
	}
	_, off := index.ColdParts(ref)

	st := tierReopen(t, img, segImg, func(dir string) {
		// +24 skips the record header into value bytes: the footer stays
		// valid, only the record's CRC can catch this.
		corruptFile(t, filepath.Join(dir, name), int(off)+24+3, func(b byte) byte { return b ^ 0x80 })
	}, true)
	if err := CheckSalvage(st, h); err != nil {
		t.Fatal(err)
	}
	if !st.Core(0).Quarantined(victim) {
		t.Fatalf("rotted cold key %#x not quarantined: %q", victim, st.SalvageReport())
	}
	tr := newTrialOn(st, h)
	if s, v := getStatus(t, tr, victim); s != rpc.StatusCorrupt || len(v) != 0 {
		t.Fatalf("Get of rotted cold key: status %v (%d bytes), want StatusCorrupt", s, len(v))
	}
	// Undamaged cold neighbors still read values they were written.
	okReads := 0
	for _, k := range coldKeys {
		if k == victim {
			continue
		}
		if s, v := getStatus(t, tr, k); s == rpc.StatusOK && h.Ever(k, v) {
			okReads++
		}
		if okReads == 5 {
			break
		}
	}
	if okReads < 5 {
		t.Fatal("undamaged cold keys unreadable after a single-record rot")
	}

	heal := mval(victim, 99, 90)
	if err := tr.exec(Put(victim, heal)); err != nil {
		t.Fatalf("put to quarantined cold key: %v", err)
	}
	if st.Core(0).Quarantined(victim) {
		t.Fatal("overwrite did not clear quarantine")
	}

	cfg := tierMediaCfg(st.Tier().Dir())
	if tt := st.Tier(); tt != nil {
		tt.Close()
	}
	cfg.Arena = st.Arena().Crash()
	cfg.Salvage = true
	re, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("second salvage open: %v", err)
	}
	got, gok, err := readVerified(re, victim)
	if err != nil || !gok || !bytes.Equal(got, heal) {
		t.Fatalf("healed cold key after second crash: ok=%v err=%v", gok, err)
	}
	if err := CheckSalvage(re, h); err != nil {
		t.Fatal(err)
	}
}

// TestTierMediaBitflipSweep flips a strided sample of single bits across
// the whole segment file (every byte under FLATSTORE_SOAK=1), salvage-
// reopens, and checks the full contract each time: no panic, no
// fabricated bytes, loss only with a report.
func TestTierMediaBitflipSweep(t *testing.T) {
	img, segImg, h, _ := tierMediaImage(t)
	name := segFile(t, segImg)
	size := len(segImg[name])
	stride := size / 48
	if testing.Short() {
		stride = size / 12
	}
	if os.Getenv("FLATSTORE_SOAK") == "1" {
		stride = 1
	}
	trials := 0
	for off := 3 % stride; off < size; off += stride {
		off := off
		st := tierReopen(t, img, segImg, func(dir string) {
			corruptFile(t, filepath.Join(dir, name), off, func(b byte) byte { return b ^ (1 << (off % 8)) })
		}, true)
		st.ScrubOnce()
		if err := CheckSalvage(st, h); err != nil {
			t.Fatalf("flip at byte %d/%d: %v", off, size, err)
		}
		trials++
	}
	if trials < 10 {
		t.Fatalf("sweep ran only %d trials", trials)
	}
	t.Logf("swept %d bit flips across a %d-byte segment", trials, size)
}
