package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/pmem"
)

// crashAndReopen stops the store, simulates power loss, and reopens.
func crashAndReopen(t *testing.T, st *core.Store, cfg core.Config) (*core.Store, *core.Client) {
	t.Helper()
	st.Stop()
	cfg.Arena = st.Arena().Crash()
	re, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	t.Cleanup(re.Stop)
	return re, re.Connect()
}

func TestCrashRecoveryBasic(t *testing.T) {
	for _, mode := range []batch.Mode{batch.ModeNone, batch.ModePipelinedHB} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Config{Cores: 4, Mode: mode, ArenaChunks: 32}
			st, cl := newRunning(t, cfg)
			for i := uint64(0); i < 500; i++ {
				if err := cl.Put(i, []byte(fmt.Sprintf("val-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			cl.Delete(7)
			cl.Put(9, []byte("updated"))

			re, cl2 := crashAndReopen(t, st, cfg)
			if re.Len() != 499 {
				t.Errorf("recovered %d keys, want 499", re.Len())
			}
			for i := uint64(0); i < 500; i++ {
				v, ok, _ := cl2.Get(i)
				switch {
				case i == 7:
					if ok {
						t.Error("deleted key resurrected after crash")
					}
				case i == 9:
					if !ok || string(v) != "updated" {
						t.Errorf("key 9 = %q,%v, want updated", v, ok)
					}
				default:
					if !ok || string(v) != fmt.Sprintf("val-%d", i) {
						t.Errorf("key %d = %q,%v", i, v, ok)
					}
				}
			}
		})
	}
}

func TestCrashRecoveryVersionsContinue(t *testing.T) {
	// After recovery, versions must keep increasing, or the cleaner's
	// liveness comparison would mis-rank old entries.
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	for i := 0; i < 5; i++ {
		cl.Put(1, []byte(fmt.Sprintf("a%d", i)))
	}
	st2, cl2 := crashAndReopen(t, st, cfg)
	cl2.Put(1, []byte("after"))
	// Crash again: the newest write must win the replay.
	_, cl3 := crashAndReopen(t, st2, cfg)
	v, ok, _ := cl3.Get(1)
	if !ok || string(v) != "after" {
		t.Fatalf("version ordering broken across recoveries: %q %v", v, ok)
	}
}

func TestCleanShutdownAndReopen(t *testing.T) {
	cfg := core.Config{Cores: 4, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	for i := uint64(0); i < 300; i++ {
		cl.Put(i, []byte(fmt.Sprintf("v%d", i)))
	}
	cl.Delete(3)
	st.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	flushes := st.Arena().Stats().Flushes

	cfg2 := cfg
	cfg2.Arena = st.Arena().Crash() // "reboot": only persisted state remains
	re, err := core.Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	cl2 := re.Connect()
	if re.Len() != 299 {
		t.Errorf("reopened with %d keys, want 299", re.Len())
	}
	for _, i := range []uint64{0, 100, 299} {
		v, ok, _ := cl2.Get(i)
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("key %d after clean reopen: %q %v", i, v, ok)
		}
	}
	if _, ok, _ := cl2.Get(3); ok {
		t.Error("deleted key present after clean reopen")
	}
	// Clean reopen must keep serving writes (allocator state intact).
	for i := uint64(1000); i < 1100; i++ {
		if err := cl2.Put(i, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	_ = flushes
}

func TestOpenRejectsCoreMismatch(t *testing.T) {
	cfg := core.Config{Cores: 4, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	cl.Put(1, []byte("x"))
	st.Stop()
	bad := cfg
	bad.Cores = 2
	bad.Arena = st.Arena().Crash()
	if _, err := core.Open(bad); err == nil {
		t.Fatal("Open accepted mismatched core count")
	}
	// Cores=0 infers the stored count.
	infer := core.Config{Mode: batch.ModePipelinedHB, ArenaChunks: 32, Arena: st.Arena().Crash()}
	re, err := core.Open(infer)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cores() != 4 {
		t.Errorf("inferred %d cores, want 4", re.Cores())
	}
}

// Property: any sequence of acknowledged operations survives a crash
// exactly (linearizable per key with sync clients).
func TestQuickCrashConsistency(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
		st, err := core.New(cfg)
		if err != nil {
			return false
		}
		st.Run()
		cl := st.Connect()
		model := map[uint64][]byte{}
		for i := 0; i < 300; i++ {
			key := uint64(rng.Intn(50))
			switch rng.Intn(3) {
			case 0, 1:
				val := make([]byte, 1+rng.Intn(600))
				rng.Read(val)
				if cl.Put(key, val) != nil {
					st.Stop()
					return false
				}
				model[key] = val
			case 2:
				cl.Delete(key)
				delete(model, key)
			}
		}
		st.Stop()
		cfg.Arena = st.Arena().Crash()
		re, err := core.Open(cfg)
		if err != nil {
			return false
		}
		re.Run()
		defer re.Stop()
		cl2 := re.Connect()
		if re.Len() != len(model) {
			return false
		}
		for k, want := range model {
			v, ok, _ := cl2.Get(k)
			if !ok || !bytes.Equal(v, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaImageRoundtrip(t *testing.T) {
	// Saving the media view to a stream and loading it back is a crash
	// plus a process restart: Open must recover the image exactly.
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32}
	st, cl := newRunning(t, cfg)
	for i := uint64(0); i < 300; i++ {
		cl.Put(i, []byte(fmt.Sprintf("img-%d", i)))
	}
	st.Stop()
	var buf bytes.Buffer
	if _, err := st.Arena().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	arena, err := pmem.ReadArena(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.Open(core.Config{Mode: batch.ModePipelinedHB, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	re.Run()
	defer re.Stop()
	if re.Len() != 300 {
		t.Fatalf("recovered %d keys from image", re.Len())
	}
	cl2 := re.Connect()
	if v, ok, _ := cl2.Get(42); !ok || string(v) != "img-42" {
		t.Fatalf("image data wrong: %q %v", v, ok)
	}
}

// TestOpenRejectsOtherFormatVersion: the trailer and chunk-header format is
// not readable across versions, and no second scanner is kept. An image of
// the previous version must fail to open with a typed error that names
// both versions, not be mistaken for an unformatted or a corrupt arena.
func TestOpenRejectsOtherFormatVersion(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 8}
	st, cl := newRunning(t, cfg)
	if err := cl.Put(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	st.Stop()
	arena := st.Arena().Crash()
	magic := arena.ReadUint64(0)
	if magic&0xffff != 2 {
		t.Fatalf("superblock magic %#x: this test knows format version 2", magic)
	}
	arena.WriteUint64(0, magic&^0xffff|1) // what version 1 wrote
	for _, salvage := range []bool{false, true} {
		cfg.Arena, cfg.Salvage = arena, salvage
		_, err := core.Open(cfg)
		if !errors.Is(err, core.ErrFormatVersion) {
			t.Fatalf("salvage=%v: Open of a version 1 image: %v, want ErrFormatVersion", salvage, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "version 2") {
			t.Fatalf("error %q does not name both versions", msg)
		}
	}
	arena.WriteUint64(0, 0x1234)
	if _, err := core.Open(cfg); err == nil || errors.Is(err, core.ErrFormatVersion) {
		t.Fatalf("Open of an unformatted arena: %v", err)
	}
}

// TestLogTailsReport: Open reports, per log, the witness it read and the
// tail it found. After Stop the two coincide; after a power cut under load
// the tail lies beyond the witness by the batches appended since.
func TestLogTailsReport(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 8}
	st, cl := newRunning(t, cfg)
	if len(st.LogTails()) != 0 {
		t.Fatalf("a new store reports recovered logs: %v", st.LogTails())
	}
	for i := uint64(0); i < 64; i++ {
		if err := cl.Put(i, []byte("some value")); err != nil {
			t.Fatal(err)
		}
	}
	// A power cut with the cores still running: the image is taken while
	// nothing has witnessed the appends. (Every put was acknowledged, so
	// every batch is fenced and the media view is stable.)
	underLoad := st.Arena().Crash()
	re, _ := crashAndReopen(t, st, cfg)
	for _, lt := range re.LogTails() {
		if lt.Witness != lt.Tail || lt.Gen == 0 {
			t.Fatalf("after Stop: %v, want the witness at the tail", lt)
		}
	}
	cfg.Arena = underLoad
	ul, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ul.Len() != 64 {
		t.Fatalf("recovered %d keys from the image under load, want 64", ul.Len())
	}
	var past int64
	for _, lt := range ul.LogTails() {
		t.Log(lt)
		past += lt.Tail - lt.Witness
	}
	if len(ul.LogTails()) != 2 || past < 64*64 {
		t.Fatalf("logs replayed %d B past their witnesses, want at least 64 batches: %v", past, ul.LogTails())
	}
}
