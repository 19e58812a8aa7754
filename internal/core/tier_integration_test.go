package core_test

// Engine-level tiering tests: demotion racing live scans, and the bloom
// contract as the serving path sees it — absent keys never touch disk,
// and no live cold key is ever filtered out (false-negative-freedom is
// what makes the bloom shortcut safe).

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// tval builds a self-identifying value: first 8 bytes carry the key,
// next 8 the sequence, the tail is deterministic filler. Any read can be
// checked for "my key, a sequence I actually wrote" without a shared
// model.
func tval(key, seq uint64, size int) []byte {
	out := make([]byte, size)
	binary.LittleEndian.PutUint64(out, key)
	binary.LittleEndian.PutUint64(out[8:], seq)
	s := key*31 + seq
	for i := 16; i < size; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		out[i] = byte(s >> 56)
	}
	return out
}

// TestScanUnderDemotionRace runs scans, gets, and overwrites against a
// store whose cleaner is concurrently demoting chunks to disk and
// compacting segments. Every scan must stay globally ordered and
// duplicate-free with self-consistent values, even as the refs under it
// flip between PM and cold mid-flight. Run with -race in CI.
func TestScanUnderDemotionRace(t *testing.T) {
	cfg := core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, Index: core.IndexMasstree,
		ArenaChunks: 12,
		Tier: core.TierConfig{
			Dir: t.TempDir(), DemoteFreeChunks: 1 << 10, CompactRatio: 0.2,
		},
	}
	st, cl := newRunning(t, cfg)
	// Keys [1, hot] are overwritten for the whole test; (hot, keys] are
	// written once during prefill and never again — they are what the
	// cleaner finds live-but-cold in closed chunks and demotes.
	const (
		hot  = 400
		keys = 1000
	)
	const rounds = (keys - hot) / 5 // 120: five cold keys interleaved per round
	seqs := make([]uint64, hot+1)
	for r := 0; r < rounds; r++ {
		for k := uint64(1); k <= hot; k++ {
			seqs[k]++
			if err := cl.Put(k, tval(k, seqs[k], 200)); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(hot + 1 + r*5); k <= uint64(hot+5+r*5); k++ {
			if err := cl.Put(k, tval(k, 1, 200)); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans, demotions atomic.Int64
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		select {
		case <-stop:
		default:
			close(stop)
		}
	}

	// Demoter: the production cleaner loop, compacting as it goes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cleaners []*core.Cleaner
		for g := range st.Groups() {
			cleaners = append(cleaners, st.NewCleaner(g))
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, c := range cleaners {
				c.CleanOnce()
			}
			if _, err := st.TierCompactOnce(); err != nil {
				fail("compaction: %v", err)
				return
			}
			demotions.Add(1)
			time.Sleep(2 * time.Millisecond) // the cleaner's pace is the scenario, not a wait
		}
	}()

	// Writer: keeps overwriting, so demoted keys keep going hot again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wcl := st.Connect()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 1 + i%hot
			if err := wcl.Put(k, tval(k, 1_000_000+i, 200)); err != nil {
				fail("writer: %v", err)
				return
			}
		}
	}()

	// Getter: random point reads promote cold keys mid-scan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		gcl := st.Connect()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 1 + (i*7919)%keys
			v, ok, err := gcl.Get(k)
			if err != nil {
				fail("get %d: %v", k, err)
				return
			}
			if ok && binary.LittleEndian.Uint64(v) != k {
				fail("get %d returned key %d's bytes", k, binary.LittleEndian.Uint64(v))
				return
			}
		}
	}()

	// Scanners: global order, no duplicates, self-consistent values.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scl := st.Connect()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pairs, err := scl.Scan(1, keys, 0)
				if err != nil {
					fail("scan: %v", err)
					return
				}
				last := uint64(0)
				for _, p := range pairs {
					if p.Key <= last {
						fail("scan unordered or duplicated: %d after %d", p.Key, last)
						return
					}
					last = p.Key
					if p.Key > keys {
						fail("scan leaked key %d outside [1,%d]", p.Key, keys)
						return
					}
					if binary.LittleEndian.Uint64(p.Value) != p.Key {
						fail("scan key %d carries key %d's bytes", p.Key, binary.LittleEndian.Uint64(p.Value))
						return
					}
				}
				scans.Add(1)
			}
		}()
	}

	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	select {
	case <-stop:
	case <-time.After(dur):
		close(stop)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if scans.Load() == 0 {
		t.Fatal("no scan completed")
	}
	ts := st.Tier().Stats()
	if ts.Demoted == 0 {
		t.Fatalf("race ran without any demotion (%d cleaner passes)", demotions.Load())
	}
	t.Logf("%d scans raced %d demoted records (%d compactions, %d promoted)",
		scans.Load(), ts.Demoted, ts.Compactions, ts.Promoted)

	// Quiescent scan: every key present exactly once.
	pairs, err := cl.Scan(1, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != keys {
		t.Fatalf("final scan returned %d keys, want %d", len(pairs), keys)
	}
}

// TestTierBloomColdReads pins the two sides of the bloom contract at the
// engine level: (1) gets of absent keys resolve in DRAM — the tier sees
// zero reads; (2) every demoted key remains readable byte-exact — a
// single bloom false negative would surface here as a lost acked write.
func TestTierBloomColdReads(t *testing.T) {
	cfg := core.Config{
		Cores: 1, Mode: batch.ModeNone, ArenaChunks: 9,
		Tier: core.TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10},
	}
	st, cl := newRunning(t, cfg)
	want := map[uint64][]byte{}
	for k := uint64(1); k <= 120; k++ {
		v := tval(k, 1, 200)
		if err := cl.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Churn closes chunk 1 so the cleaner has a victim holding the keys.
	for r := uint64(0); r < 200; r++ {
		for k := uint64(1000); k < 1080; k++ {
			if err := cl.Put(k, tval(k, r, 250)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cleaner := st.NewCleaner(0)
	for i := 0; i < 10 && st.Tier().Stats().Demoted == 0; i++ {
		cleaner.CleanOnce()
	}
	s0 := st.Tier().Stats()
	if s0.Demoted < 100 {
		t.Fatalf("cleaner demoted only %d records", s0.Demoted)
	}

	// (1) Misses never touch the tier.
	for i := uint64(0); i < 600; i++ {
		k := 1<<41 + i*7919
		if _, ok, err := cl.Get(k); err != nil || ok {
			t.Fatalf("absent key %#x: ok=%v err=%v", k, ok, err)
		}
	}
	s1 := st.Tier().Stats()
	if s1.Reads != s0.Reads {
		t.Fatalf("600 absent-key gets cost %d tier reads", s1.Reads-s0.Reads)
	}

	// (2) Every demoted key reads back byte-exact, from disk on its first
	// touch and again on the second, which promotes it. The first touch is
	// one segment read, no more: the blooms pin the segment, and deferring
	// the promotion costs no second read.
	for touch := 1; touch <= 2; touch++ {
		for k, v := range want {
			reads := st.Tier().Stats().Reads
			got, ok, err := cl.Get(k)
			if err != nil || !ok {
				t.Fatalf("cold key %d, touch %d: ok=%v err=%v (bloom false negative or lost demote)", k, touch, ok, err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("cold key %d, touch %d: %d bytes differ", k, touch, len(got))
			}
			if n := st.Tier().Stats().Reads - reads; touch == 1 && n != 1 {
				t.Fatalf("cold key %d: first touch cost %d tier reads, want exactly 1", k, n)
			}
		}
	}
	s2 := st.Tier().Stats()
	if s2.Promoted == 0 || s2.PromoteDeferred < s2.Promoted {
		t.Fatalf("two touches of each cold key made %d promotions after deferring %d", s2.Promoted, s2.PromoteDeferred)
	}
}
