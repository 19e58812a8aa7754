package core

import (
	"bytes"
	"errors"
	"testing"

	"flatstore/internal/batch"
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/rpc"
)

// TestReplayRule pins recovery's one rule as data: each row replays a few
// records for one key into an empty (or checkpoint-seeded) core and names
// the copy that must hold the key afterwards. The crash sweeps reach these
// interleavings only when a crash point happens to produce them.
func TestReplayRule(t *testing.T) {
	const key = 7
	pm1, pm2 := int64(4096), int64(8192) // two log offsets
	cold1, cold2 := index.ColdRef(1, 64), index.ColdRef(2, 64)
	put := func(ref int64, ver uint32) keyRef { return keyRef{key: key, ref: ref, ver: ver} }
	del := func(ver uint32) keyRef { return keyRef{key: key, ref: pm2, ver: ver, del: true} }
	const absent = int64(-1)

	rows := []struct {
		name string
		// seedIdx / seedReg are what a checkpoint seed left behind (crash
		// seeds carry no cold triples and no stale counts).
		seedIdx *keyRef
		seedReg *keyMeta
		recs    []keyRef
		wantRef int64 // absent: the key must not be in the index
		wantVer uint32
		wantDel bool
		puts    int32 // PM Put entries counted for the key
	}{
		{name: "equal version, PM then cold: PM keeps the key",
			recs: []keyRef{put(pm1, 3), put(cold1, 3)}, wantRef: pm1, wantVer: 3, puts: 1},
		{name: "equal version, cold then PM: PM takes the key",
			recs: []keyRef{put(cold1, 3), put(pm1, 3)}, wantRef: pm1, wantVer: 3, puts: 1},
		{name: "two equal-version cold copies: the first segment wins",
			recs: []keyRef{put(cold1, 3), put(cold2, 3)}, wantRef: cold1, wantVer: 3},
		{name: "unseeded equal-version Put: the first copy stays",
			recs: []keyRef{put(pm1, 3), put(pm2, 3)}, wantRef: pm1, wantVer: 3, puts: 2},
		{name: "seeded equal-version Put: the log copy refreshes the seeded ref",
			seedIdx: &keyRef{key: key, ref: pm1, ver: 3}, seedReg: &keyMeta{lastVer: 3},
			recs: []keyRef{put(pm2, 3)}, wantRef: pm2, wantVer: 3, puts: 1},
		{name: "seeded registry entry whose cold triple was dropped: the footer row takes the key",
			seedReg: &keyMeta{lastVer: 3},
			recs:    []keyRef{put(cold1, 3), put(cold2, 3)}, wantRef: cold1, wantVer: 3},
		{name: "Delete then older Put: the key stays deleted",
			recs: []keyRef{del(5), put(pm1, 4)}, wantRef: absent, wantVer: 5, wantDel: true, puts: 1},
		{name: "Put then newer Delete, then the same Put again (relocation copy)",
			recs: []keyRef{put(pm1, 4), del(5), put(pm2, 4)}, wantRef: absent, wantVer: 5, wantDel: true, puts: 2},
		{name: "equal-version Delete under a seed: nothing changes",
			seedReg: &keyMeta{lastVer: 5, deleted: true},
			recs:    []keyRef{del(5)}, wantRef: absent, wantVer: 5, wantDel: true},
		{name: "equal-version Put under a seed that says deleted: stays deleted",
			seedReg: &keyMeta{lastVer: 5, deleted: true},
			recs:    []keyRef{put(pm1, 5)}, wantRef: absent, wantVer: 5, wantDel: true, puts: 1},
		{name: "cold record is never counted as a log Put",
			recs: []keyRef{put(pm1, 1), put(cold1, 2), put(cold2, 2)}, wantRef: cold1, wantVer: 2, puts: 1},
		{name: "higher version wins whatever the source and order",
			recs: []keyRef{put(cold1, 4), put(pm1, 3), put(pm2, 5), put(cold2, 2)}, wantRef: pm2, wantVer: 5, puts: 2},
	}

	st, err := New(Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := st.resetVolatile(); err != nil {
				t.Fatal(err)
			}
			c := st.cores[0]
			seeded := row.seedIdx != nil || row.seedReg != nil
			if row.seedIdx != nil {
				c.idx.Put(key, row.seedIdx.ref, row.seedIdx.ver)
			}
			if row.seedReg != nil {
				c.reg[key] = *row.seedReg
			}
			for _, r := range row.recs {
				c.replay(r, seeded)
			}
			ref, ver, ok := c.idx.Get(key)
			if row.wantRef == absent {
				if ok {
					t.Fatalf("key is in the index (ref %#x v%d), want it absent", ref, ver)
				}
			} else if !ok || ref != row.wantRef || ver != row.wantVer {
				t.Fatalf("index holds (ref %#x, v%d, present %v), want (ref %#x, v%d)", ref, ver, ok, row.wantRef, row.wantVer)
			}
			m, ok := c.reg[key]
			if !ok {
				t.Fatal("replay left no registry entry")
			}
			if m.lastVer != row.wantVer || m.deleted != row.wantDel || m.stale != row.puts {
				t.Fatalf("registry = %+v, want lastVer %d deleted %v and %d log Puts counted", m, row.wantVer, row.wantDel, row.puts)
			}
		})
	}
}

// demotedStore returns a stopped one-core store whose cleaner has moved
// some never-overwritten keys (value "keep") to the cold tier, with those
// keys. The workload is TestCleanOnceDemotionWriteFailure's.
func demotedStore(t *testing.T) (*Store, []uint64) {
	t.Helper()
	st, err := New(Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 12,
		GC:   GCConfig{DeadRatio: 0.3},
		Tier: TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10, CompactRatio: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.tier.Close)
	st.Run()
	cl := st.Connect()
	filler := make([]byte, 200)
	for r := uint64(0); r < 100; r++ {
		for k := uint64(0); k < 250; k++ {
			if err := cl.Put(1000+k, filler); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Put(10_000+r, []byte("keep")); err != nil {
			t.Fatal(err)
		}
	}
	st.Stop()
	cleaner := st.NewCleaner(0)
	for i := 0; i < 50 && cleaner.Stats().Demoted == 0; i++ {
		cleaner.CleanOnce()
	}
	var cold []uint64
	c := st.cores[0]
	c.idx.Range(func(key uint64, ref int64, _ uint32) bool {
		if index.Cold(ref) && key >= 10_000 {
			cold = append(cold, key)
		}
		return true
	})
	if len(cold) < 2 {
		t.Fatalf("set-up demoted %d keep keys, need at least 2", len(cold))
	}
	return st, cold
}

// TestReplApplyOverDemotedKey: a replicated write that supersedes a key
// living in the cold tier marks the segment record dead, counts no stale
// log Put (a cold record is not a log entry) and serves the new state.
func TestReplApplyOverDemotedKey(t *testing.T) {
	st, cold := demotedStore(t)
	c := st.cores[0]
	st.SetReplOwner(true)
	putKey, delKey := cold[0], cold[1]
	before := regSnapshot(st)
	dead := st.tier.Stats().DeadRecords

	_, putVer, _ := c.idx.Get(putKey)
	_, delVer, _ := c.idx.Get(delKey)
	if err := st.ReplApplyBatch([]ReplOp{
		{Op: oplog.OpPut, Key: putKey, Ver: putVer + 1, Val: []byte("new")},
		{Op: oplog.OpDelete, Key: delKey, Ver: delVer + 1},
	}); err != nil {
		t.Fatal(err)
	}

	if got := st.tier.Stats().DeadRecords; got != dead+2 {
		t.Fatalf("tier dead records %d -> %d, want +2 (one per superseded cold record)", dead, got)
	}
	after := regSnapshot(st)
	if after[putKey].stale != before[putKey].stale || after[delKey].stale != before[delKey].stale {
		t.Fatalf("superseding a cold record counted a stale log Put: put key %+v -> %+v, delete key %+v -> %+v",
			before[putKey], after[putKey], before[delKey], after[delKey])
	}
	if ref, _, ok := c.idx.Get(putKey); !ok || index.Cold(ref) {
		t.Fatalf("overwritten key not repointed at its PM entry (ref %#x, present %v)", ref, ok)
	}
	st.Run()
	defer st.Stop()
	cl := st.Connect()
	if v, ok, err := cl.Get(putKey); err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get(%d) = %q, %v, %v; want the replicated value", putKey, v, ok, err)
	}
	if _, ok, err := cl.Get(delKey); err != nil || ok {
		t.Fatalf("Get(%d) found a key a replicated Delete removed (err %v)", delKey, err)
	}
}

// TestReplSnapshotIncludesColdKeys: a follower bootstrapping from a primary
// that holds demoted keys receives them too, with the tier's value and the
// index's version.
func TestReplSnapshotIncludesColdKeys(t *testing.T) {
	st, cold := demotedStore(t)
	type kv struct {
		ver uint32
		val []byte
	}
	got := map[uint64]kv{}
	err := st.CaptureReplSnapshot(func(key uint64, ver uint32, val []byte) error {
		got[key] = kv{ver, bytes.Clone(val)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Len(); len(got) != want {
		t.Fatalf("snapshot emitted %d keys, the index holds %d", len(got), want)
	}
	for _, key := range cold {
		_, ver, _ := st.cores[0].idx.Get(key)
		if e, ok := got[key]; !ok || e.ver != ver || string(e.val) != "keep" {
			t.Fatalf("demoted key %d emitted as (%q, v%d, present %v), want (\"keep\", v%d)", key, e.val, e.ver, ok, ver)
		}
	}
}

// TestFailedAppendFreesRecord: a Put whose record was persisted but whose
// log entry could not be appended (no chunk left to roll into) gives the
// record's block back instead of leaking it until the next recovery.
func TestFailedAppendFreesRecord(t *testing.T) {
	st, err := New(Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := st.cores[0]
	submit := func(key uint64, val []byte) uint8 {
		c.Submit(rpc.Request{ID: 1, Op: rpc.OpPut, Key: key, Value: val}, 0)
		c.TryLead()
		c.DrainCompleted()
		out := c.TakeResponses()
		return out[len(out)-1].Resp.Status
	}
	big := make([]byte, 1000)
	if s := submit(1, big); s != rpc.StatusOK {
		t.Fatalf("first out-of-place Put: status %d", s)
	}
	// Take every free chunk, then fill the log's tail chunk with inline
	// entries until it has to roll and cannot.
	for {
		if _, err := st.al.AllocRawChunk(); err != nil {
			break
		}
	}
	// Large entries first, then the smallest, so that not even the 16-byte
	// entry of an out-of-place Put fits behind them.
	k := uint64(100)
	for _, inline := range [][]byte{make([]byte, 256), make([]byte, 1)} {
		for ; submit(k, inline) == rpc.StatusOK; k++ {
			if k > 200_000 {
				t.Fatal("log never ran out of space")
			}
		}
	}
	before := usedBlocks(st)
	if s := submit(2, big); s != rpc.StatusError {
		t.Fatalf("out-of-place Put into a full log: status %d, want StatusError", s)
	}
	if after := usedBlocks(st); after != before {
		t.Fatalf("failed Put leaked its record: %d blocks in use before, %d after", before, after)
	}
}

// usedBlocks counts the record blocks allocated in every class.
func usedBlocks(st *Store) (n int) {
	for _, cl := range st.al.Occupancy().Classes {
		n += cl.UsedBlocks
	}
	return n
}

// logEntries counts the entries in every core's log.
func logEntries(t *testing.T, st *Store) (n int) {
	t.Helper()
	for _, c := range st.cores {
		if err := c.log.Scan(func(int64, oplog.Entry) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestReplApplyBatch pins the follower's batch step: what the version gate
// drops never reaches a log or the allocator, what it lets through is one
// append, and an append that fails leaves nothing behind.
func TestReplApplyBatch(t *testing.T) {
	put := func(key uint64, ver uint32, val []byte) ReplOp {
		return ReplOp{Op: oplog.OpPut, Key: key, Ver: ver, Val: val}
	}
	big := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 1000) } // out of place
	newStore := func(t *testing.T) *Store {
		st, err := New(Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 8})
		if err != nil {
			t.Fatal(err)
		}
		st.SetReplOwner(true)
		return st
	}
	apply := func(t *testing.T, st *Store, ops ...ReplOp) {
		t.Helper()
		if err := st.ReplApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	// holds checks that key is live at ver with val.
	holds := func(t *testing.T, st *Store, key uint64, ver uint32, val []byte) {
		t.Helper()
		ref, got, ok := st.cores[st.CoreOf(key)].idx.Get(key)
		if !ok || got != ver {
			t.Fatalf("key %d is at version %d (present %v), want %d", key, got, ok, ver)
		}
		if d := st.deref(key, ref, nil); d.state != refOK || !bytes.Equal(d.val, val) {
			t.Fatalf("key %d v%d does not carry its value (state %d, %d bytes)", key, ver, d.state, len(d.val))
		}
	}
	tails := func(st *Store) (sum int64) {
		for _, c := range st.cores {
			sum += c.log.Tail()
		}
		return sum
	}

	t.Run("a batch delivered twice is a no-op the second time", func(t *testing.T) {
		st := newStore(t)
		ops := []ReplOp{put(1, 1, []byte("a")), put(2, 1, big(2)), put(3, 1, []byte("c")), {Op: oplog.OpDelete, Key: 3, Ver: 2}}
		apply(t, st, ops...)
		if n := logEntries(t, st); n != len(ops) {
			t.Fatalf("%d log entries after a batch of %d", n, len(ops))
		}
		tail, blocks, reg := tails(st), usedBlocks(st), regSnapshot(st)
		apply(t, st, ops...)
		if tails(st) != tail || usedBlocks(st) != blocks || !regEqual(regSnapshot(st), reg) {
			t.Fatalf("redelivery changed the store: log tails %d -> %d, record blocks %d -> %d", tail, tails(st), blocks, usedBlocks(st))
		}
		holds(t, st, 1, 1, []byte("a"))
		holds(t, st, 2, 1, big(2))
		if _, _, ok := st.cores[st.CoreOf(3)].idx.Get(3); ok {
			t.Fatal("the deleted key is back")
		}
	})

	t.Run("stale entries are dropped, fresh ones appended", func(t *testing.T) {
		st := newStore(t)
		apply(t, st, put(1, 2, []byte("x")), put(2, 2, big(2)))
		entries, blocks := logEntries(t, st), usedBlocks(st)
		apply(t, st,
			put(1, 1, []byte("older")), put(1, 2, []byte("same")), put(1, 3, []byte("new")),
			put(2, 1, big(9)), put(4, 1, []byte("fresh")))
		if n := logEntries(t, st); n != entries+2 {
			t.Fatalf("%d entries appended, want the 2 fresh ones", n-entries)
		}
		if n := usedBlocks(st); n != blocks {
			t.Fatalf("record blocks %d -> %d: a stale out-of-place Put was materialized", blocks, n)
		}
		holds(t, st, 1, 3, []byte("new"))
		holds(t, st, 2, 2, big(2))
		holds(t, st, 4, 1, []byte("fresh"))
	})

	t.Run("two versions of one key in one batch", func(t *testing.T) {
		st := newStore(t)
		blocks := usedBlocks(st)
		apply(t, st, put(7, 1, big(1)), put(7, 2, []byte("b")))
		holds(t, st, 7, 2, []byte("b"))
		if n := logEntries(t, st); n != 2 {
			t.Fatalf("%d log entries, want both versions", n)
		}
		if m := regSnapshot(st)[7]; m.stale != 1 || m.lastVer != 2 {
			t.Fatalf("registry %+v, want the lower version counted as one stale Put", m)
		}
		if n := usedBlocks(st); n != blocks {
			t.Fatalf("record blocks %d -> %d: the superseded version kept its record", blocks, n)
		}
	})

	t.Run("a failed append gives every record back", func(t *testing.T) {
		st := newStore(t)
		apply(t, st, put(1, 1, big(1)))
		entries, blocks, tail := logEntries(t, st), usedBlocks(st), tails(st)
		// Three records to materialize, then more inline bytes than one
		// log chunk takes.
		ops := []ReplOp{put(1, 2, big(2)), put(2, 1, big(3)), put(3, 1, big(4))}
		inline := make([]byte, 256)
		for size, k := 0, uint64(100); size <= oplog.SurvivorCapacity; k++ {
			ops = append(ops, put(k, 1, inline))
			size += oplog.HeaderSize + len(inline)
		}
		if err := st.ReplApplyBatch(ops); !errors.Is(err, oplog.ErrBatchTooLarge) {
			t.Fatalf("oversized batch: %v, want ErrBatchTooLarge", err)
		}
		if logEntries(t, st) != entries || tails(st) != tail {
			t.Fatal("the refused batch reached a log")
		}
		if n := usedBlocks(st); n != blocks {
			t.Fatalf("record blocks %d -> %d: the refused batch leaked its records", blocks, n)
		}
		holds(t, st, 1, 1, big(1))
		if st.Len() != 1 {
			t.Fatalf("%d keys live, want the 1 applied before", st.Len())
		}
	})

	t.Run("without ownership it refuses", func(t *testing.T) {
		st := newStore(t)
		st.SetReplOwner(false)
		if err := st.ReplApplyBatch([]ReplOp{put(1, 1, []byte("a"))}); err == nil || st.Len() != 0 {
			t.Fatalf("applied on a store whose cores own the logs (err %v, %d keys)", err, st.Len())
		}
	})
}

// TestReplStateTornUpdate: SetReplState is one flush of three words, and a
// crash inside it leaves an 8-byte-granular prefix of them on media. Every
// proper prefix fails the checksum and reads as unset; none and all read as
// the old and the new state.
func TestReplStateTornUpdate(t *testing.T) {
	for _, old := range []struct{ epoch, pos uint64 }{{0, 0}, {3, 41}} {
		for words := 0; words <= 3; words++ {
			st, err := New(Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 4})
			if err != nil {
				t.Fatal(err)
			}
			if old.epoch != 0 {
				st.SetReplState(old.epoch, old.pos)
			}
			a := st.arena
			a.WriteUint64(offRepl, 4)
			a.WriteUint64(offRepl+8, 42)
			a.WriteUint64(offRepl+16, replStateSum(4, 42))
			a.CopyToMedia(offRepl, 8*words)

			wantEpoch, wantPos := uint64(0), uint64(0)
			switch words {
			case 0:
				wantEpoch, wantPos = old.epoch, old.pos
			case 3:
				wantEpoch, wantPos = 4, 42
			}
			crashed := &Store{arena: a.Crash()}
			if e, p := crashed.ReplState(); e != wantEpoch || p != wantPos {
				t.Errorf("(%d, %d) with %d words of (4, 42) on media reads (%d, %d), want (%d, %d)",
					old.epoch, old.pos, words, e, p, wantEpoch, wantPos)
			}
		}
	}
}
