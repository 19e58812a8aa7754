// Command flatstore-demo is an interactive shell over a FlatStore node:
// put/get/del/scan against the live engine, plus crash, recover and stats
// commands that exercise the persistence machinery interactively.
//
//	$ flatstore-demo
//	flatstore> put 1 hello
//	OK
//	flatstore> crash
//	power failure simulated; 'recover' to replay the OpLog
//	flatstore> recover
//	recovered 1 keys in 1ms
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/index"
	"flatstore/internal/obs"
	"flatstore/internal/pmem"
	"flatstore/internal/rpc"
	"flatstore/internal/tcp"
)

func main() {
	cores := flag.Int("cores", 4, "server cores")
	chunks := flag.Int("chunks", 32, "arena size in 4MB chunks")
	ordered := flag.Bool("ordered", true, "use FlatStore-M (ordered index with scan support)")
	fsck := flag.String("fsck", "", "offline integrity check: open this image in salvage mode, scrub it, walk any cold-tier segments, print a report, and exit (non-zero on corruption)")
	tierDir := flag.String("tier-dir", "", "cold-tier segment directory (with -fsck: also verify every segment record)")
	flag.Parse()

	if *fsck != "" {
		os.Exit(runFsck(*fsck, *tierDir))
	}

	idx := core.IndexHash
	if *ordered {
		idx = core.IndexMasstree
	}
	cfg := core.Config{Cores: *cores, Mode: batch.ModePipelinedHB, Index: idx, ArenaChunks: *chunks,
		Tier: core.TierConfig{Dir: *tierDir}}
	st, err := core.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st.Run()
	cl := st.Connect()

	var crashedArena *pmem.Arena
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("FlatStore demo — commands: put <k> <v> | get <k> | del <k> | mput <k> <v> ... | mget <k> ... | scan <lo> <hi> | stats | metrics [addr] | crash | recover | close | save <file> | load <file> | quit")
	for {
		fmt.Print("flatstore> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if crashedArena != nil && fields[0] != "recover" && fields[0] != "quit" {
			fmt.Println("store is crashed; 'recover' first")
			continue
		}
		switch fields[0] {
		case "put":
			if len(fields) < 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad key:", err)
				continue
			}
			if err := cl.Put(k, []byte(strings.Join(fields[2:], " "))); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("OK")
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad key:", err)
				continue
			}
			v, ok, err := cl.Get(k)
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case !ok:
				fmt.Println("(not found)")
			default:
				fmt.Printf("%q\n", v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad key:", err)
				continue
			}
			ok, err := cl.Delete(k)
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case !ok:
				fmt.Println("(not found)")
			default:
				fmt.Println("OK (tombstone appended)")
			}
		case "mput":
			// Multi-op write batch: all pairs go down as one submission
			// wave, so the cores seal them together (watch `stats`).
			if len(fields) < 2 || len(fields)%2 != 1 {
				fmt.Println("usage: mput <k1> <v1> [<k2> <v2> ...]")
				continue
			}
			reqs := make([]rpc.Request, 0, (len(fields)-1)/2)
			bad := false
			for i := 1; i < len(fields); i += 2 {
				k, err := strconv.ParseUint(fields[i], 10, 64)
				if err != nil {
					fmt.Println("bad key:", err)
					bad = true
					break
				}
				reqs = append(reqs, rpc.Request{Op: rpc.OpPut, Key: k, Value: []byte(fields[i+1])})
			}
			if bad {
				continue
			}
			failed := 0
			for _, r := range cl.Batch(reqs) {
				if r.Status != rpc.StatusOK {
					failed++
				}
			}
			if failed > 0 {
				fmt.Printf("error: %d/%d puts failed\n", failed, len(reqs))
				continue
			}
			fmt.Printf("OK (%d keys in one batch)\n", len(reqs))
		case "mget":
			if len(fields) < 2 {
				fmt.Println("usage: mget <k1> [<k2> ...]")
				continue
			}
			reqs := make([]rpc.Request, 0, len(fields)-1)
			bad := false
			for _, f := range fields[1:] {
				k, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					fmt.Println("bad key:", err)
					bad = true
					break
				}
				reqs = append(reqs, rpc.Request{Op: rpc.OpGet, Key: k})
			}
			if bad {
				continue
			}
			for i, r := range cl.Batch(reqs) {
				switch r.Status {
				case rpc.StatusOK:
					fmt.Printf("  %d -> %q\n", reqs[i].Key, r.Value)
				case rpc.StatusNotFound:
					fmt.Printf("  %d -> (not found)\n", reqs[i].Key)
				default:
					fmt.Printf("  %d -> error (status %d)\n", reqs[i].Key, r.Status)
				}
			}
		case "scan":
			if len(fields) != 3 {
				fmt.Println("usage: scan <lo> <hi>")
				continue
			}
			lo, err1 := strconv.ParseUint(fields[1], 10, 64)
			hi, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				fmt.Println("bad bounds")
				continue
			}
			pairs, err := cl.Scan(lo, hi, 100)
			if err != nil {
				fmt.Println("error (need -ordered for scans):", err)
				continue
			}
			for _, p := range pairs {
				fmt.Printf("  %d -> %q\n", p.Key, p.Value)
			}
			fmt.Printf("(%d keys)\n", len(pairs))
		case "stats":
			st.Stop()
			for i := 0; i < st.Cores(); i++ {
				st.Core(i).Flusher().FlushEvents()
			}
			s := st.Metrics()
			fmt.Printf("keys: %d   free chunks: %d\n", s.Keys, s.FreeChunks)
			fmt.Printf("PM: %d flushes, %d fences, %d lines, %d media bytes, %d repeated-line stalls\n",
				s.PM.Flushes, s.PM.Fences, s.PM.Lines, s.PM.MediaBytes, st.Arena().Stats().SameLineRepeats)
			for g, gs := range s.Groups {
				fmt.Printf("HB group %d: %d batches, %d stolen, %d leads\n", g, gs.Batches, gs.Stolen, gs.Leads)
			}
			if t := st.Tier(); t != nil {
				ts := t.Stats()
				fmt.Printf("cold tier: %d segments, %d records (%d dead), demoted %d, promoted %d, %d reads (%d bloom-filtered)\n",
					ts.Segments, ts.Records, ts.DeadRecords, ts.Demoted, ts.Promoted, ts.Reads, ts.BloomFiltered)
			}
			st.Run()
		case "metrics":
			// The live observability snapshot (lock-free per-core merge) in
			// the same Prometheus text the server's /metrics endpoint emits.
			// With an address, fetch a running server's snapshot over the
			// stats wire op instead — the way to watch a cluster member's
			// replication health from the outside.
			if len(fields) == 2 {
				rc, err := tcp.DialOptions(fields[1], tcp.Options{
					DialTimeout: 2 * time.Second, RequestTimeout: 5 * time.Second,
				})
				if err != nil {
					fmt.Println("dial:", err)
					continue
				}
				rsnap, err := rc.Stats()
				rc.Close()
				if err != nil {
					fmt.Println("stats:", err)
					continue
				}
				r := rsnap.Repl
				fmt.Printf("cluster: role=%s epoch=%d tail=%d applied=%d followers=%d lag=%d batches (%d bytes) primary=%q\n",
					r.Role, r.Epoch, r.TailPos, r.AppliedPos,
					r.Followers, r.LagBatches, r.LagBytes, r.PrimaryAddr)
				obs.WritePrometheus(os.Stdout, rsnap)
				continue
			}
			snap := st.Metrics()
			obs.WritePrometheus(os.Stdout, &snap)
		case "crash":
			st.Stop()
			if t := st.Tier(); t != nil {
				t.Close() // the power cut takes the segment fds with it
			}
			crashedArena = st.Arena().Crash()
			fmt.Println("power failure simulated; 'recover' to replay the OpLog")
		case "recover":
			if crashedArena == nil {
				fmt.Println("nothing to recover (use 'crash' first)")
				continue
			}
			start := time.Now()
			re, err := core.Open(core.Config{
				Cores: *cores, Mode: batch.ModePipelinedHB, Index: idx,
				ArenaChunks: *chunks, Arena: crashedArena,
				Tier: core.TierConfig{Dir: *tierDir},
			})
			if err != nil {
				fmt.Println("recovery failed:", err)
				continue
			}
			st = re
			st.Run()
			cl = st.Connect()
			crashedArena = nil
			fmt.Printf("recovered %d keys in %v\n", st.Len(), time.Since(start).Round(time.Millisecond))
		case "close":
			st.Stop()
			if err := st.Close(); err != nil {
				fmt.Println("close failed:", err)
				continue
			}
			crashedArena = st.Arena().Crash()
			fmt.Println("clean shutdown complete; 'recover' reopens from the checkpoint")
		case "save":
			if len(fields) != 2 {
				fmt.Println("usage: save <file>")
				continue
			}
			st.Stop()
			fh, err := os.Create(fields[1])
			if err != nil {
				fmt.Println("error:", err)
				st.Run()
				continue
			}
			if _, err := st.Arena().WriteTo(fh); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("media view saved to %s (what a power failure would leave)\n", fields[1])
			}
			fh.Close()
			st.Run()
		case "load":
			if len(fields) != 2 {
				fmt.Println("usage: load <file>")
				continue
			}
			fh, err := os.Open(fields[1])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			arena, err := pmem.ReadArena(fh)
			fh.Close()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			st.Stop()
			if t := st.Tier(); t != nil {
				t.Close()
			}
			re, err := core.Open(core.Config{Mode: batch.ModePipelinedHB, Index: idx, Arena: arena,
				Tier: core.TierConfig{Dir: *tierDir}})
			if err != nil {
				fmt.Println("recovery from image failed:", err)
				st.Run()
				continue
			}
			st = re
			st.Run()
			cl = st.Connect()
			crashedArena = nil
			fmt.Printf("loaded %s and recovered %d keys\n", fields[1], st.Len())
		case "quit", "exit":
			st.Stop()
			return
		default:
			fmt.Println("unknown command:", fields[0])
		}
	}
	st.Stop()
}

// runFsck is the offline integrity checker: it opens an arena image in
// salvage mode (so a corrupt image is repaired and reported instead of
// refusing to open), runs one full scrub pass over the recovered state,
// and — when a tier directory is given — walks every cold-tier segment
// record through the same CRC verification the read path uses. Exit
// status: 0 clean, 1 corruption found (salvaged — the image is usable
// but data was lost or quarantined), 2 the image could not be opened at
// all.
func runFsck(path, tierDir string) int {
	fh, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsck:", err)
		return 2
	}
	arena, err := pmem.ReadArena(fh)
	fh.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsck: loading image:", err)
		return 2
	}
	start := time.Now()
	st, err := core.Open(core.Config{Mode: batch.ModePipelinedHB, Arena: arena,
		Tier: core.TierConfig{Dir: tierDir}, Salvage: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsck: recovery failed even in salvage mode:", err)
		return 2
	}
	defer st.Stop()
	fmt.Printf("%s: recovered %d keys in %v\n", path, st.Len(), time.Since(start).Round(time.Millisecond))
	for _, lt := range st.LogTails() {
		fmt.Println(" ", lt)
	}

	dirty := false
	if rep := st.SalvageReport(); rep != nil && !rep.Clean() {
		dirty = true
		fmt.Printf("salvage repaired media damage:\n%s\n", rep)
	}
	res := st.ScrubOnce()
	fmt.Printf("scrub: %d batches, %d entries, %d records verified\n", res.Batches, res.Entries, res.Records)
	if !res.Clean() {
		dirty = true
		fmt.Printf("scrub found damage: %d corrupt log regions, %d corrupt records, %d keys quarantined\n",
			res.CorruptRegions, res.CorruptRecords, res.KeysQuarantined)
	}
	if t := st.Tier(); t != nil {
		records, corrupt := t.VerifyAll(func(ref int64, key uint64, _ uint32, verr error) {
			if verr != nil {
				seg, off := index.ColdParts(ref)
				fmt.Printf("  segment %d offset %d (key %d): %v\n", seg, off, key, verr)
			}
		})
		fmt.Printf("tier: %d segment records verified", records)
		if q, _ := t.QuarantinedFiles(); len(q) > 0 {
			dirty = true
			fmt.Printf(", %d segment files quarantined", len(q))
			for _, p := range q {
				fmt.Printf("\n  quarantined: %s", p)
			}
		}
		fmt.Println()
		if corrupt > 0 {
			dirty = true
			fmt.Printf("tier found damage: %d corrupt cold records (reads fail closed until the keys are overwritten)\n", corrupt)
		}
	}
	st.Integrity().Fprint(os.Stdout)
	if dirty {
		fmt.Println("RESULT: CORRUPT (salvaged; quarantined keys read as corrupt until overwritten)")
		return 1
	}
	fmt.Println("RESULT: clean")
	return 0
}
