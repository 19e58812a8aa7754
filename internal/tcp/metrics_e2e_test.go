package tcp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/obs"
	"flatstore/internal/stats"
)

// parseProm parses Prometheus text exposition into series -> value, keyed
// by the full series name including its label set (exactly as written).
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsEndToEnd drives a mixed workload through the TCP path and
// checks that what the metrics endpoint reports matches what the client
// actually did — the counters are wired through the real serving path,
// not approximated.
func TestMetricsEndToEnd(t *testing.T) {
	st, srv, addr := startServer(t, core.Config{
		Cores: 2, Mode: batch.ModePipelinedHB, Index: core.IndexMasstree,
		ArenaChunks: 32,
		// 1ns threshold: every op is a "slow op", so the trace ring is
		// exercised end to end too.
		SlowOpThreshold: time.Nanosecond,
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const (
		puts       = 200
		getHits    = 100
		getMisses  = 20
		deletes    = 50 // of existing keys: tombstones appended
		delMisses  = 10 // of absent keys: answered NotFound, no tombstone
		scans      = 5
		valueBytes = 64
	)
	val := make([]byte, valueBytes)
	for i := range val {
		val[i] = byte(i)
	}
	for k := uint64(0); k < puts; k++ {
		if err := cl.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < getHits; k++ {
		if _, ok, err := cl.Get(k); err != nil || !ok {
			t.Fatalf("get %d = %v,%v", k, ok, err)
		}
	}
	for k := uint64(0); k < getMisses; k++ {
		if _, ok, err := cl.Get(1_000_000 + k); err != nil || ok {
			t.Fatalf("miss %d = %v,%v", k, ok, err)
		}
	}
	for k := uint64(0); k < deletes; k++ {
		if ok, err := cl.Delete(k); err != nil || !ok {
			t.Fatalf("delete %d = %v,%v", k, ok, err)
		}
	}
	for k := uint64(0); k < delMisses; k++ {
		if ok, err := cl.Delete(2_000_000 + k); err != nil || ok {
			t.Fatalf("delete miss %d = %v,%v", k, ok, err)
		}
	}
	for i := 0; i < scans; i++ {
		if _, err := cl.Scan(0, puts, 0); err != nil {
			t.Fatal(err)
		}
	}

	// 1. The wire snapshot (Client.Stats -> opStats -> Marshal roundtrip).
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Every response above was received by the client, and the engine
	// records an op before enqueueing its response, so the counts are
	// exact — no "eventually" polling needed.
	wantOps := map[int]uint64{
		obs.KindPut:    puts,
		obs.KindGet:    getHits + getMisses,
		obs.KindDelete: deletes + delMisses,
		obs.KindScan:   scans,
	}
	for kind, want := range wantOps {
		if got := snap.Ops[kind].Count; got != want {
			t.Errorf("ops[%s] = %d, want %d", obs.KindName(kind), got, want)
		}
		if e := snap.Ops[kind].Errors; e != 0 {
			t.Errorf("ops[%s] errors = %d, want 0 (NotFound is not an error)", obs.KindName(kind), e)
		}
	}
	// Batch-size histogram sum == entries persisted through g-persist
	// batches: every Put and every tombstone, and nothing else (NotFound
	// deletes never reach the log). Exact because obs keeps real sums,
	// not bucket representatives.
	wantPersisted := int64(puts + deletes)
	if got := stats.Sum(snap.BatchSize); got != wantPersisted {
		t.Errorf("batch size sum = %d, want %d", got, wantPersisted)
	}
	if snap.Keys != puts-deletes {
		t.Errorf("keys = %d, want %d", snap.Keys, puts-deletes)
	}
	if snap.LogBytes == 0 || snap.FlushUnits == 0 || snap.LeadBatches == 0 {
		t.Error("batch accounting empty")
	}
	if snap.OwnOps+snap.StolenOps != uint64(wantPersisted) {
		t.Errorf("own+stolen = %d, want %d", snap.OwnOps+snap.StolenOps, wantPersisted)
	}
	if len(snap.SlowOps) == 0 {
		t.Error("no slow ops traced at 1ns threshold")
	}
	for _, so := range snap.SlowOps {
		if so.Total <= 0 || so.Seal < 0 || so.Flush < so.Seal || so.Index < 0 || so.Total < so.Index {
			t.Fatalf("implausible slow-op stages: %+v", so)
		}
	}
	if snap.Net.Requests == 0 || snap.Net.Responses == 0 {
		t.Error("transport counters empty")
	}

	// 2. The Prometheus endpoint, as the server binary mounts it.
	mux := httptest.NewServer(obs.Handler(srv.Metrics))
	defer mux.Close()
	res, err := mux.Client().Get(mux.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	prom := parseProm(t, body)
	for kind, want := range wantOps {
		series := fmt.Sprintf("flatstore_ops_total{op=%q}", obs.KindName(kind))
		if got := prom[series]; got != float64(want) {
			t.Errorf("%s = %v, want %d", series, got, want)
		}
	}
	if got := prom["flatstore_batch_size_sum"]; got != float64(wantPersisted) {
		t.Errorf("flatstore_batch_size_sum = %v, want %d", got, wantPersisted)
	}
	if got := prom["flatstore_keys"]; got != puts-deletes {
		t.Errorf("flatstore_keys = %v, want %d", got, puts-deletes)
	}
	if got := prom["flatstore_oplog_bytes_total"]; got != float64(snap.LogBytes) {
		t.Errorf("flatstore_oplog_bytes_total = %v, wire snapshot says %d", got, snap.LogBytes)
	}

	// 3. The JSON endpoint decodes and agrees.
	jmux := httptest.NewServer(obs.JSONHandler(srv.Metrics))
	defer jmux.Close()
	jres, err := jmux.Client().Get(jmux.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer jres.Body.Close()
	var view obs.Snapshot
	if err := json.NewDecoder(jres.Body).Decode(&view); err != nil {
		t.Fatalf("json endpoint: %v", err)
	}
	if len(view.Ops) != obs.NumOps {
		t.Fatalf("json ops = %d kinds", len(view.Ops))
	}
	for _, op := range view.Ops {
		for kind, want := range wantOps {
			if op.Op == obs.KindName(kind) && op.Count != want {
				t.Errorf("json ops[%s] = %d, want %d", op.Op, op.Count, want)
			}
		}
	}

	// 4. For CI: save the scraped exposition as an artifact when asked.
	if path := os.Getenv("FLATSTORE_METRICS_SNAPSHOT"); path != "" {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatalf("writing metrics snapshot artifact: %v", err)
		}
	}
	_ = st
}
