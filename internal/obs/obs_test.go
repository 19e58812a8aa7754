package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flatstore/internal/stats"
)

func TestRegistryMerge(t *testing.T) {
	r := NewRegistry(3, 0)
	// Concurrent single-writer recording: one goroutine per core block.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := r.Core(i)
			for j := 0; j < 100; j++ {
				m.NoteOp(KindPut, true, int64(1000*(i+1)))
				m.NoteOp(KindGet, j%10 == 0, 500)
			}
			m.NoteBatch(4, 3, 1024)
		}(i)
	}
	wg.Wait()
	r.NoteGC(2, 10, 5)

	s := r.Snapshot()
	if s.Cores != 3 {
		t.Fatalf("cores = %d", s.Cores)
	}
	if s.Ops[KindPut].Count != 300 || s.Ops[KindPut].Errors != 0 {
		t.Fatalf("put count/errors = %d/%d", s.Ops[KindPut].Count, s.Ops[KindPut].Errors)
	}
	if s.Ops[KindGet].Count != 300 || s.Ops[KindGet].Errors != 270 {
		t.Fatalf("get count/errors = %d/%d", s.Ops[KindGet].Count, s.Ops[KindGet].Errors)
	}
	if got := s.Ops[KindPut].Latency.Count(); got != 300 {
		t.Fatalf("put latency samples = %d", got)
	}
	// Exact moments survive the merge (not quantized to buckets).
	if got := stats.Sum(s.Ops[KindPut].Latency); got != 100*(1000+2000+3000) {
		t.Fatalf("put latency sum = %d", got)
	}
	if s.Ops[KindPut].Latency.Min() != 1000 || s.Ops[KindPut].Latency.Max() != 3000 {
		t.Fatalf("put latency min/max = %d/%d",
			s.Ops[KindPut].Latency.Min(), s.Ops[KindPut].Latency.Max())
	}
	if s.LeadBatches != 3 || s.OwnOps != 9 || s.StolenOps != 3 {
		t.Fatalf("batches/own/stolen = %d/%d/%d", s.LeadBatches, s.OwnOps, s.StolenOps)
	}
	if got := stats.Sum(s.BatchSize); got != 12 {
		t.Fatalf("batch size sum = %d", got)
	}
	if s.LogBytes != 3*1024 || s.FlushUnits != 3*4 {
		t.Fatalf("log bytes/flush units = %d/%d", s.LogBytes, s.FlushUnits)
	}
	if s.GCCleaned != 2 || s.GCRelocated != 10 || s.GCDropped != 5 {
		t.Fatalf("gc = %d/%d/%d", s.GCCleaned, s.GCRelocated, s.GCDropped)
	}
}

func TestSlowRingOverwritesOldest(t *testing.T) {
	r := NewRegistry(1, time.Microsecond)
	if r.SlowThreshold() != 1000 {
		t.Fatalf("threshold = %d", r.SlowThreshold())
	}
	m := r.Core(0)
	for i := 0; i < slowRingSize+10; i++ {
		m.NoteSlow(SlowOp{Core: 0, Op: KindPut, Key: uint64(i), Start: int64(i)})
	}
	s := r.Snapshot()
	if len(s.SlowOps) != slowRingSize {
		t.Fatalf("traced %d slow ops, want %d", len(s.SlowOps), slowRingSize)
	}
	// Oldest first, and the first 10 pushes were overwritten.
	if s.SlowOps[0].Key != 10 || s.SlowOps[slowRingSize-1].Key != slowRingSize+9 {
		t.Fatalf("ring order wrong: first key %d, last key %d",
			s.SlowOps[0].Key, s.SlowOps[slowRingSize-1].Key)
	}
}

// buildSnapshot is the fixed snapshot testdata/prometheus.golden was
// rendered from at the commit before the declaration walk: every block
// filled, tier enabled, shard configured. The PM block did not exist then.
func buildSnapshot() Snapshot {
	r := NewRegistry(2, 5*time.Millisecond)
	for i := 0; i < 2; i++ {
		m := r.Core(i)
		m.NoteOp(KindPut, true, 1500)
		m.NoteOp(KindGet, false, 900)
		m.NoteOp(KindDelete, true, 700)
		m.NoteOp(KindScan, true, 12000)
		m.NoteBatch(3, 2, 768)
		m.NoteSlow(SlowOp{Core: int32(i), Op: KindPut, Key: 7,
			Start: 100, Seal: 10, Flush: 20, Index: 30, Total: 40})
	}
	r.NoteGC(1, 2, 3)
	s := r.Snapshot()
	s.UptimeNs = 12_500_000_000
	s.Keys = 42
	s.FreeChunks, s.RawChunks, s.HugeChunks = 5, 6, 7
	s.LogChunksClosed, s.LogLiveBytes = 4, 9_000_000
	s.Classes = []ClassOcc{
		{Class: 256, Chunks: 2, UsedBlocks: 100, CapBlocks: 200},
		{Class: 1024, Chunks: 1, UsedBlocks: 30, CapBlocks: 40},
	}
	s.Groups = []GroupSnap{{Batches: 9, Stolen: 8, Leads: 10}, {Batches: 19, Stolen: 18, Leads: 20}}
	s.Integrity = stats.Integrity{ScrubRuns: 1, ScrubBatches: 21, ScrubRecords: 22, ChecksumErrors: 2,
		Quarantined: 3, QuarantineClears: 23, SalvageRuns: 24, ChunksDropped: 25, CorruptHeaders: 26, DanglingPtrs: 27}
	s.Net = NetSnap{QueuePairs: 1, MMIOs: 2, Delegations: 3, Requests: 4,
		Responses: 5, Dropped: 6, Shed: 7, DedupHits: 8, BadFrames: 9, InFlight: -1,
		BatchFrames: 10, BatchOps: 11, FramesCoalesced: 12,
		RespFlushes: 13, RespWritten: 14, InFlightPeak: 15}
	s.Repl = ReplSnap{Role: ReplRolePrimary, Epoch: 31, TailPos: 32, AppliedPos: 33, Followers: 34,
		LagBatches: 35, LagBytes: 36, BatchesShipped: 37, BytesShipped: 38, BatchesApplied: 39,
		EntriesApplied: 40, SnapshotsServed: 41, SnapshotsLoaded: 43, SyncTimeouts: 44, Demotions: 45,
		PrimaryAddr: "127.0.0.1:7399"}
	s.Shard = ShardSnap{Configured: true, ID: 2, Count: 3, MapVersion: 51, WrongShard: 52}
	s.Tier = TierSnap{Enabled: true, Segments: 61, Records: 62, DeadRecords: 63, Bytes: 64, Reads: 65,
		BloomFiltered: 66, SegmentsWritten: 67, Compactions: 68, Demoted: 69, Promoted: 70,
		PromoteDeferred: 73, PromoteFailed: 74, CorruptReads: 71, Quarantined: 72}
	s.PM = PMSnap{Flushes: 81, Fences: 82, Lines: 83, MediaBytes: 84, SeqBlocks: 85, RndBlocks: 86, Touched: 87}
	return s
}

// promText is a parsed exposition: sample line → how often it appeared
// (name and labels up to the last space, then the value), and family →
// its TYPE lines.
type promText struct {
	samples map[string][]string // series → values, one per appearance
	types   map[string][]string // family → kinds, one per TYPE line
}

func renderProm(t *testing.T, s *Snapshot) promText {
	t.Helper()
	var b bytes.Buffer
	WritePrometheus(&b, s)
	return parseProm(t, b.String())
}

func parseProm(t *testing.T, text string) promText {
	t.Helper()
	p := promText{samples: map[string][]string{}, types: map[string][]string{}}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			p.types[name] = append(p.types[name], kind)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line, "{}") {
			t.Fatalf("malformed sample line %q", line)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if p.types[name] == nil && p.types[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")] == nil {
			t.Fatalf("sample %q precedes its family's TYPE line", line)
		}
		p.samples[line[:i]] = append(p.samples[line[:i]], line[i+1:])
	}
	return p
}

// TestPrometheusGolden pins the rendering across the move to the
// declaration walk: every series the hand-written renderer emitted for
// buildSnapshot is emitted with the same name, labels and value. The only
// differences allowed are the family's single TYPE line where the old
// renderer repeated it per op kind, and the rows of the PM block.
func TestPrometheusGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/prometheus.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := parseProm(t, string(raw))
	s := buildSnapshot()
	got := renderProm(t, &s)
	for series, vals := range want.samples {
		if g := got.samples[series]; len(g) != 1 || g[0] != vals[0] {
			t.Errorf("%s = %v, golden has %v", series, g, vals)
		}
	}
	for name, kinds := range want.types {
		if g := got.types[name]; len(g) != 1 || g[0] != kinds[0] {
			t.Errorf("# TYPE %s = %v, golden has %v", name, g, kinds)
		}
	}
	for series := range got.samples {
		if want.samples[series] == nil && !strings.HasPrefix(series, "flatstore_pm_") {
			t.Errorf("series %s is not in the golden file", series)
		}
	}
}

// TestSwitchedOffBlocks: a block whose bool switch is off renders no
// series at all, and an unsharded scrape carries no shard label.
func TestSwitchedOffBlocks(t *testing.T) {
	s := buildSnapshot()
	s.Tier.Enabled, s.Shard.Configured = false, false
	for series := range renderProm(t, &s).samples {
		if strings.Contains(series, "flatstore_tier_") || strings.Contains(series, "shard") {
			t.Errorf("series %s rendered for a switched-off block", series)
		}
	}
}

// fill sets every scalar under v to a distinct value (next counts up),
// every bool to true, and gives every slice two elements, so that a
// field dropped or transposed by any exposition shows.
func fill(v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Uint8:
		v.SetUint(uint64(*next % int64(len(replRoleNames)))) // the role: a nameable value
	case reflect.Pointer:
		h := stats.NewHistogram()
		h.Record(*next)
		v.Set(reflect.ValueOf(h))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	default:
		if v.CanInt() {
			v.SetInt(*next)
		} else {
			v.SetUint(uint64(*next))
		}
	}
}

// expect walks the declaration the way the code does — the struct tags
// of v's type — and checks one value against all its expositions: the
// Prometheus text (exactly one sample per label set, the declared kind)
// and the decoded JSON (under the declared key). labels are the label
// pairs the enclosing declarations contributed.
func expect(t *testing.T, v reflect.Value, labels []string, prom promText, js any, seen map[string]bool) {
	t.Helper()
	obj, _ := js.(map[string]any)
	if obj == nil {
		t.Fatalf("%s: JSON has %v, want an object", v.Type(), js)
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Tag.Get("label") != "" && f.Type.Kind() != reflect.Slice {
			labels = append(labels[:len(labels):len(labels)], fmt.Sprintf("%s=%q", f.Tag.Get("label"), fmt.Sprint(v.Field(i).Interface())))
		}
	}
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" {
			key = f.Name
		}
		jv, ok := obj[key]
		if !ok {
			t.Errorf("%s.%s: no JSON key %q", v.Type(), f.Name, key)
			continue
		}
		if tag := f.Tag.Get("prom"); tag != "" {
			part := append(strings.Split(tag, ","), "")
			name, kind, own := part[0], part[1], labels
			if part[2] != "" {
				own = append(own[:len(own):len(own)], fmt.Sprintf("%s=%q", part[2], fmt.Sprint(fv.Interface())))
			}
			if seen[name+fmt.Sprint(own)] {
				t.Errorf("%s.%s: series %s%v declared twice", v.Type(), f.Name, name, own)
			}
			seen[name+fmt.Sprint(own)] = true
			if k := prom.types[name]; len(k) != 1 || k[0] != kind {
				t.Errorf("%s.%s: # TYPE %s = %v, declared %s", v.Type(), f.Name, name, k, kind)
			}
			lb := func(suffix string, extra ...string) string {
				if all := append(own[:len(own):len(own)], extra...); len(all) > 0 {
					return name + suffix + "{" + strings.Join(all, ",") + "}"
				}
				return name + suffix
			}
			want := map[string]string{}
			switch {
			case fv.Kind() == reflect.Pointer:
				h := fv.Interface().(*stats.Histogram)
				want[lb("_count")] = fmt.Sprint(h.Count())
				want[lb("_sum")] = fmt.Sprint(float64(stats.Sum(h)) / scaleOf(name))
				want[lb("", `quantile="0.5"`)] = fmt.Sprint(float64(h.Percentile(50)) / scaleOf(name))
			case fv.Kind() == reflect.Slice:
				want[lb("")] = fmt.Sprint(fv.Len())
			case scaleOf(name) != 1:
				want[lb("")] = fmt.Sprint(float64(fv.Int()) / scaleOf(name))
			default:
				want[lb("")] = fmt.Sprintf("%d", fv.Interface())
			}
			for series, val := range want {
				if g := prom.samples[series]; len(g) != 1 || g[0] != val {
					t.Errorf("%s.%s: %s = %v, want one sample of %s", v.Type(), f.Name, series, g, val)
				}
			}
		}
		switch fv.Kind() {
		case reflect.Struct:
			expect(t, fv, labels, prom, jv, seen)
		case reflect.Slice, reflect.Array:
			arr, _ := jv.([]any)
			if len(arr) != fv.Len() {
				t.Errorf("%s.%s: JSON has %d elements, want %d", v.Type(), f.Name, len(arr), fv.Len())
				continue
			}
			for j := 0; j < fv.Len(); j++ {
				at := labels
				if key := f.Tag.Get("label"); key != "" {
					at = append(at[:len(at):len(at)], fmt.Sprintf("%s=\"%d\"", key, j))
				}
				expect(t, fv.Index(j), at, prom, arr[j], seen)
			}
		case reflect.Pointer:
			if c := jv.(map[string]any)["count"]; fmt.Sprint(c) != fmt.Sprint(fv.Interface().(*stats.Histogram).Count()) {
				t.Errorf("%s.%s: JSON digest count %v", v.Type(), f.Name, c)
			}
		case reflect.Bool:
			if jv != fv.Bool() {
				t.Errorf("%s.%s: JSON has %v", v.Type(), f.Name, jv)
			}
		default:
			want := fmt.Sprint(fv.Interface()) // a string, a role's name, or a number
			if fmt.Sprint(jv) != want {
				t.Errorf("%s.%s: JSON %q = %v, want %s", v.Type(), f.Name, key, jv, want)
			}
		}
	}
}

func scaleOf(name string) float64 {
	if strings.HasSuffix(name, "_seconds") {
		return 1e9
	}
	return 1
}

// TestDeclaredMetrics is the descriptor test: with every declared scalar
// set to a distinct value, the snapshot survives the wire exactly, every
// prom-tagged field renders exactly once per label set with its value
// and declared kind, nothing undeclared renders, and every field sits
// under its JSON key.
func TestDeclaredMetrics(t *testing.T) {
	var s Snapshot
	var next int64 = 1000
	fill(reflect.ValueOf(&s).Elem(), &next)

	enc := s.Marshal()
	got, err := UnmarshalSnapshot(enc)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, &s) {
		t.Fatalf("wire round trip mismatch:\n got %+v\nwant %+v", got, &s)
	}
	// Truncations at every prefix length must error, never panic, and so
	// must bytes after the last block.
	for n := 0; n < len(enc); n++ {
		if _, err := UnmarshalSnapshot(enc[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
	if _, err := UnmarshalSnapshot(append(enc, 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var js any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON does not decode into a Snapshot: %v", err)
	}
	if back.Repl.Role != s.Repl.Role || back.Ops[KindScan].Op != s.Ops[KindScan].Op {
		t.Fatalf("JSON decode lost the role or an op name: %+v", back.Repl)
	}

	prom := renderProm(t, &s)
	seen := map[string]bool{}
	shard := fmt.Sprintf("shard=\"%d\"", s.Shard.ID)
	expect(t, reflect.ValueOf(s), []string{shard}, prom, js, seen)
	// Nothing renders that no field declares: every sample belongs to a
	// declared family (a summary's samples carry its _sum/_count names).
	declared := map[string]bool{}
	for _, f := range families {
		declared[f.name] = true
		if f.kind == "summary" {
			declared[f.name+"_sum"], declared[f.name+"_count"] = true, true
		}
	}
	for series := range prom.samples {
		if name, _, _ := strings.Cut(series, "{"); !declared[name] {
			t.Errorf("series %s rendered but not declared", series)
		}
	}
	if len(prom.types) != len(families) {
		t.Errorf("%d families rendered, %d declared", len(prom.types), len(families))
	}
}

// FuzzUnmarshalSnapshot: no payload panics the decoder, and one it
// accepts is exactly what Marshal writes for the decoded snapshot.
func FuzzUnmarshalSnapshot(f *testing.F) {
	s := buildSnapshot()
	f.Add(s.Marshal())
	var next int64
	fill(reflect.ValueOf(&s).Elem(), &next)
	f.Add(s.Marshal())
	idle := NewRegistry(1, 0).Snapshot()
	f.Add(idle.Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := UnmarshalSnapshot(b)
		if err != nil {
			return
		}
		if again := s.Marshal(); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes that re-marshal to %d different bytes", len(b), len(again))
		}
	})
}

func TestHandlers(t *testing.T) {
	s := buildSnapshot()
	rec := httptest.NewRecorder()
	Handler(func() Snapshot { return s }).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "flatstore_keys{shard=\"2\"} 42\n") {
		t.Error("prometheus handler did not render the snapshot")
	}
	rec = httptest.NewRecorder()
	JSONHandler(func() Snapshot { return s }).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	var back Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil || back.Keys != 42 {
		t.Fatalf("json handler: %v, keys %d", err, back.Keys)
	}
}
