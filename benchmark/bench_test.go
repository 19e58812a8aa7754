package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"flatstore/internal/stats"
)

func TestStreamIsSeeded(t *testing.T) {
	first := func(s *spec, seed int64) []op {
		st := newStream(s, seed)
		ops := make([]op, 10_000)
		for i := range ops {
			ops[i] = st.next()
		}
		return ops
	}
	for _, s := range workloads {
		a, b, c := first(s, 1), first(s, 1), first(s, 2)
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two streams of seed 1: %v, %v", s.name, i, a[i], b[i])
			}
			if a[i] == c[i] {
				same++
			}
			if a[i].key >= s.keys {
				t.Fatalf("%s: key %d outside the key space", s.name, a[i].key)
			}
		}
		if same > len(a)/2 {
			t.Errorf("%s: seeds 1 and 2 agree on %d of %d ops", s.name, same, len(a))
		}
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqr share of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12, 16.5]
	if got := iqrShare([]float64{20, 10, 13, 11, 12}); got != 0.5 {
		t.Errorf("iqr share = %v, want (16.5-10.5)/12", got)
	}
}

func TestHistDelta(t *testing.T) {
	before, after := stats.NewHistogram(), stats.NewHistogram()
	for v := int64(1); v <= 100; v++ {
		before.Record(v * 1000)
		after.Record(v * 1000)
	}
	for v := int64(1); v <= 50; v++ {
		after.Record(1_000_000)
	}
	d := histDelta(after, before)
	if d.Count() != 50 || d.Mean() != 1_000_000 {
		t.Fatalf("delta has %d samples of mean %v, want 50 of 1e6", d.Count(), d.Mean())
	}
	if p := d.Percentile(50); p < 900_000 || p > 1_100_000 {
		t.Errorf("delta p50 = %d, want about 1e6", p)
	}
}

// The oracle must accept either order of two puts that were in flight
// together, and must catch a lost acknowledged write and foreign bytes.
func TestCheckerRules(t *testing.T) {
	s := &spec{keys: 4, valueSize: 16}
	val := func(key, stamp uint64) []byte {
		b := make([]byte, s.valueSize)
		fillValue(b, key, stamp)
		return b
	}
	c := newChecker(s)
	c.putSubmitted(1, 5)
	c.putSubmitted(1, 6)
	c.putDone(1, 6, true)
	c.putDone(1, 5, true)
	c.checkValue("get", 1, c.floor[1], val(1, 5), true)
	c.checkValue("get", 1, c.floor[1], val(1, 6), true)
	if c.violations != 0 {
		t.Fatalf("overlapping puts: %s", c.first)
	}
	c.putSubmitted(1, 7)
	c.putDone(1, 7, true)
	for _, bad := range []struct {
		why   string
		val   []byte
		found bool
	}{
		{"stale stamp", val(1, 6), true},
		{"lost write", nil, false},
		{"stamp never submitted", val(1, 8), true},
		{"another key's bytes", val(2, 7), true},
		{"short value", val(1, 7)[:8], true},
	} {
		before := c.violations
		c.checkValue("get", 1, c.floor[1], bad.val, bad.found)
		if c.violations != before+1 {
			t.Errorf("%s was accepted", bad.why)
		}
	}
	// A put that was refused leaves the floor where it was.
	c.putSubmitted(1, 9)
	c.putDone(1, 9, false)
	if c.floor[1] != 7 {
		t.Errorf("floor after a failed put = %d, want 7", c.floor[1])
	}
	if keys, bytes := c.liveBytes(); keys != 1 || bytes != 24 {
		t.Errorf("live = %d keys, %d bytes", keys, bytes)
	}
}

// BENCHMARK.json and the program must name the same things.
func TestNamesMatchContract(t *testing.T) {
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q vs %q (why: %d chars)", i, w.Name, workloads[i].name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (at most 16)", len(c.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(c.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", c.RunSeconds, c.Paths)
	}
}

// One smoke run through the whole timed path: serve, preload, window,
// power cut, recovery, audit.
func TestQuickSmoke(t *testing.T) {
	o := &options{seed: 1, seconds: 10, quick: true, out: t.TempDir()}
	o.tmp = o.out
	r, err := timedRun(findWorkload("d1_mixed_small"), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.Violations != 0 || r.Attempted == 0 || r.Audited != 64_000 {
		t.Fatalf("attempted %d, failed %d, violations %d (%s), audited %d", r.Attempted, r.Failed, r.Violations, r.FirstError, r.Audited)
	}
	for _, d := range endToEnd {
		if s := r.EndToEnd[d.Name]; s == nil || s.Value <= 0 || s.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, s)
		}
	}
	if len(r.EndToEnd) != len(endToEnd) {
		t.Errorf("%d metrics emitted, %d defined", len(r.EndToEnd), len(endToEnd))
	}
}
