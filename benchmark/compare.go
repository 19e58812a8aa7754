package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// contract is the part of ../BENCHMARK.json that -compare needs.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// iqrShare is the distance between the first and third quartile of v as a
// share of its median, quartiles as Python's statistics.quantiles(v, n=4)
// gives them; 0 for fewer than two values.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// compareFiles prints, for every end-to-end metric on every workload, how
// much worse B is than A against the bound BENCHMARK.json fixes. A pair
// whose own slices spread wider than the bound cannot show a difference
// that small and is "unresolved", not "ok". Exit status 1 on a breach.
func compareFiles(pathA, pathB string) error {
	var c contract
	if err := readJSON("BENCHMARK.json", &c); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var a, b result
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Quick || b.Quick {
		fmt.Println("warning: a -quick result is a smoke test, not a measurement")
	}
	fmt.Printf("%-16s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	breaches := 0
	for _, w := range c.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		if wb.Failed+wb.Violations > wa.Failed+wa.Violations {
			fmt.Printf("%-16s failed or wrong ops: %d → %d  BREACH\n", w.Name, wa.Failed+wa.Violations, wb.Failed+wb.Violations)
			breaches++
		}
		for _, m := range c.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			worse := ratio(sb.Value-sa.Value, sa.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch spread := max(iqrShare(sa.Slices), iqrShare(sb.Slices)); {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (slices spread %.1f%%)", 100*spread)
			case worse > m.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", w.Name, m.Name, sa.Value, sb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d regressions beyond their bounds", breaches)
	}
	return nil
}
