package main

import (
	"strings"
	"testing"
)

func names(es []experiment) string {
	var out []string
	for _, e := range es {
		out = append(out, e.name)
	}
	return strings.Join(out, " ")
}

// The experiment table is the only list of experiments: the usage line
// and `all` are read from it, and a misspelt name stops the command
// before the first experiment (a full figure run is minutes long). No
// experiment is run here.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	u := usage()
	for _, e := range experiments {
		if seen[e.name] || e.name == "all" || e.run == nil {
			t.Errorf("experiment %q: duplicate, reserved or without a function", e.name)
		}
		seen[e.name] = true
		if !strings.Contains(u, "<"+e.name+"|") && !strings.Contains(u, "|"+e.name+"|") {
			t.Errorf("usage does not name %q: %s", e.name, u)
		}
	}

	for _, tc := range []struct {
		args, want string // want "" = rejected
	}{
		{"all", names(experiments)},
		{"fig12 fig7 fig12", "fig12 fig7 fig12"},
		{"rpc all", "rpc " + names(experiments)},
		{"fig7 pipeline fig11", ""},
		{"all cluster", ""},
		{"recovery", ""},
	} {
		runs, err := plan(strings.Fields(tc.args))
		if got := names(runs); got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("plan(%q) = [%s], %v; want [%s]", tc.args, got, err, tc.want)
		}
	}
}
