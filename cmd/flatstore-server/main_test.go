package main

import (
	"reflect"
	"testing"

	"flatstore/internal/core"
	"flatstore/internal/tcp"
)

// TestParseFlagsDefaults pins what an empty command line means.
func TestParseFlagsDefaults(t *testing.T) {
	got, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		addr:   "127.0.0.1:7399",
		cores:  4,
		chunks: 64,
		tier:   core.TierConfig{},
		server: tcp.ServerOptions{},
		repl:   replFlags{role: "solo", advertiseAddr: "127.0.0.1:7399"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseFlags(nil) = %+v\nwant %+v", got, want)
	}
}

func TestParseFlagsChecks(t *testing.T) {
	for _, args := range [][]string{
		{"-role", "leader"},
		{"-role", "primary"},
		{"-role", "follower", "-repl-addr", ":1"},
		{"-tier-threshold", "5"},
		{"-shard-count", "3"},
		{"-shard-id", "0"},
		{"-cores", "x"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	c, err := parseFlags([]string{"-addr", ":9", "-shard-id", "1", "-shard-count", "3", "-role", "follower",
		"-repl-addr", ":1", "-primary", ":2", "-tier-dir", "d", "-tier-threshold", "5", "-conn-inflight", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if c.gate == nil || c.gate.ShardID() != 1 || c.gate.NumShards() != 3 || c.repl.advertiseAddr != ":9" ||
		c.tier != (core.TierConfig{Dir: "d", DemoteFreeChunks: 5}) || c.server.MaxConnInFlight != -1 {
		t.Fatalf("parseFlags = %+v", c)
	}
}
