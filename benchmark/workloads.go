package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"flatstore/internal/core"
	"flatstore/internal/workload"
)

// spec is one workload: a store configuration and a traffic mix. The
// names are the contract with ../BENCHMARK.json; README.md has the table.
type spec struct {
	name      string
	index     core.IndexKind
	chunks    int // PM arena size in 4 MiB chunks
	tiered    bool
	keys      uint64  // key space; keys are 0..keys-1
	preload   bool    // every key written once during set-up
	window    int     // requests in flight on the one connection
	getShare  float64 // the rest after gets and scans are puts
	scanShare float64
	valueSize int
	theta     float64 // zipfian skew; 0 = uniform
	warmup    int     // untimed ops between preload and the window
}

const scanLimit = 16

var workloads = []*spec{
	{name: "d1_mixed_small", index: core.IndexHash, chunks: 64, keys: 64_000, preload: true,
		window: 1, getShare: 0.5, valueSize: 100, warmup: 4_000},
	{name: "d32_put_small", index: core.IndexHash, chunks: 96, keys: 1_000_000,
		window: 32, valueSize: 32, theta: 0.99, warmup: 40_000},
	{name: "d16_churn_1k", index: core.IndexHash, chunks: 96, keys: 20_000, preload: true,
		window: 16, getShare: 0.2, valueSize: 1000, theta: 0.99, warmup: 20_000},
	{name: "tier_cold_scan", index: core.IndexMasstree, chunks: 16, tiered: true, keys: 400_000, preload: true,
		window: 8, getShare: 0.9, scanShare: 0.05, valueSize: 250, theta: 0.99, warmup: 10_000},
}

func findWorkload(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "scan"}

type op struct {
	kind opKind
	key  uint64
}

// stream is the seeded op sequence: keys from the repository's YCSB
// generator (uniform or scrambled zipfian), the put/get/scan choice from a
// second source so that the key sequence does not depend on the mix.
type stream struct {
	s    *spec
	keys *workload.Generator
	mix  *rand.Rand
}

func newStream(s *spec, seed int64) *stream {
	return &stream{
		s:    s,
		keys: workload.YCSB(seed, s.keys, s.theta, s.valueSize, 0),
		mix:  rand.New(rand.NewSource(seed ^ 0x5eed0f10ad)),
	}
}

func (st *stream) next() op {
	o := op{kind: opPut, key: st.keys.NextKey()}
	switch u := st.mix.Float64(); {
	case u < st.s.getShare:
		o.kind = opGet
	case u < st.s.getShare+st.s.scanShare:
		o.kind = opScan
	}
	return o
}

// fillValue writes the value this client stores under key with the given
// stamp: the stamp, then filler that depends on both, so a value read back
// names its writer and can be checked byte for byte.
func fillValue(buf []byte, key, stamp uint64) {
	binary.LittleEndian.PutUint64(buf, stamp)
	w := key*0x9e3779b97f4a7c15 ^ stamp
	var word [8]byte
	for i := 8; i < len(buf); i += 8 {
		w = w*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(word[:], w)
		copy(buf[i:], word[:])
	}
}

// checker is the correctness oracle for one client. Stamps grow with
// every put, so "not older than" is a comparison.
//
// Puts in flight together on one key may be applied in either order (each
// ticket is sent by its own goroutine), so a key's floor only advances
// when the key has no put in flight, to the smallest stamp acknowledged
// since it last had none: whatever order the overlapping puts took, the
// stored stamp is at least that. At window 1 that is simply the last
// acknowledged stamp.
type checker struct {
	valueSize  int
	floor      []uint64 // oldest stamp a read of the key may return
	maxSub     []uint64 // newest stamp submitted for the key
	clusterMin []uint64 // smallest stamp acked while puts were in flight
	inflight   []uint16 // puts in flight on the key
	scratch    []byte

	violations int
	first      string // the first violation, for the report
}

func newChecker(s *spec) *checker {
	return &checker{
		valueSize:  s.valueSize,
		floor:      make([]uint64, s.keys),
		maxSub:     make([]uint64, s.keys),
		clusterMin: make([]uint64, s.keys),
		inflight:   make([]uint16, s.keys),
		scratch:    make([]byte, s.valueSize),
	}
}

func (c *checker) violate(format string, a ...any) {
	if c.violations == 0 {
		c.first = fmt.Sprintf(format, a...)
	}
	c.violations++
}

func (c *checker) putSubmitted(key, stamp uint64) {
	c.inflight[key]++
	c.maxSub[key] = stamp
}

func (c *checker) putDone(key, stamp uint64, acked bool) {
	if acked && (c.clusterMin[key] == 0 || stamp < c.clusterMin[key]) {
		c.clusterMin[key] = stamp
	}
	if c.inflight[key]--; c.inflight[key] == 0 {
		if c.clusterMin[key] != 0 {
			c.floor[key] = c.clusterMin[key]
		}
		c.clusterMin[key] = 0
	}
}

// checkValue verifies a value read for key by a read submitted when the
// key's floor was floor. A key this client has had a put acknowledged for
// must be found.
func (c *checker) checkValue(what string, key, floor uint64, val []byte, found bool) {
	if !found {
		if floor != 0 {
			c.violate("%s key %d: not found, but stamp %d was acknowledged", what, key, floor)
		}
		return
	}
	if len(val) != c.valueSize {
		c.violate("%s key %d: %d-byte value, want %d", what, key, len(val), c.valueSize)
		return
	}
	stamp := binary.LittleEndian.Uint64(val)
	if stamp < floor || stamp > c.maxSub[key] {
		c.violate("%s key %d: stamp %d outside [%d acknowledged, %d submitted]", what, key, stamp, floor, c.maxSub[key])
		return
	}
	fillValue(c.scratch, key, stamp)
	if string(c.scratch) != string(val) {
		c.violate("%s key %d: value bytes do not match stamp %d", what, key, stamp)
	}
}

// liveBytes is the user data the store must hold: key and value of every
// key with an acknowledged put.
func (c *checker) liveBytes() (keys int, bytes int64) {
	for _, f := range c.floor {
		if f != 0 {
			keys++
		}
	}
	return keys, int64(keys) * int64(8+c.valueSize)
}
