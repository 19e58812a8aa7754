// Package cluster is the sharding layer over replication groups: a
// consistent-hash shard map over the uint64 key space and a
// cluster-aware client that routes single operations to the owning
// shard group, splits multi-op frames by shard and issues the sub-
// batches concurrently over the pipelined TCP protocol, and fans Scan
// out to every shard with a streaming k-way merge over the ordered
// per-shard results.
//
// A shard group is one replication cluster (internal/repl): the map
// stores each group's candidate client addresses (primary + followers)
// and the per-group tcp.Client follows NotPrimary redirects within the
// group, so a shard surviving a failover stays reachable under the same
// shard ID. Map drift (a client routing on a stale membership) is
// self-healing: servers reject keys outside their range with
// StatusWrongShard carrying an encoded map hint, and the client swaps
// in any newer map it is handed and re-routes.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"encoding/binary"
)

// DefaultVnodes is the virtual-node count per shard on the hash ring.
// More vnodes smooth the key-space split between shards (the classic
// consistent-hashing variance argument); 64 keeps the ring a few KB at
// realistic shard counts while holding per-shard load within a few
// percent of even.
const DefaultVnodes = 64

// Shard is one shard group: an identity and the client-facing addresses
// of its replication-group members (primary first by convention, though
// the per-group client discovers the real primary via redirects).
type Shard struct {
	ID    int
	Addrs []string
}

// ringPoint is one virtual node: a position on the hash ring owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int32 // index into Map.shards (not the shard ID)
}

// Map is a versioned consistent-hash shard map. Routing is a pure
// function of (key, shard-ID set, vnodes): the ring is derived only
// from shard identities, never from addresses or membership order, so
// two parties holding the same version agree on every key's owner no
// matter how they enumerated the shards — and rebuilding the map does
// not move keys.
type Map struct {
	version uint64
	vnodes  int
	shards  []Shard // sorted by ID
	ring    []ringPoint
}

// NewMap builds a shard map. Shards may arrive in any order; they are
// canonicalized by ID. vnodes <= 0 selects DefaultVnodes. Duplicate
// shard IDs are an error (two owners for one range is a split-brain
// map).
func NewMap(version uint64, shards []Shard, vnodes int) (*Map, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: map needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	m := &Map{version: version, vnodes: vnodes, shards: make([]Shard, len(shards))}
	copy(m.shards, shards)
	sort.Slice(m.shards, func(i, j int) bool { return m.shards[i].ID < m.shards[j].ID })
	for i := 1; i < len(m.shards); i++ {
		if m.shards[i].ID == m.shards[i-1].ID {
			return nil, fmt.Errorf("cluster: duplicate shard id %d", m.shards[i].ID)
		}
	}
	m.ring = make([]ringPoint, 0, len(m.shards)*vnodes)
	for si := range m.shards {
		id := uint64(uint32(m.shards[si].ID))
		for v := 0; v < vnodes; v++ {
			// The point position depends only on (shard ID, vnode index):
			// membership order, addresses, and the map version must not
			// move keys.
			h := mix64(id<<32 | uint64(v))
			m.ring = append(m.ring, ringPoint{hash: h, shard: int32(si)})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		// Hash collisions resolve by shard ID so the tie-break is as
		// order-independent as the points themselves.
		return m.shards[m.ring[i].shard].ID < m.shards[m.ring[j].shard].ID
	})
	return m, nil
}

// UniformMap builds the address-less map a server with only
// -shard-id/-shard-count knows: shards 0..count-1. It routes identically
// to any full map over the same IDs.
func UniformMap(version uint64, count, vnodes int) (*Map, error) {
	shards := make([]Shard, count)
	for i := range shards {
		shards[i] = Shard{ID: i}
	}
	return NewMap(version, shards, vnodes)
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mix for ring positions and key hashes. Keys are already uint64 but
// often sequential; the mix spreads them over the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Version reports the map's membership version.
func (m *Map) Version() uint64 { return m.version }

// Vnodes reports the per-shard virtual-node count.
func (m *Map) Vnodes() int { return m.vnodes }

// NumShards reports the shard count.
func (m *Map) NumShards() int { return len(m.shards) }

// Shards returns the canonicalized (ID-sorted) shard list.
func (m *Map) Shards() []Shard { return m.shards }

// ShardOf routes a key to its owning shard's ID: the first ring point
// clockwise from the key's hash.
func (m *Map) ShardOf(key uint64) int {
	h := mix64(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap: the ring is a circle
	}
	return m.shards[m.ring[i].shard].ID
}

// ShardByID returns the shard with the given ID.
func (m *Map) ShardByID(id int) (Shard, bool) {
	i := sort.Search(len(m.shards), func(i int) bool { return m.shards[i].ID >= id })
	if i < len(m.shards) && m.shards[i].ID == id {
		return m.shards[i], true
	}
	return Shard{}, false
}

// ParseSpec parses a cluster spec: shard groups separated by ';', each
// group a comma-separated address list. Shard IDs are positional
// (0..n-1). Example (3 groups × 2 nodes):
//
//	"h1:7399,h2:7399;h3:7399,h4:7399;h5:7399,h6:7399"
func ParseSpec(spec string, version uint64, vnodes int) (*Map, error) {
	var shards []Shard
	for i, group := range strings.Split(spec, ";") {
		var addrs []string
		for _, a := range strings.Split(group, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no addresses", i)
		}
		shards = append(shards, Shard{ID: i, Addrs: addrs})
	}
	if len(shards) == 0 {
		return nil, errors.New("cluster: empty cluster spec")
	}
	return NewMap(version, shards, vnodes)
}

// Spec renders the map back into ParseSpec form (addresses only; IDs
// are positional, so a map with gaps in its ID space does not round-
// trip — cluster specs are always dense).
func (m *Map) Spec() string {
	groups := make([]string, len(m.shards))
	for i, s := range m.shards {
		groups[i] = strings.Join(s.Addrs, ",")
	}
	return strings.Join(groups, ";")
}

// --- Hint wire form ---
//
// The StatusWrongShard redirect carries the rejecting server's shard
// map, so a client routing on stale membership can swap in the newer
// map without an out-of-band config push. Layout (little-endian):
//
//	u32 magic "SHM1", u64 version, u32 vnodes, u32 nshards,
//	per shard: u32 id, u32 naddrs, per addr: u16 len, bytes

const hintMagic uint32 = 0x53484D31 // "SHM1"

// errBadHint marks an undecodable shard-map hint.
var errBadHint = errors.New("cluster: bad shard-map hint")

// AppendHint encodes the map's hint form onto buf.
func (m *Map) AppendHint(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, hintMagic)
	buf = binary.LittleEndian.AppendUint64(buf, m.version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.vnodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.shards)))
	for _, s := range m.shards {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Addrs)))
		for _, a := range s.Addrs {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
			buf = append(buf, a...)
		}
	}
	return buf
}

// Hint returns the map's encoded hint form (a fresh slice).
func (m *Map) Hint() []byte { return m.AppendHint(nil) }

// maxHintShards bounds the shard count a hint may claim, so a hostile
// count cannot drive a huge allocation.
const maxHintShards = 1 << 16

// DecodeHint parses a StatusWrongShard hint back into a Map.
func DecodeHint(b []byte) (*Map, error) {
	if len(b) < 20 || binary.LittleEndian.Uint32(b) != hintMagic {
		return nil, errBadHint
	}
	version := binary.LittleEndian.Uint64(b[4:])
	vnodes := int(binary.LittleEndian.Uint32(b[12:]))
	n := int(binary.LittleEndian.Uint32(b[16:]))
	if n <= 0 || n > maxHintShards || vnodes <= 0 {
		return nil, errBadHint
	}
	pos := 20
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		if len(b)-pos < 8 {
			return nil, errBadHint
		}
		id := int(int32(binary.LittleEndian.Uint32(b[pos:])))
		na := int(binary.LittleEndian.Uint32(b[pos+4:]))
		pos += 8
		if na < 0 || na > maxHintShards {
			return nil, errBadHint
		}
		var addrs []string
		for j := 0; j < na; j++ {
			if len(b)-pos < 2 {
				return nil, errBadHint
			}
			al := int(binary.LittleEndian.Uint16(b[pos:]))
			pos += 2
			if len(b)-pos < al {
				return nil, errBadHint
			}
			addrs = append(addrs, string(b[pos:pos+al]))
			pos += al
		}
		shards = append(shards, Shard{ID: id, Addrs: addrs})
	}
	if pos != len(b) {
		return nil, errBadHint
	}
	return NewMap(version, shards, vnodes)
}
