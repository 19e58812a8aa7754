// Package core assembles FlatStore: per-core compacted OpLogs and
// lazy-persist allocation below, a volatile index (per-core CCEH hash for
// FlatStore-H, shared Masstree-role B+-tree for FlatStore-M) above, and
// pipelined horizontal batching in between (§3). The engine runs one
// goroutine per server core plus one log cleaner per HB group; requests
// arrive through the FlatRPC transport and are routed to cores by key
// hash, exactly as the paper's clients do.
package core

import (
	"fmt"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/pmem"
)

// IndexKind selects the volatile index — the FlatStore-H / FlatStore-M
// axis of the evaluation.
type IndexKind int

const (
	// IndexHash gives FlatStore-H: one CCEH-style hash table per core.
	IndexHash IndexKind = iota
	// IndexMasstree gives FlatStore-M: one shared ordered tree, range
	// scans supported.
	IndexMasstree
)

func (k IndexKind) String() string {
	switch k {
	case IndexHash:
		return "FlatStore-H"
	case IndexMasstree:
		return "FlatStore-M"
	}
	return "unknown"
}

// GCConfig tunes the log cleaner (§3.4).
type GCConfig struct {
	// Enabled starts one cleaner per HB group in Run, and holds one free
	// chunk per cleaner back from the foreground: a pass writes its
	// survivor chunk before it frees its victims.
	Enabled bool
	// DeadRatio is the garbage fraction above which a closed chunk
	// becomes a victim: the share of a whole chunk that cleaning it would
	// give back, 1 − live bytes / chunk capacity. Default 0.5.
	DeadRatio float64
	// MinFreeChunks forces cleaning (even below DeadRatio, down to 5 %
	// garbage, and any pass that frees a chunk net) when the free pool
	// writers can draw on drops this low. Default 2.
	MinFreeChunks int
}

// TierConfig wires the cold disk tier (internal/tier): a log-structured
// file store GC demotes cold records into when the PM arena runs low,
// turning the arena into the hot tier of a two-tier system.
type TierConfig struct {
	// Dir roots the segment files. Empty disables tiering entirely —
	// every other field is then ignored and the engine behaves exactly
	// as before.
	Dir string
	// DemoteFreeChunks is the free-pool threshold below which the
	// cleaner starts demoting its victims' live records instead of
	// relocating them. Below GC.MinFreeChunks demotion is unconditional.
	// Default 3.
	DemoteFreeChunks int
	// CompactRatio is the dead-record fraction above which a segment
	// becomes a tier-compaction victim. Default 0.5.
	CompactRatio float64
}

// Config assembles a Store.
type Config struct {
	// Cores is the number of server cores (≤ MaxCores).
	Cores int
	// GroupSize is the HB group width; 0 means one group spanning all
	// cores (the paper's one-group-per-socket advice maps to setting
	// this to the socket width).
	GroupSize int
	// Mode is the batching strategy (Figure 11's ablation axis).
	Mode batch.Mode
	// Index picks FlatStore-H or FlatStore-M.
	Index IndexKind
	// ArenaChunks sizes the PM arena in 4 MB chunks (minimum 4:
	// superblock + one log chunk per core + allocator headroom).
	ArenaChunks int
	// Arena optionally supplies an existing arena (recovery, custom
	// clocks); nil creates a fresh one of ArenaChunks.
	Arena *pmem.Arena
	// InlineMax is the largest value embedded in a log entry (§3.2's
	// 256 B; must be ≤ oplog.MaxInline). Negative disables inlining
	// entirely — every value goes through the allocator (the ablation
	// knob for the compacted-log design choice).
	InlineMax int
	// GC tunes the cleaner.
	GC GCConfig
	// Tier wires the cold disk tier; Tier.Dir == "" disables it.
	Tier TierConfig
	// Salvage makes recovery repair media corruption instead of failing:
	// each log is truncated at its first invalid batch, keys whose last
	// acknowledged value is lost or doubtful are quarantined (reads
	// return a corruption error until the key is overwritten), and a
	// SalvageReport describes everything that was dropped. Without it,
	// corruption surfaces as a typed Open error.
	Salvage bool
	// ScrubEvery starts a background scrubber that walks the logs and
	// out-of-place records verifying checksums at this interval,
	// quarantining keys whose bytes rotted at rest. Zero disables it.
	ScrubEvery time.Duration
	// SlowOpThreshold traces any request whose latency reaches it into
	// the per-core slow-op ring (per-stage timestamps, readable via the
	// metrics snapshot). Zero disables tracing; counters and histograms
	// are always on.
	SlowOpThreshold time.Duration
}

// MaxCores bounds the per-core metadata slots in the superblock.
const MaxCores = 60

func (c *Config) validate() error {
	if c.Cores <= 0 || c.Cores > MaxCores {
		return fmt.Errorf("core: Cores must be in [1,%d], got %d", MaxCores, c.Cores)
	}
	if c.GroupSize < 0 || c.GroupSize > c.Cores {
		return fmt.Errorf("core: GroupSize %d out of range", c.GroupSize)
	}
	if c.GroupSize == 0 {
		c.GroupSize = c.Cores
	}
	if c.Mode == batch.ModeNone || c.Mode == batch.ModeVertical {
		c.GroupSize = 1
	}
	if c.InlineMax == 0 {
		c.InlineMax = 256
	}
	if c.InlineMax < 0 {
		c.InlineMax = -1 // inlining disabled
	}
	if c.InlineMax > 256 {
		return fmt.Errorf("core: InlineMax %d exceeds the 256 B log-entry limit", c.InlineMax)
	}
	if c.ArenaChunks == 0 {
		c.ArenaChunks = c.Cores + 8
	}
	if c.ArenaChunks < c.Cores+2 {
		return fmt.Errorf("core: ArenaChunks %d too small for %d cores", c.ArenaChunks, c.Cores)
	}
	if c.GC.DeadRatio == 0 {
		c.GC.DeadRatio = 0.5
	}
	if c.GC.MinFreeChunks == 0 {
		c.GC.MinFreeChunks = 2
	}
	if c.Tier.Dir != "" {
		if c.Tier.DemoteFreeChunks == 0 {
			c.Tier.DemoteFreeChunks = 3
		}
		if c.Tier.CompactRatio == 0 {
			c.Tier.CompactRatio = 0.5
		}
	}
	return nil
}

// Superblock layout (chunk 0 of the arena). Every field sits on its own
// cacheline so persisting one never stalls on another (§2.3).
const (
	// superMagic's low 16 bits are the persistent-format version. Version 2
	// made OpLog batches self-certifying (generation and start offset in
	// the trailer, generation in the chunk header, a 32-byte log slot whose
	// tail is a witness); version 1 images are not readable.
	superMagic = 0xF1A7_5708_2020_0002

	offMagic    = 0
	offFlag     = 64   // shutdown flag: flagClean = clean, else dirty
	offCkpt     = 128  // checkpoint descriptor: ptr, len
	offCores    = 192  // number of server cores the arena was formatted for
	offRepl     = 256  // replication state: epoch, position, crc (repl.go)
	offCoreMeta = 4096 // + core*64: per-core log metadata (head, tail witness, generation, crc)
	offJournal  = 8192 // + group*64: cleaner journal slot (survivor chunk)

	// flagClean is a high-Hamming-weight magic rather than 1: a clean flag
	// gates trusting the persisted bitmaps and checkpoint wholesale, and a
	// single flipped bit in a crashed arena's flag word must not be able
	// to fake a clean shutdown (any single flip of flagClean is also
	// detectably not-clean).
	flagClean = 0xC1EA_A5A5_5A5A_EA1C
	flagDirty = 0
)

func coreMetaOff(core int) int { return offCoreMeta + core*64 }
func journalOff(group int) int { return offJournal + group*64 }
