package core

import (
	"fmt"
	"strings"

	"flatstore/internal/oplog"
)

// CoreSalvage describes what salvage recovery did to one core's log.
type CoreSalvage struct {
	// Core is the server core whose log this entry describes.
	Core int
	// Damage is the chain-level damage oplog recovery observed.
	Damage oplog.ChainDamage
	// TruncatedAt is the absolute arena offset the log was cut back to,
	// or -1 when the log needed no truncation.
	TruncatedAt int64
	// ChunksDropped counts whole chunks released past the truncation
	// point (their verified entries were harvested first).
	ChunksDropped int
	// SuspectEntries counts best-effort decodes harvested from corrupt
	// regions for quarantine attribution.
	SuspectEntries int
}

func (c CoreSalvage) clean() bool {
	return !c.Damage.Any() && c.TruncatedAt < 0 && c.ChunksDropped == 0 && c.SuspectEntries == 0
}

// SalvageReport is the structured outcome of a salvage-mode crash
// recovery: what was truncated, dropped, repaired, and quarantined.
// A clean report means salvage mode was armed but found nothing wrong.
type SalvageReport struct {
	// Cores holds one entry per core whose log needed repair.
	Cores []CoreSalvage
	// OrphanChunks counts log chunks found severed from every chain and
	// harvested for quarantine candidates.
	OrphanChunks int
	// KeysQuarantined is the number of distinct keys quarantined: their
	// last acknowledged state was lost or cast into doubt, and reads
	// return a corruption error until the key is overwritten or deleted.
	KeysQuarantined int
	// RecordsQuarantined counts live out-of-place records (or big-key
	// blobs) that failed checksum verification during replay.
	RecordsQuarantined int
	// CorruptHeaders and DanglingPtrs mirror the allocator's recovery
	// counters: allocation-chunk headers that were unreadable (their
	// blocks are conservatively treated as free) and log pointers that
	// did not resolve to a validly-aligned block.
	CorruptHeaders int
	DanglingPtrs   int
	// CheckpointDropped reports that a checkpoint descriptor was present
	// but discarded: salvage replays only from verified log batches.
	CheckpointDropped bool
}

// Clean reports whether salvage found nothing to repair.
func (r *SalvageReport) Clean() bool {
	if r == nil {
		return true
	}
	for _, c := range r.Cores {
		if !c.clean() {
			return false
		}
	}
	return r.OrphanChunks == 0 && r.KeysQuarantined == 0 && r.RecordsQuarantined == 0 &&
		r.CorruptHeaders == 0 && r.DanglingPtrs == 0 && !r.CheckpointDropped
}

// String renders a human-readable multi-line summary (the server prints
// it at startup, flatstore-demo's fsck mode prints it as its report).
func (r *SalvageReport) String() string {
	if r.Clean() {
		return "salvage: media verified clean, nothing repaired"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "salvage: %d keys quarantined, %d corrupt records, %d orphan chunks",
		r.KeysQuarantined, r.RecordsQuarantined, r.OrphanChunks)
	if r.CheckpointDropped {
		b.WriteString(", checkpoint dropped")
	}
	if r.CorruptHeaders > 0 || r.DanglingPtrs > 0 {
		fmt.Fprintf(&b, ", %d corrupt alloc headers, %d dangling pointers", r.CorruptHeaders, r.DanglingPtrs)
	}
	for _, c := range r.Cores {
		if c.clean() {
			continue
		}
		fmt.Fprintf(&b, "\n  core %d:", c.Core)
		d := c.Damage
		switch {
		case d.ChainLost:
			b.WriteString(" chain lost (fresh log)")
		case d.ChainTruncated:
			b.WriteString(" chain truncated")
		}
		if d.MetaSuspect {
			b.WriteString(" meta checksum repaired")
		}
		if c.TruncatedAt >= 0 {
			fmt.Fprintf(&b, " cut at %#x", c.TruncatedAt)
		}
		if c.ChunksDropped > 0 {
			fmt.Fprintf(&b, " (%d chunks dropped)", c.ChunksDropped)
		}
		if c.SuspectEntries > 0 {
			fmt.Fprintf(&b, " %d suspect entries", c.SuspectEntries)
		}
	}
	return b.String()
}

// LogTail is how recovery found one core's log: the witness the metadata
// slot held, the tail the batch checksums led to, and the generation of the
// chunk that tail lies in. Tail - Witness is how far past its witness the
// log was replayed — zero after a clean shutdown, the batches appended
// since the last roll, Stop or scrub pass after a crash.
type LogTail struct {
	Core int
	oplog.Recovered
}

func (t LogTail) String() string {
	return fmt.Sprintf("core %d log: witness %#x, tail %#x (%d B past the witness), tail chunk generation %d of log %#x",
		t.Core, t.Witness, t.Tail, t.Tail-t.Witness, uint32(t.Gen), t.Gen>>32)
}

// LogTails reports what Open found for every log it recovered: none for a
// store made by New, and none for a log salvage had to create afresh.
func (st *Store) LogTails() []LogTail {
	var out []LogTail
	for i, c := range st.cores {
		if r := c.log.Recovered(); r != (oplog.Recovered{}) {
			out = append(out, LogTail{Core: i, Recovered: r})
		}
	}
	return out
}
