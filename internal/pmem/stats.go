package pmem

import "sync/atomic"

// Events is a delta of device-level events attributable to one core over
// some interval (typically one KV operation). The virtual-time simulator
// converts an Events delta into nanoseconds with a Profile.
type Events struct {
	Flushes         uint64 // flush calls (each covers ≥1 line)
	Fences          uint64 // ordering fences
	Lines           uint64 // cachelines written to media
	CombinedLines   uint64 // lines write-combined into the previous block
	SeqBlocks       uint64 // block activations adjacent to the previous one
	RndBlocks       uint64 // random (non-adjacent) block activations
	MediaBytes      uint64 // bytes charged against device bandwidth
	SameLineRepeats uint64 // flushes hitting a recently-flushed line
}

// Blocks returns the total number of 256 B block activations.
func (e Events) Blocks() uint64 { return e.SeqBlocks + e.RndBlocks }

// Stats holds arena-wide totals, updated atomically.
type Stats struct {
	flushes         atomic.Uint64
	fences          atomic.Uint64
	lines           atomic.Uint64
	combinedLines   atomic.Uint64
	seqBlocks       atomic.Uint64
	rndBlocks       atomic.Uint64
	mediaBytes      atomic.Uint64
	sameLineRepeats atomic.Uint64
}

func (s *Stats) add(ev Events) {
	s.flushes.Add(ev.Flushes)
	s.fences.Add(ev.Fences)
	s.lines.Add(ev.Lines)
	s.combinedLines.Add(ev.CombinedLines)
	s.seqBlocks.Add(ev.SeqBlocks)
	s.rndBlocks.Add(ev.RndBlocks)
	s.mediaBytes.Add(ev.MediaBytes)
	s.sameLineRepeats.Add(ev.SameLineRepeats)
}

func (s *Stats) reset() {
	s.flushes.Store(0)
	s.fences.Store(0)
	s.lines.Store(0)
	s.combinedLines.Store(0)
	s.seqBlocks.Store(0)
	s.rndBlocks.Store(0)
	s.mediaBytes.Store(0)
	s.sameLineRepeats.Store(0)
}

// StatsSnapshot is a point-in-time copy of the arena totals.
type StatsSnapshot struct {
	Flushes         uint64
	Fences          uint64
	Lines           uint64
	CombinedLines   uint64
	SeqBlocks       uint64
	RndBlocks       uint64
	MediaBytes      uint64
	SameLineRepeats uint64
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Flushes:         s.flushes.Load(),
		Fences:          s.fences.Load(),
		Lines:           s.lines.Load(),
		CombinedLines:   s.combinedLines.Load(),
		SeqBlocks:       s.seqBlocks.Load(),
		RndBlocks:       s.rndBlocks.Load(),
		MediaBytes:      s.mediaBytes.Load(),
		SameLineRepeats: s.sameLineRepeats.Load(),
	}
}

// Sub returns the element-wise difference s - o, for measuring an interval
// between two snapshots.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Flushes:         s.Flushes - o.Flushes,
		Fences:          s.Fences - o.Fences,
		Lines:           s.Lines - o.Lines,
		CombinedLines:   s.CombinedLines - o.CombinedLines,
		SeqBlocks:       s.SeqBlocks - o.SeqBlocks,
		RndBlocks:       s.RndBlocks - o.RndBlocks,
		MediaBytes:      s.MediaBytes - o.MediaBytes,
		SameLineRepeats: s.SameLineRepeats - o.SameLineRepeats,
	}
}
