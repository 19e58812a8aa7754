package stats

import "io"

// Integrity aggregates the storage-integrity counters a node accumulates
// from salvage recovery and the online scrubber. It is plain data so it
// can travel over the stats wire op; all fields are cumulative since the
// store opened, except Quarantined, which is the current count. The prom
// tags are read by internal/obs, which embeds this block in its snapshot.
type Integrity struct {
	// ScrubRuns counts completed scrubber passes.
	ScrubRuns uint64 `prom:"flatstore_scrub_runs_total,counter"`
	// ScrubBatches counts OpLog batches whose trailer was verified.
	ScrubBatches uint64 `prom:"flatstore_scrub_batches_total,counter"`
	// ScrubRecords counts out-of-place records whose CRC was verified.
	ScrubRecords uint64 `prom:"flatstore_scrub_records_total,counter"`
	// ChecksumErrors counts batch-trailer and record-CRC verification
	// failures observed (by the scrubber or salvage recovery).
	ChecksumErrors uint64 `prom:"flatstore_checksum_errors_total,counter"`
	// Quarantined is the number of keys currently quarantined: their last
	// acknowledged value was destroyed (or cast into doubt) by media
	// corruption, and reads return a corruption error instead of data.
	Quarantined uint64 `prom:"flatstore_quarantined_keys,gauge"`
	// QuarantineClears counts keys whose quarantine was cleared by a
	// subsequent successful Put or Delete.
	QuarantineClears uint64 `prom:"flatstore_quarantine_clears_total,counter"`
	// SalvageRuns counts recoveries that ran in salvage mode and found
	// damage.
	SalvageRuns uint64
	// ChunksDropped counts log chunks dropped by salvage truncation.
	ChunksDropped uint64
	// CorruptHeaders and DanglingPtrs mirror the allocator's recovery
	// counters: chunk headers that were unreadable and log pointers that
	// did not resolve to a valid block.
	CorruptHeaders uint64
	DanglingPtrs   uint64
}

// Clean reports whether no integrity anomaly has ever been observed.
func (s Integrity) Clean() bool {
	return s.ChecksumErrors == 0 && s.Quarantined == 0 && s.SalvageRuns == 0 &&
		s.ChunksDropped == 0 && s.CorruptHeaders == 0 && s.DanglingPtrs == 0
}

// Fprint renders the counters as an aligned table.
func (s Integrity) Fprint(w io.Writer) {
	t := NewTable("storage integrity",
		"scrub-runs", "batches", "records", "crc-errors",
		"quarantined", "q-clears", "salvages", "dropped", "bad-headers", "dangling")
	t.Row(s.ScrubRuns, s.ScrubBatches, s.ScrubRecords, s.ChecksumErrors,
		s.Quarantined, s.QuarantineClears, s.SalvageRuns, s.ChunksDropped,
		s.CorruptHeaders, s.DanglingPtrs)
	t.Fprint(w)
}
