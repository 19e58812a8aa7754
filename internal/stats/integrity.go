package stats

import (
	"encoding/binary"
	"fmt"
	"io"
)

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

// integrityWords is the number of uint64 fields marshalled, in order.
const integrityWords = 10

// IntegritySize is the wire size of a marshalled Integrity.
const IntegritySize = 8 * integrityWords

func (s Integrity) fields() [integrityWords]uint64 {
	return [integrityWords]uint64{
		s.ScrubRuns, s.ScrubBatches, s.ScrubRecords, s.ChecksumErrors,
		s.Quarantined, s.QuarantineClears, s.SalvageRuns, s.ChunksDropped,
		s.CorruptHeaders, s.DanglingPtrs,
	}
}

// Clean reports whether no integrity anomaly has ever been observed.
func (s Integrity) Clean() bool {
	return s.ChecksumErrors == 0 && s.Quarantined == 0 && s.SalvageRuns == 0 &&
		s.ChunksDropped == 0 && s.CorruptHeaders == 0 && s.DanglingPtrs == 0
}

// Marshal encodes the counters as fixed-order little-endian words.
func (s Integrity) Marshal() []byte {
	b := make([]byte, 0, IntegritySize)
	for _, w := range s.fields() {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// UnmarshalIntegrity decodes what Marshal produced.
func UnmarshalIntegrity(b []byte) (Integrity, error) {
	if len(b) != IntegritySize {
		return Integrity{}, fmt.Errorf("stats: integrity payload is %d bytes, want %d", len(b), IntegritySize)
	}
	w := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	return Integrity{
		ScrubRuns: w(0), ScrubBatches: w(1), ScrubRecords: w(2), ChecksumErrors: w(3),
		Quarantined: w(4), QuarantineClears: w(5), SalvageRuns: w(6), ChunksDropped: w(7),
		CorruptHeaders: w(8), DanglingPtrs: w(9),
	}, nil
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
