package core

import (
	"flatstore/internal/index"
	"flatstore/internal/oplog"
	"flatstore/internal/pmem"
)

// ScrubResult summarizes one scrubber pass.
type ScrubResult struct {
	// Batches and Entries count verified log batches and the entries they
	// delivered.
	Batches, Entries int
	// Records counts out-of-place records whose CRC was re-verified.
	Records int
	// TierRecords counts live cold-tier records whose CRC was re-verified.
	TierRecords int
	// CorruptRegions counts log regions that failed batch verification.
	CorruptRegions int
	// CorruptRecords counts live records that failed their CRC.
	CorruptRecords int
	// CorruptTierRecords counts live cold records that failed verification.
	CorruptTierRecords int
	// KeysQuarantined counts keys this pass quarantined.
	KeysQuarantined int
}

// Clean reports whether the pass found no corruption.
func (r ScrubResult) Clean() bool {
	return r.CorruptRegions == 0 && r.CorruptRecords == 0 &&
		r.CorruptTierRecords == 0 && r.KeysQuarantined == 0
}

// scrubRegion is a log region that failed batch verification, pending
// attribution to the live keys whose index references fall inside it.
type scrubRegion struct {
	log    *oplog.Log
	chunk  int64
	lo, hi int64
}

// ScrubOnce walks every log chunk verifying batch trailers and every live
// out-of-place record verifying its value CRC, quarantining the keys whose
// last acknowledged state turns out to have rotted at rest. It runs
// concurrently with serving: chunk scans hold the reclaim lock in read
// mode so the cleaner cannot free a chunk mid-scan, and index work takes
// the per-core index locks in short, bounded holds.
func (st *Store) ScrubOnce() ScrubResult {
	var res ScrubResult
	var regions []scrubRegion
	f := st.arena.NewFlusher()

	// Pass 1: batch-verify every chunk of every log. Holding reclaimMu.R
	// across a core's scan pins its chunk snapshot: unlinking can still
	// happen (harmless — the bytes stay), but freeing and reuse need W.
	for _, c := range st.cores {
		st.reclaimMu.RLock()
		tail := c.log.Tail()
		for _, chunk := range c.log.Chunks() {
			sv := oplog.SalvageChunk(st.arena, chunk, tail, func(int64, oplog.Entry) bool {
				res.Entries++
				return true
			})
			res.Batches += sv.Batches
			if sv.CorruptAt < 0 {
				continue
			}
			res.CorruptRegions++
			end := chunk + int64(pmem.ChunkSize)
			if tail >= chunk && tail < end {
				end = tail
			}
			regions = append(regions, scrubRegion{log: c.log, chunk: chunk, lo: sv.CorruptAt, hi: end})
		}
		// Witness the log: the scrub interval then bounds how long its
		// newest batch can be one whose rot a crash recovery would take
		// for a torn tail.
		c.log.PersistWitness(f)
		st.reclaimMu.RUnlock()
	}
	f.FlushEvents()

	// Pass 2: attribute corrupt regions. A key is damaged exactly when its
	// index reference (always the latest acknowledged write) points into
	// the region. Lock order matches supersede: idx locks, then reclaim R.
	for _, r := range regions {
		st.lockAllIdx()
		st.reclaimMu.RLock()
		var bad []uint64
		if r.log.Contains(r.chunk) { // freed+reused since the scan? then stale verdict — skip
			st.rangeIndex(func(key uint64, ref int64, _ uint32) {
				if ref >= r.lo && ref < r.hi {
					bad = append(bad, key)
				}
			})
		}
		st.reclaimMu.RUnlock()
		for _, key := range bad {
			st.cores[st.CoreOf(key)].quarantineLocked(key, 0)
			res.KeysQuarantined++
		}
		st.unlockAllIdx()
	}

	// Pass 3: re-verify live out-of-place records. Snapshot (key, ref,
	// version) triples first, then verify in bounded lock holds, skipping
	// any key whose reference moved in the meantime.
	var refs, coldRefs []keyRef
	st.lockAllIdx()
	st.rangeIndex(func(key uint64, ref int64, ver uint32) {
		// Cold refs name segment records, not arena bytes: they verify
		// in pass 4, with no lock held across the disk read.
		if index.Cold(ref) {
			coldRefs = append(coldRefs, keyRef{key: key, ref: ref, ver: ver})
		} else {
			refs = append(refs, keyRef{key: key, ref: ref, ver: ver})
		}
	})
	st.unlockAllIdx()

	// current reports whether the index still holds exactly lr (the key
	// was not overwritten, deleted or moved since the snapshot).
	current := func(lr keyRef) bool {
		cur, ver, ok := st.cores[st.CoreOf(lr.key)].idx.Get(lr.key)
		return ok && cur == lr.ref && ver == lr.ver
	}
	const scrubStride = 512
	for lo := 0; lo < len(refs); lo += scrubStride {
		hi := lo + scrubStride
		if hi > len(refs) {
			hi = len(refs)
		}
		st.lockAllIdx()
		st.reclaimMu.RLock()
		var bad []keyRef
		for _, lr := range refs[lo:hi] {
			if !current(lr) {
				continue
			}
			d := st.deref(lr.key, lr.ref, nil)
			switch {
			case d.state == refGone:
				bad = append(bad, lr) // the entry itself no longer decodes
			case d.inline:
				// Inline values are covered by the batch trailer (pass 1).
			default:
				res.Records++
				if d.state == refRotted {
					bad = append(bad, lr)
				}
			}
		}
		st.reclaimMu.RUnlock()
		for _, lr := range bad {
			res.CorruptRecords++
			st.cores[st.CoreOf(lr.key)].quarantineLocked(lr.key, lr.ver)
			res.KeysQuarantined++
		}
		st.unlockAllIdx()
	}

	// Pass 4: re-verify live cold-tier records via the tier's CRC-checked
	// read path. No index lock is held across the disk pread; the verdict
	// only sticks if the ref is still current when re-checked.
	for _, lr := range coldRefs {
		d := st.deref(lr.key, lr.ref, nil)
		res.TierRecords++
		if d.state == refOK && d.ver == lr.ver {
			continue
		}
		oc := st.cores[st.CoreOf(lr.key)]
		oc.idxMu.Lock()
		if current(lr) {
			res.CorruptTierRecords++
			oc.quarantineLocked(lr.key, lr.ver)
			res.KeysQuarantined++
		}
		oc.idxMu.Unlock()
	}

	st.integMu.Lock()
	st.integ.ScrubRuns++
	st.integ.ScrubBatches += uint64(res.Batches)
	st.integ.ScrubRecords += uint64(res.Records + res.TierRecords)
	st.integ.ChecksumErrors += uint64(res.CorruptRegions + res.CorruptRecords + res.CorruptTierRecords)
	st.integMu.Unlock()
	return res
}
