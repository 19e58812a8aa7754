package fault

import (
	"errors"
	"fmt"
	"math/rand"

	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/pmem"
)

// MediaFault injects at-rest media corruption — the failure mode the
// crash-point Injector cannot produce: bytes that were durably persisted
// and later rot on the medium (bit flips, a dead cacheline, a stuck-at
// region). All damage goes through the arena's corruption hooks; the
// generator is seeded so every run of a test reproduces the same faults.
type MediaFault struct {
	rng *rand.Rand
}

// NewMediaFault builds a deterministic media-fault source.
func NewMediaFault(seed int64) *MediaFault {
	return &MediaFault{rng: rand.New(rand.NewSource(seed))}
}

// FlipBit flips one bit of the media view.
func (m *MediaFault) FlipBit(a *pmem.Arena, off int, bit uint) {
	a.CorruptMedia(off, 1, func(b []byte) { b[0] ^= 1 << (bit & 7) })
}

// FlipRandomBits flips n random bits in [lo, hi) of the media view.
func (m *MediaFault) FlipRandomBits(a *pmem.Arena, lo, hi, n int) {
	for i := 0; i < n; i++ {
		off := lo + m.rng.Intn(hi-lo)
		m.FlipBit(a, off, uint(m.rng.Intn(8)))
	}
}

// ZeroCacheline zeroes the whole 64-byte cacheline containing off — a
// line the DIMM lost entirely.
func (m *MediaFault) ZeroCacheline(a *pmem.Arena, off int) {
	base := off &^ (pmem.CachelineSize - 1)
	a.CorruptMedia(base, pmem.CachelineSize, func(b []byte) {
		for i := range b {
			b[i] = 0
		}
	})
}

// StuckRange forces every byte of [off, off+n) to v — a stuck-at region
// (failed row, all-ones or all-zeros are the common cases).
func (m *MediaFault) StuckRange(a *pmem.Arena, off, n int, v byte) {
	a.CorruptMedia(off, n, func(b []byte) {
		for i := range b {
			b[i] = v
		}
	})
}

// CheckSalvage verifies the integrity contract of a store opened from
// damaged media against the history of what was written to it. Damage may
// cost data, never invent it: a clean report with nothing quarantined means
// the exact state (an audit, of a copy of h: one recorded past is checked
// against many damaged futures); otherwise every key that reads at all must
// read a value some write of that key may have stored.
func CheckSalvage(st *core.Store, h *histcheck.History) error {
	if st.SalvageReport().Clean() && st.Integrity().Quarantined == 0 {
		_, err := audit(st, h.Clone())
		return err
	}
	return unfabricated(st, h)
}

// unfabricated checks that every key st can read holds bytes some write of
// that key may have stored: never garbage, never another key's bytes, no
// key nothing wrote. A rotted record is unreadable (the read path fails
// closed), not wrong; a quarantined key is absent from the index.
func unfabricated(st *core.Store, h *histcheck.History) error {
	for k := range indexRefs(st) {
		v, ok, err := readVerified(st, k)
		switch {
		case errors.Is(err, errRotted):
		case err != nil:
			return err
		case ok && !h.Ever(k, v):
			return fmt.Errorf("fault: key %#x reads %d bytes no write of it stored (fabricated)", k, len(v))
		}
	}
	return nil
}
