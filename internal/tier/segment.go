// Package tier is the file-backed cold store: a log-structured second
// tier that GC demotes cold records into, in the style of an LSM level
// (Mishra's LSM survey motivates the flat-file shape).
//
// Data lives in immutable segment files. A segment is written once —
// build in memory, write to a .tmp file, fsync, rename into place,
// fsync the directory — and then only ever read or deleted (compaction
// rewrites survivors into a fresh segment before removing the old one).
// Every record carries a CRC32C; the footer (index table + bloom
// filter) carries its own CRC32C, so recovery trusts a footer exactly
// as far as recovery trusts an oplog batch: checksum first, then
// version-gated apply.
//
// Segment file layout (little-endian):
//
//	header (32 B):  magic u64 | segment ID u64 | reserved 16 B
//	records:        key u64 | version u32 | vlen u32 | crc u32 | pad u32
//	                | value (padded to 8 B)          — crc covers the
//	                first 16 header bytes + value (castagnoli)
//	footer table:   count × (key u64 | version u32 | record off u32)
//	bloom:          bloomWords × u64
//	trailer (40 B): count u64 | dataEnd u64 | bloomWords u64 |
//	                crc u64 (low 32 = CRC32C over table+bloom+first
//	                24 trailer bytes) | footer magic u64
//
// A reader seeks to the trailer, validates magic + geometry + CRC, and
// only then believes the table. A segment whose footer fails any of
// those checks is quarantined wholesale at open (renamed *.quarantined);
// a record whose own CRC fails is surfaced as ErrCorrupt on read and
// the engine fails the lookup closed.
package tier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	segMagic  uint64 = 0xF1A7C01D5E650001
	footMagic uint64 = 0xF1A7C01DF0070001

	segHeaderSize = 32
	recHeaderSize = 24 // key 8 | ver 4 | vlen 4 | crc 4 | pad 4
	tableRecSize  = 16 // key 8 | ver 4 | off 4
	trailerSize   = 40

	// maxSegRecords bounds the footer geometry a parser will accept;
	// real segments hold a few thousand records.
	maxSegRecords = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record or footer that failed its checksum or
// structural validation. Reads fail closed with it; they never return
// bytes that did not verify.
var ErrCorrupt = errors.New("tier: corrupt segment data")

// TableRec is one footer-table entry: the durable (key, version) plus
// the record's byte offset inside its segment file.
type TableRec struct {
	Key uint64
	Ver uint32
	Off uint32
}

func pad8(n int) int { return (n + 7) &^ 7 }

// recordSize is the on-disk footprint of a value of length vlen.
func recordSize(vlen int) int { return recHeaderSize + pad8(vlen) }

// appendRecord encodes one record at the end of b and returns the
// record's offset and the extended buffer.
func appendRecord(b []byte, key uint64, ver uint32, val []byte) (uint32, []byte) {
	off := len(b)
	b = binary.LittleEndian.AppendUint64(b, key)
	b = binary.LittleEndian.AppendUint32(b, ver)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
	crc := crc32.Update(0, castagnoli, b[off:])
	crc = crc32.Update(crc, castagnoli, val)
	b = binary.LittleEndian.AppendUint64(b, uint64(crc)) // crc 4 | pad 4
	b = append(b, val...)
	for i := len(val); i < pad8(len(val)); i++ {
		b = append(b, 0)
	}
	return uint32(off), b
}

// verifyRecord decodes and checksums the record at buf[0:], which must
// extend at least to the end of the record's value. It returns the
// stored key, version, and value (aliasing buf).
func verifyRecord(buf []byte) (key uint64, ver uint32, val []byte, err error) {
	if len(buf) < recHeaderSize {
		return 0, 0, nil, ErrCorrupt
	}
	key = binary.LittleEndian.Uint64(buf[0:])
	ver = binary.LittleEndian.Uint32(buf[8:])
	vlen := int(binary.LittleEndian.Uint32(buf[12:]))
	want := binary.LittleEndian.Uint32(buf[16:])
	if vlen < 0 || recHeaderSize+vlen > len(buf) {
		return 0, 0, nil, ErrCorrupt
	}
	crc := crc32.Update(0, castagnoli, buf[0:16])
	crc = crc32.Update(crc, castagnoli, buf[recHeaderSize:recHeaderSize+vlen])
	if crc != want {
		return 0, 0, nil, ErrCorrupt
	}
	return key, ver, buf[recHeaderSize : recHeaderSize+vlen], nil
}

// Bloom filter: k=7 double-hashed probes over a bit array sized at ~10
// bits per key. Keys are only ever added (segments are immutable), so
// the filter is false-negative-free by construction — MayContain answers
// "definitely absent" or "maybe present", never a wrong "absent".

func bloomWordsFor(n int) int {
	w := (n*10 + 63) / 64
	if w < 1 {
		w = 1
	}
	return w
}

// mix64 is the splitmix64 finalizer — the same style of avalanche the
// index hash uses, independent constants.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func bloomProbes(key uint64) (h1, h2 uint64) {
	h1 = mix64(key)
	h2 = mix64(key^0x9e3779b97f4a7c15) | 1
	return
}

func bloomAdd(words []uint64, key uint64) {
	nbits := uint64(len(words)) * 64
	h1, h2 := bloomProbes(key)
	for i := uint64(0); i < 7; i++ {
		bit := (h1 + i*h2) % nbits
		words[bit/64] |= 1 << (bit % 64)
	}
}

func bloomHas(words []uint64, key uint64) bool {
	if len(words) == 0 {
		return false
	}
	nbits := uint64(len(words)) * 64
	h1, h2 := bloomProbes(key)
	for i := uint64(0); i < 7; i++ {
		bit := (h1 + i*h2) % nbits
		if words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// buildSegment encodes a complete segment file for id + recs and
// returns the file bytes, the footer table, and the bloom words.
func buildSegment(id uint32, recs []Rec) ([]byte, []TableRec, []uint64) {
	size := segHeaderSize
	for i := range recs {
		size += recordSize(len(recs[i].Val))
	}
	table := make([]TableRec, len(recs))
	bloom := make([]uint64, bloomWordsFor(len(recs)))
	b := make([]byte, segHeaderSize, size+len(recs)*tableRecSize+len(bloom)*8+trailerSize)
	binary.LittleEndian.PutUint64(b[0:], segMagic)
	binary.LittleEndian.PutUint64(b[8:], uint64(id))
	for i := range recs {
		var off uint32
		off, b = appendRecord(b, recs[i].Key, recs[i].Ver, recs[i].Val)
		table[i] = TableRec{Key: recs[i].Key, Ver: recs[i].Ver, Off: off}
		bloomAdd(bloom, recs[i].Key)
	}
	dataEnd := len(b)
	for i := range table {
		b = binary.LittleEndian.AppendUint64(b, table[i].Key)
		b = binary.LittleEndian.AppendUint32(b, table[i].Ver)
		b = binary.LittleEndian.AppendUint32(b, table[i].Off)
	}
	for _, w := range bloom {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(recs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(dataEnd))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(bloom)))
	crc := crc32.Update(0, castagnoli, b[dataEnd:])
	b = binary.LittleEndian.AppendUint64(b, uint64(crc))
	b = binary.LittleEndian.AppendUint64(b, footMagic)
	return b, table, bloom
}

// parseFooter validates the header magic and the footer (geometry +
// CRC32C) of a complete segment image and returns the decoded table and
// bloom words. It does NOT verify individual record payloads — record
// CRCs are checked on every read instead, mirroring how oplog recovery
// trusts batch trailers but record reads re-verify.
func parseFooter(b []byte) (id uint32, table []TableRec, bloom []uint64, dataEnd int, err error) {
	if len(b) < segHeaderSize+trailerSize {
		return 0, nil, nil, 0, fmt.Errorf("%w: short segment (%d bytes)", ErrCorrupt, len(b))
	}
	if binary.LittleEndian.Uint64(b[0:]) != segMagic {
		return 0, nil, nil, 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	rawID := binary.LittleEndian.Uint64(b[8:])
	tr := b[len(b)-trailerSize:]
	if binary.LittleEndian.Uint64(tr[32:]) != footMagic {
		return 0, nil, nil, 0, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(tr[0:])
	de := binary.LittleEndian.Uint64(tr[8:])
	bw := binary.LittleEndian.Uint64(tr[16:])
	if count > maxSegRecords || bw > maxSegRecords || de < segHeaderSize ||
		de+count*tableRecSize+bw*8+trailerSize != uint64(len(b)) {
		return 0, nil, nil, 0, fmt.Errorf("%w: bad footer geometry", ErrCorrupt)
	}
	crc := crc32.Update(0, castagnoli, b[de:len(b)-16])
	if uint64(crc) != binary.LittleEndian.Uint64(tr[24:]) {
		return 0, nil, nil, 0, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	dataEnd = int(de)
	table = make([]TableRec, count)
	pos := dataEnd
	for i := range table {
		table[i].Key = binary.LittleEndian.Uint64(b[pos:])
		table[i].Ver = binary.LittleEndian.Uint32(b[pos+8:])
		table[i].Off = binary.LittleEndian.Uint32(b[pos+12:])
		pos += tableRecSize
		if off := int(table[i].Off); off < segHeaderSize || off%8 != 0 ||
			off+recHeaderSize > dataEnd {
			return 0, nil, nil, 0, fmt.Errorf("%w: table offset out of range", ErrCorrupt)
		}
	}
	bloom = make([]uint64, bw)
	for i := range bloom {
		bloom[i] = binary.LittleEndian.Uint64(b[pos:])
		pos += 8
	}
	return uint32(rawID), table, bloom, dataEnd, nil
}

// ParseSegment validates a complete segment image end to end: footer
// first, then every record's CRC. The fuzz target and fsck use it; the
// hot read path only ever preads single records.
func ParseSegment(b []byte) (id uint32, table []TableRec, err error) {
	id, table, _, dataEnd, err := parseFooter(b)
	if err != nil {
		return 0, nil, err
	}
	for i := range table {
		k, v, _, rerr := verifyRecord(b[table[i].Off:dataEnd])
		if rerr != nil {
			return 0, nil, fmt.Errorf("%w: record %d at off %d", ErrCorrupt, i, table[i].Off)
		}
		if k != table[i].Key || v != table[i].Ver {
			return 0, nil, fmt.Errorf("%w: record %d disagrees with table", ErrCorrupt, i)
		}
	}
	return id, table, nil
}

// SalvageRec is one CRC-verified record harvested from a quarantined
// segment image.
type SalvageRec struct {
	Key uint64
	Ver uint32
}

// ScanQuarantined best-effort scans a quarantined segment image for
// records whose CRC still verifies, so salvage recovery can quarantine
// exactly the keys whose only copy may have lived there instead of
// losing them silently. The footer is untrusted (its corruption is why
// the file was quarantined); the scan walks the 8-aligned data area,
// resynchronizing after a corrupt range by trying every slot — the
// 32-bit CRC makes a false match at a wrong offset vanishingly rare.
func ScanQuarantined(b []byte) []SalvageRec {
	var out []SalvageRec
	off := segHeaderSize
	for off >= segHeaderSize && off+recHeaderSize <= len(b) {
		if key, ver, val, err := verifyRecord(b[off:]); err == nil {
			out = append(out, SalvageRec{Key: key, Ver: ver})
			off += recordSize(len(val))
		} else {
			off += 8
		}
	}
	return out
}
