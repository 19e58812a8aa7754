package tcp

import (
	"bufio"
	"bytes"
	"testing"

	"flatstore/internal/rpc"
)

// FuzzDecodeRequest hardens the server's request decoder against
// arbitrary network bytes: no panics, no out-of-bounds, and anything
// accepted must round-trip.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeRequest(request{op: opPut, core: 1, id: 7, key: 42, value: []byte("v")}))
	f.Add(encodeRequest(request{op: opScan, key: 1, scanHi: 99, limit: 10}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeRequest(data)
		if err != nil {
			return
		}
		re := encodeRequest(q)
		if !bytes.Equal(re, data) {
			t.Fatalf("request roundtrip mismatch")
		}
	})
}

// FuzzReadFrame hardens the CRC framing layer: every payload must
// round-trip through writeFrame/readFrame, and flipping any single bit
// in the CRC-covered region (payload + checksum; byte offset ≥ 4) must
// be detected — CRC32 catches all single-bit errors with certainty.
// Corruption of the 4-byte length header is excluded: it is only
// detected probabilistically (the shifted checksum window fails with
// P ≈ 1−2⁻³²), which is not a property a fuzzer should assert.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{}, uint(0))
	f.Add([]byte("hello, frame"), uint(13))
	f.Add(encodeRequest(request{op: opPut, core: 1, id: 7, key: 42, value: []byte("v")}), uint(301))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint(2048))
	f.Fuzz(func(t *testing.T, payload []byte, flip uint) {
		if len(payload) > 1<<16 {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeFrame(w, payload); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		frame := buf.Bytes()

		got, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("pristine frame rejected: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame roundtrip mismatch: %d bytes in, %d out", len(payload), len(got))
		}

		mut := append([]byte(nil), frame...)
		bit := 32 + flip%uint((len(payload)+4)*8)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(mut))); err == nil {
			t.Fatalf("single-bit corruption at bit %d went undetected", bit)
		}
	})
}

// FuzzDecodeResponse hardens the client's response decoder the same way.
// The encoding is not canonical byte-for-byte (empty value vs nil), so
// the check re-encodes the decoded form and decodes again (idempotence).
func FuzzDecodeResponse(f *testing.F) {
	f.Add(encodeResponse(response{id: 1, status: 0, value: []byte("ok")}))
	f.Add(encodeResponse(response{id: 2, status: 1}))
	f.Add(appendEngineResponse(nil, &rpc.Response{ID: 3, Pairs: []rpc.Pair{{Key: 9, Value: []byte("p")}}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := decodeResponse(data)
		if err != nil {
			return
		}
		re := encodeResponse(rs)
		rs2, err := decodeResponse(re)
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		if rs2.id != rs.id || rs2.status != rs.status || !bytes.Equal(rs2.value, rs.value) ||
			rs2.npairs != rs.npairs || !bytes.Equal(rs2.pairs, rs.pairs) {
			t.Fatalf("response idempotence broken")
		}
		if ps := rs.decodePairs(); len(ps) != rs.npairs {
			t.Fatalf("%d pairs decoded of %d", len(ps), rs.npairs)
		}
	})
}

// FuzzDecodeBatch hardens the multi-op frame decoder: any accepted batch
// must re-encode to exactly the input bytes (the encoding is canonical),
// and corrupt or truncated frames must error, never panic or over-read.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(appendBatchFrame(nil, []request{
		{op: opPut, core: 0, id: 1, key: 10, value: []byte("a")},
		{op: opGet, core: 1, id: 2, key: 11},
	}))
	f.Add(appendBatchFrame(nil, []request{{op: opDelete, id: 9, key: 3}}))
	f.Add(appendBatchFrame(nil, nil))
	f.Add([]byte{opBatch})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeBatchInto(nil, data)
		if err != nil {
			return
		}
		re := appendBatchFrame(nil, ops)
		if !bytes.Equal(re, data) {
			t.Fatalf("batch roundtrip mismatch: %d ops, %d bytes in, %d out",
				len(ops), len(data), len(re))
		}
	})
}
