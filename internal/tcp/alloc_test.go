package tcp

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"flatstore/internal/bufpool"
	"flatstore/internal/rpc"
)

// The frame codec runs once per request and once per response on every
// wire operation; with the append-style encoders and pooled frame reads
// the steady state must not allocate at all.

func TestAllocBudgetRequestCodec(t *testing.T) {
	q := request{op: opPut, core: 1, id: 99, key: 42, value: bytes.Repeat([]byte{7}, 64)}
	scratch := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(500, func() {
		scratch = appendRequest(scratch[:0], q)
	}); n != 0 {
		t.Fatalf("appendRequest: %v allocs/op, want 0", n)
	}
	frame := appendRequest(nil, q)
	if n := testing.AllocsPerRun(500, func() {
		if _, err := decodeRequest(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decodeRequest: %v allocs/op, want 0", n)
	}
}

func TestAllocBudgetResponseCodec(t *testing.T) {
	r := &rpc.Response{ID: 99, Status: rpc.StatusOK, Value: bytes.Repeat([]byte{7}, 64)}
	scratch := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(500, func() {
		scratch = appendEngineResponse(scratch[:0], r)
	}); n != 0 {
		t.Fatalf("appendEngineResponse: %v allocs/op, want 0", n)
	}
	frame := appendEngineResponse(nil, r)
	// A response decodes without allocating: its value and its pairs alias
	// the frame until the reader copies them into their ticket's buffer.
	if n := testing.AllocsPerRun(500, func() {
		if _, err := decodeResponse(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decodeResponse: %v allocs/op, want 0", n)
	}
	pairs := make([]rpc.Pair, 16)
	for i := range pairs {
		pairs[i] = rpc.Pair{Key: uint64(i), Value: r.Value}
	}
	scan := appendEngineResponse(nil, &rpc.Response{ID: 7, Pairs: pairs})
	var rs response
	if n := testing.AllocsPerRun(500, func() {
		var err error
		if rs, err = decodeResponse(scan); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decodeResponse of a 16-pair scan answer: %v allocs/op, want 0", n)
	}
	// The caller's pairs cost two allocations, the slice and one buffer
	// for every value.
	if n := testing.AllocsPerRun(500, func() { rs.decodePairs() }); n != 2 {
		t.Fatalf("decodePairs of a 16-pair scan answer: %v allocs/op, want 2", n)
	}
	got := rs.decodePairs()
	for i := range pairs {
		if got[i].Key != pairs[i].Key || !bytes.Equal(got[i].Value, pairs[i].Value) {
			t.Fatalf("pair %d decoded as (%d, %q), want (%d, %q)", i, got[i].Key, got[i].Value, pairs[i].Key, pairs[i].Value)
		}
	}
}

func TestAllocBudgetFrameIO(t *testing.T) {
	payload := bytes.Repeat([]byte{3}, 100)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	if n := testing.AllocsPerRun(500, func() {
		if err := writeFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writeFrame: %v allocs/op, want 0", n)
	}

	var wire bytes.Buffer
	wbw := bufio.NewWriter(&wire)
	writeFrame(wbw, payload)
	wbw.Flush()
	frame := wire.Bytes()

	rd := bytes.NewReader(frame)
	br := bufio.NewReaderSize(rd, 64<<10)
	// Steady state hits the pool; tolerate the odd refill after a GC.
	if n := testing.AllocsPerRun(500, func() {
		rd.Reset(frame)
		br.Reset(rd)
		p, err := readFrameBuf(br)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(p)
	}); n > 0.1 {
		t.Fatalf("readFrameBuf: %v allocs/op, want ~0", n)
	}
}
