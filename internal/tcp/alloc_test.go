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
	// A pairless response decodes without allocating (the value aliases
	// the frame; scans pay one slice per response for the pair list).
	if n := testing.AllocsPerRun(500, func() {
		if _, err := decodeResponse(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decodeResponse: %v allocs/op, want 0", n)
	}
	pairs := make([]pair, 16)
	for i := range pairs {
		pairs[i] = pair{key: uint64(i), value: r.Value}
	}
	scan := encodeResponse(response{id: 7, pairs: pairs})
	if n := testing.AllocsPerRun(500, func() {
		if _, err := decodeResponse(scan); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("decodeResponse of a 16-pair scan answer: %v allocs/op, want 1", n)
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
