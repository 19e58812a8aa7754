package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/netfault"
)

// startServerOpts mirrors startServer with explicit ServerOptions.
func startServerOpts(t *testing.T, cfg core.Config, o ServerOptions) (*core.Store, *Server, string) {
	t.Helper()
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	srv := NewServerOptions(st, o)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		srv.Close()
		st.Stop()
	})
	return st, srv, lis.Addr().String()
}

// rawConn is a hand-driven protocol peer for deterministic wire tests:
// it performs the handshake and hello, then sends frames the test crafts
// byte-by-byte.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRaw(t *testing.T, addr string, session uint64) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r := &rawConn{t: t, c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	hs, err := readFrame(r.br)
	if err != nil || len(hs) != 20 || binary.LittleEndian.Uint64(hs) != wireMagic {
		t.Fatalf("handshake: %v (%d bytes)", err, len(hs))
	}
	if err := writeFrame(r.bw, encodeHello(session)); err != nil {
		t.Fatal(err)
	}
	if err := r.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rawConn) send(q request) {
	r.t.Helper()
	if err := writeFrame(r.bw, encodeRequest(q)); err != nil {
		r.t.Fatal(err)
	}
	if err := r.bw.Flush(); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) recv() response {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := readFrame(r.br)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	rs, err := decodeResponse(payload)
	if err != nil {
		r.t.Fatalf("recv decode: %v", err)
	}
	return rs
}

// TestWriteDedupReplayAcrossReconnect drives the exactly-once ack
// contract deterministically: a client session applies a Put and a
// Delete, its connection dies, and a new connection of the SAME session
// replays both writes — each must be answered from the dedup table with
// its original status, not re-applied. A Delete replay is the sharp
// case: re-executing it would return NotFound where the original said
// OK.
func TestWriteDedupReplayAcrossReconnect(t *testing.T) {
	st, srv, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB}, ServerOptions{})
	const session = 0xDED0B
	key := uint64(7)
	route := uint32(core.RouteKey(key, st.Cores()))

	c1 := dialRaw(t, addr, session)
	c1.send(request{op: opPut, core: route, id: 1, key: key, value: []byte("v1")})
	if rs := c1.recv(); rs.id != 1 || rs.status != statusOK {
		t.Fatalf("put ack = %+v", rs)
	}
	c1.send(request{op: opDelete, core: route, id: 2, key: key})
	if rs := c1.recv(); rs.id != 2 || rs.status != statusOK {
		t.Fatalf("delete ack = %+v (want OK: key existed)", rs)
	}
	c1.c.Close() // the "reconnect": session survives the connection

	c2 := dialRaw(t, addr, session)
	// Replayed Delete: without dedup this would re-execute and say
	// NotFound; the table must answer the original OK.
	c2.send(request{op: opDelete, core: route, id: 2, key: key})
	if rs := c2.recv(); rs.status != statusOK {
		t.Fatalf("replayed delete ack = %d, want cached OK", rs.status)
	}
	// Replayed Put: answered from the table, not re-applied.
	c2.send(request{op: opPut, core: route, id: 1, key: key, value: []byte("v1")})
	if rs := c2.recv(); rs.status != statusOK {
		t.Fatalf("replayed put ack = %d", rs.status)
	}
	// The replays must not have mutated state: the key stays deleted.
	c2.send(request{op: opGet, core: route, id: 3, key: key})
	if rs := c2.recv(); rs.status != statusNotFound {
		t.Fatalf("get after replays = %d, want NotFound (replayed put re-applied?)", rs.status)
	}
	// A FRESH delete (new id) executes for real: NotFound.
	c2.send(request{op: opDelete, core: route, id: 4, key: key})
	if rs := c2.recv(); rs.status != statusNotFound {
		t.Fatalf("fresh delete = %d, want NotFound", rs.status)
	}
	if s := srv.Stats(); s.DedupHits < 2 {
		t.Fatalf("dedup hits = %d, want ≥ 2", s.DedupHits)
	}
	// A DIFFERENT session replaying the same ids gets real execution.
	c3 := dialRaw(t, addr, session+1)
	c3.send(request{op: opDelete, core: route, id: 2, key: key})
	if rs := c3.recv(); rs.status != statusNotFound {
		t.Fatalf("other-session delete = %d, want NotFound (sessions must not share dedup)", rs.status)
	}
}

// TestCorruptFrameDetectedNeverDecoded flips one bit in an otherwise
// valid Put frame: the server must reject it via CRC and kill the
// connection — and must NOT have applied anything.
func TestCorruptFrameDetectedNeverDecoded(t *testing.T) {
	st, srv, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB}, ServerOptions{})
	c := dialRaw(t, addr, 0xC0FFEE)

	payload := encodeRequest(request{op: opPut, core: 0, id: 1, key: 99, value: []byte("poison")})
	var frame bytes.Buffer
	w := bufio.NewWriter(&frame)
	if err := writeFrame(w, payload); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	raw := frame.Bytes()
	raw[4+10] ^= 0x04 // flip one payload bit (key byte), after the CRC was computed
	if _, err := c.c.Write(raw); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection rather than decode the frame.
	c.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server kept talking after a corrupt frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().BadFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt frame not counted")
		}
		time.Sleep(time.Millisecond)
	}
	if st.Len() != 0 {
		t.Fatalf("corrupt frame was applied: %d keys in store", st.Len())
	}
}

// TestBusyShedUnderSaturatingFlood pins overload shedding: with a tiny
// in-flight cap, a pipelining flood must see StatusBusy sheds, and the
// client's backoff-and-retry must still land every op exactly once.
func TestBusyShedUnderSaturatingFlood(t *testing.T) {
	st, srv, addr := startServerOpts(t,
		core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 16},
		ServerOptions{MaxConnInFlight: 2, MaxInFlight: 4})
	cl, err := DialOptions(addr, Options{
		MaxAttempts: 100,
		BackoffBase: 200 * time.Microsecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const goroutines, per = 6, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := uint64(g*1000 + i)
				if err := cl.Put(key, []byte(fmt.Sprint(key))); err != nil {
					t.Errorf("put %d: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if s := srv.Stats(); s.Shed == 0 {
		t.Fatalf("flood with in-flight cap 2 never shed: %+v", s)
	}
	if st.Len() != goroutines*per {
		t.Fatalf("Len = %d, want %d (lost or duplicated under shedding)", st.Len(), goroutines*per)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			key := uint64(g*1000 + i)
			v, ok, err := cl.Get(key)
			if err != nil || !ok || string(v) != fmt.Sprint(key) {
				t.Fatalf("get %d after flood: %q %v %v", key, v, ok, err)
			}
		}
	}
}

// TestClientRetriesAcrossForcedResets exercises the real client's
// reconnect path: a proxy injects a hard reset every few operations, and
// every write must still be acked exactly once (dedup makes the replay
// safe) with all values intact afterwards.
func TestClientRetriesAcrossForcedResets(t *testing.T) {
	_, srv, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 16}, ServerOptions{})
	in := netfault.NewInjector(netfault.Config{Seed: 3})
	px, err := netfault.NewProxy(addr, in)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cl, err := DialOptions(px.Addr(), Options{
		DialTimeout: 2 * time.Second, MaxAttempts: 10,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 40
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			in.Force(netfault.KindReset) // next segment in either direction dies
		}
		if err := cl.Put(uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d across resets: %v", i, err)
		}
	}
	if in.Stats().Resets == 0 {
		t.Fatal("no reset was actually injected")
	}
	for i := 0; i < n; i++ {
		v, ok, err := cl.Get(uint64(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	t.Logf("resets injected: %d, dedup hits: %d", in.Stats().Resets, srv.Stats().DedupHits)
}

// TestDialDeadlineOnSilentServer pins the handshake deadline: a listener
// that accepts but never speaks must not hang Dial forever.
func TestDialDeadlineOnSilentServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close() // never accepts: the kernel completes the TCP handshake, then silence
	start := time.Now()
	_, err = DialOptions(lis.Addr().String(), Options{MaxAttempts: 1, DialTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to a silent server succeeded")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("dial took %v, deadline did not bound it", el)
	}
}

// TestCloseJoinsReadLoop pins the Close contract: after Close returns,
// the background readLoop has exited (not merely been signalled).
func TestCloseJoinsReadLoop(t *testing.T) {
	_, _, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB}, ServerOptions{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	cc := cl.conn
	cl.mu.Unlock()
	if cc == nil {
		t.Fatal("no live connection after Dial")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cc.readerDone:
	default:
		t.Fatal("Close returned while readLoop still running")
	}
}

// TestHandshakeCRCIsChecked sanity-checks that framing CRC covers the
// very first frame too: a client seeing a corrupted handshake rejects
// the connection.
func TestHandshakeCRCIsChecked(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	dialed := make(chan struct{}) // closed once the client has given its verdict
	defer close(dialed)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var payload []byte
		payload = binary.LittleEndian.AppendUint64(payload, wireMagic)
		payload = binary.LittleEndian.AppendUint32(payload, 4)
		var frame []byte
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
		sum := crc32.Checksum(payload, castagnoli)
		frame = binary.LittleEndian.AppendUint32(frame, sum^1) // corrupt the checksum
		c.Write(frame)
		// Hold the connection open until the client has judged the frame:
		// closing early could hand it an EOF instead of the bad checksum.
		<-dialed
	}()
	_, err = DialOptions(lis.Addr().String(), Options{MaxAttempts: 1, DialTimeout: 2 * time.Second})
	if err == nil {
		t.Fatal("client accepted a handshake with a bad checksum")
	}
}

// TestWriterDrainsAfterReaderDies pins the writer's stop condition:
// "reader gone and every accepted request answered", not "reader gone".
// The engine is stopped while a connection submits puts, the connection
// dies and its reader returns with every put still queued, and only then
// does the engine run again. The writer must stay to reap every answer:
// the in-flight gauge returns to zero and each put's outcome reaches the
// session's dedup table, so a replay on a new connection is answered from
// it.
func TestWriterDrainsAfterReaderDies(t *testing.T) {
	st, srv, addr := startServerOpts(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB}, ServerOptions{})
	const session, n = 0xD2A1, 8
	route := func(key uint64) uint32 { return uint32(core.RouteKey(key, st.Cores())) }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	st.Stop()
	c1 := dialRaw(t, addr, session)
	for id := uint64(1); id <= n; id++ {
		c1.send(request{op: opPut, core: route(id), id: id, key: id, value: []byte("v")})
	}
	waitFor("every put accepted", func() bool { return srv.Stats().InFlight == n })
	c1.c.Close()
	waitFor("the reader to return", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	st.Run()
	waitFor("every put answered", func() bool { return srv.Stats().InFlight == 0 })

	c2 := dialRaw(t, addr, session)
	for id := uint64(1); id <= n; id++ {
		c2.send(request{op: opPut, core: route(id), id: id, key: id, value: []byte("v")})
		if rs := c2.recv(); rs.id != id || rs.status != statusOK {
			t.Fatalf("replayed put %d: %+v", id, rs)
		}
	}
	if hits := srv.Stats().DedupHits; hits != n {
		t.Fatalf("%d of %d replays answered from the dedup table", hits, n)
	}
}
