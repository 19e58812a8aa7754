package tcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

func startServer(t *testing.T, cfg core.Config) (*core.Store, *Server, string) {
	t.Helper()
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	srv := NewServer(st)
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

func TestPutGetDeleteOverTCP(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Cores: 4, Mode: batch.ModePipelinedHB})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Cores() != 4 {
		t.Fatalf("handshake cores = %d", cl.Cores())
	}
	if err := cl.Put(7, []byte("network hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get(7)
	if err != nil || !ok || string(v) != "network hello" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := cl.Get(8); ok {
		t.Fatal("missing key found")
	}
	if ok, _ := cl.Delete(7); !ok {
		t.Fatal("delete missed")
	}
	if _, ok, _ := cl.Get(7); ok {
		t.Fatal("deleted key present")
	}
}

func TestLargeValuesOverTCP(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 32})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	val := bytes.Repeat([]byte{0xc7}, 2<<20)
	if err := cl.Put(1, val); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := cl.Get(1)
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("2 MB value corrupted over the wire")
	}
}

// acceptCounter counts the connections a listener accepts.
type acceptCounter struct {
	net.Listener
	n atomic.Int32
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestOversizeRequestRefused: a request, or a multi-op call, whose frame
// the server would refuse fails at once with ErrTooLarge, sync, windowed
// or batched, before anything is written: the connection is not dropped
// and redialled for it, and it takes no window slot.
func TestOversizeRequestRefused(t *testing.T) {
	st, err := core.New(core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 16})
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	srv := NewServer(st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := &acceptCounter{Listener: lis}
	go srv.Serve(accepted)
	t.Cleanup(func() {
		srv.Close()
		st.Stop()
	})
	cl, err := DialOptions(lis.Addr().String(), Options{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put(1, make([]byte, maxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("put of a %d-byte value: %v, want ErrTooLarge", maxFrame+1, err)
	}
	if _, err := cl.SubmitPut(context.Background(), 2, make([]byte, maxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("submitted put of a %d-byte value: %v, want ErrTooLarge", maxFrame+1, err)
	}
	third := make([]byte, maxFrame/3)
	if err := cl.MultiPut([]Pair{{3, third}, {4, third}, {5, third}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("multi-put of three %d-byte values: %v, want ErrTooLarge", len(third), err)
	}
	if n := cl.InFlight(); n != 0 {
		t.Errorf("%d window slots held after the refusals", n)
	}
	if err := cl.Put(6, third); err != nil {
		t.Fatal(err)
	}
	if n := accepted.n.Load(); n != 1 {
		t.Errorf("the server accepted %d connections, want 1: an oversize request went on the wire", n)
	}
}

func TestScanOverTCP(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, Index: core.IndexMasstree})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 100; i++ {
		if err := cl.Put(i, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := cl.Scan(10, 19, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if p.Key != uint64(10+i) || string(p.Value) != fmt.Sprint(p.Key) {
			t.Fatalf("pair %d: %d=%q", i, p.Key, p.Value)
		}
	}
}

func TestIntegrityOverTCP(t *testing.T) {
	st, _, addr := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 8})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	big := bytes.Repeat([]byte{0x5a}, 400) // out-of-place, so the scrubber has records to verify
	for i := uint64(0); i < 16; i++ {
		if err := cl.Put(i, big); err != nil {
			t.Fatal(err)
		}
	}
	if res := st.ScrubOnce(); !res.Clean() {
		t.Fatalf("scrub of healthy store found damage: %+v", res)
	}
	integ, err := cl.Integrity()
	if err != nil {
		t.Fatal(err)
	}
	if integ.ScrubRuns == 0 || integ.ScrubBatches == 0 || integ.ScrubRecords == 0 {
		t.Fatalf("scrub counters missing over the wire: %+v", integ)
	}
	if !integ.Clean() {
		t.Fatalf("healthy store reported anomalies: %+v", integ)
	}
	if local := st.Integrity(); local != integ {
		t.Fatalf("wire snapshot %+v != local snapshot %+v", integ, local)
	}

	// The counters used to have a wire op of their own, code 5. A server
	// sent it answers as for any op code it does not know: the engine
	// refuses it and the connection stays up.
	raw := dialRaw(t, addr, 0x1e7)
	for i, op := range []uint8{5, 0x7f} {
		id := uint64(i + 1)
		raw.send(request{op: op, id: id})
		if rs := raw.recv(); rs.id != id || rs.status != statusError || len(rs.value) != 0 {
			t.Fatalf("op code %d answered %+v, want a bare error status", op, rs)
		}
	}
}

func TestConcurrentClientsOverTCP(t *testing.T) {
	st, _, addr := startServer(t, core.Config{Cores: 4, Mode: batch.ModePipelinedHB, ArenaChunks: 32})
	const clients, per = 4, 300
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < per; i++ {
				key := uint64(c*per + i)
				if err := cl.Put(key, []byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			for i := 0; i < per; i++ {
				key := uint64(c*per + i)
				v, ok, err := cl.Get(key)
				if err != nil || !ok || string(v) != fmt.Sprintf("c%d-%d", c, i) {
					t.Errorf("get %d: %q %v %v", key, v, ok, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st.Len() != clients*per {
		t.Fatalf("Len = %d, want %d", st.Len(), clients*per)
	}
}

func TestPipelinedGoroutinesOneConnection(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Cores: 4, Mode: batch.ModePipelinedHB, ArenaChunks: 32})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := uint64(g*1000 + i)
				if err := cl.Put(key, []byte(fmt.Sprint(key))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				v, ok, err := cl.Get(key)
				if err != nil || !ok || string(v) != fmt.Sprint(key) {
					t.Errorf("get: %q %v %v", v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientCloseUnblocksCalls(t *testing.T) {
	_, _, addr := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := cl.Put(1, []byte("x")); err == nil {
		t.Fatal("Put succeeded on a closed client")
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	st, srv, addr := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Put(1, []byte("x"))
	srv.Close()
	// Subsequent calls must fail, not hang.
	errCh := make(chan error, 1)
	go func() {
		errCh <- cl.Put(2, []byte("y"))
	}()
	if err := <-errCh; err == nil {
		t.Fatal("Put after server close succeeded")
	}
	st.Stop()
}

func TestDialRejectsNonFlatStore(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("HTTP/1.1 200 OK\r\n\r\n"))
		conn.Close()
	}()
	// One attempt with a short timeout: rejection is the point here, not
	// the retry machinery.
	o := Options{MaxAttempts: 1, DialTimeout: time.Second}
	if _, err := DialOptions(lis.Addr().String(), o); err == nil {
		t.Fatal("Dial accepted a non-FlatStore server")
	}
}
