package tcp

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestShutdownRaceUnderDialFlood pins the accept/Close race fix: a
// connection accepted between Close's conn-map sweep and an unguarded
// insert was never closed (leaked handler, leaked RPC client), and a
// wg.Add landing after Close's wg.Wait raced it. With registration done
// under the same lock Close sweeps with, every iteration must end with an
// empty connection map no matter where the flood lands.
func TestShutdownRaceUnderDialFlood(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 8}
	st, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Run()
	defer st.Stop()

	for iter := 0; iter < 20; iter++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(st)
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(lis) }()
		addr := lis.Addr().String()

		stop := make(chan struct{})
		var dialers sync.WaitGroup
		var dials atomic.Int64
		for g := 0; g < 6; g++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := net.Dial("tcp", addr)
					if err != nil {
						return // listener gone: shutdown won the race
					}
					dials.Add(1)
					c.Close()
				}
			}()
		}
		// Close must race a server that IS serving a flood: wait until
		// Serve has taken the listener (a Close that wins that race makes
		// Serve return "server closed", which is not the case under test)
		// and every dialer is dialing.
		deadline := time.Now().Add(10 * time.Second)
		for serving := false; !serving || dials.Load() < 12; {
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: flood never started (%d dials, serving=%v)", iter, dials.Load(), serving)
			}
			runtime.Gosched()
			s.mu.Lock()
			serving = s.lis != nil
			s.mu.Unlock()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		dialers.Wait()
		if err := <-serveDone; err != nil {
			t.Fatalf("iter %d: Serve returned %v after Close", iter, err)
		}
		s.mu.Lock()
		leaked := len(s.conns)
		s.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("iter %d: %d connections leaked past Close", iter, leaked)
		}
	}
}
