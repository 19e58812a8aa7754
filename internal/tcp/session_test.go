package tcp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
)

// TestSessionPerServerIdentity is the regression for the failover dedup
// hazard: a client that moves between servers must not reuse one (session,
// id) space against two different server identities — ids already consumed
// against server A would alias fresh writes on server B. The client mints
// one session per server identity (from the handshake's server ID) and
// re-handshakes with the right one whenever it reconnects.
func TestSessionPerServerIdentity(t *testing.T) {
	// Seeds 1 and 2 start the dial on different candidates, so both orders
	// run every time.
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { sessionPerServerIdentity(t, seed) })
	}
}

func sessionPerServerIdentity(t *testing.T, seed int64) {
	_, _, addrA := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	_, _, addrB := startServer(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB})
	addrs := []string{addrA, addrB}

	// held reads key 1 straight from one server, so the test can say which
	// identity a Put reached instead of assuming the dial order.
	held := func(addr string) string {
		t.Helper()
		d, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		v, _, err := d.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		return string(v)
	}

	// The dial start index is random per client; the seed pins it, and the
	// test then follows whichever candidate it picked.
	cl, err := DialOptions(addrA+","+addrB, Options{
		DialTimeout:    200 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		MaxAttempts:    10,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	first := cl.addrIdx
	cl.mu.Unlock()
	other := 1 - first
	if got := held(addrs[first]); got != "first" {
		t.Fatalf("first Put did not reach the dialled server %d (holds %q)", first, got)
	}
	if got := held(addrs[other]); got != "" {
		t.Fatalf("first Put also reached server %d (holds %q)", other, got)
	}
	sessFirst := cl.Session()
	if sessFirst == 0 {
		t.Fatal("no session after handshake")
	}

	// Force the client onto the other server: every dial of the first now
	// fails, so the retry loop rotates to the next candidate.
	cl.mu.Lock()
	cl.addrs[first] = "127.0.0.1:1" // unroutable stand-in for the dead server
	cc := cl.conn
	cl.mu.Unlock()
	cc.fail(errors.New("test: server gone"))
	if err := cl.Put(1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got := held(addrs[other]); got != "second" {
		t.Fatalf("second Put did not move to server %d (holds %q)", other, got)
	}
	if got := held(addrs[first]); got != "first" {
		t.Fatalf("server %d changed after the client left it (holds %q)", first, got)
	}
	if sessOther := cl.Session(); sessOther == sessFirst {
		t.Fatalf("session %d reused against a different server identity", sessFirst)
	}

	// The mapping is sticky: meeting the same identity again reuses its
	// session (so dedup still recognizes genuine replays there).
	if got := cl.sessionFor(777); got == 0 || got != cl.sessionFor(777) {
		t.Fatal("sessionFor is not stable per identity")
	}
	if cl.sessionFor(777) == cl.sessionFor(778) {
		t.Fatal("distinct identities share a session")
	}
}
