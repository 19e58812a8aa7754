package tcp

// Regression tests for the client retry/deadline sweep: the dial
// deadline must be the earlier of DialTimeout and the ctx deadline,
// negative timeouts must disable bounds rather than produce expired
// ones, and the busy-retry loop must honor ctx and surface ErrBusy
// matchably.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/obs"
)

// busyServer speaks just enough of the protocol to shed everything: it
// handshakes, then answers every request (single or batch) with
// statusBusy. It returns the listener address.
func busyServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br, bw, ok := fakeHandshake(c)
				if !ok {
					return
				}
				var scratch []request
				for {
					payload, err := readFrame(br)
					if err != nil {
						return
					}
					scratch = scratch[:0]
					if len(payload) > 0 && payload[0] == opBatch {
						if scratch, err = decodeBatchInto(scratch, payload); err != nil {
							return
						}
					} else {
						q, err := decodeRequest(payload)
						if err != nil {
							return
						}
						scratch = append(scratch, q)
					}
					for _, q := range scratch {
						if writeFrame(bw, encodeResponse(response{id: q.id, status: statusBusy})) != nil {
							return
						}
					}
					if bw.Flush() != nil {
						return
					}
				}
			}(c)
		}
	}()
	return lis.Addr().String()
}

// TestDialTimeoutCapsLaterCtxDeadline pins the dial-deadline fix: a ctx
// deadline *later* than DialTimeout must not extend the per-attempt
// handshake bound against a mute server.
func TestDialTimeoutCapsLaterCtxDeadline(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close() // never accepts: TCP connects, then silence

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = DialContext(ctx, lis.Addr().String(), Options{MaxAttempts: 1, DialTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to a silent server succeeded")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("dial took %v: the later ctx deadline overrode DialTimeout", el)
	}
}

// TestNegativeTimeoutsDisableBounds pins the "negative: none" contract
// for both DialTimeout and RequestTimeout: a negative value must mean no
// deadline, not an already-expired one (net.Dialer turns any non-zero
// Timeout into a deadline, so a raw pass-through of -1 fails instantly).
func TestNegativeTimeoutsDisableBounds(t *testing.T) {
	_, _, addr := startServerOpts(t, core.Config{Cores: 1, Mode: batch.ModePipelinedHB, ArenaChunks: 8}, ServerOptions{})
	cl, err := DialOptions(addr, Options{
		DialTimeout:    -1,
		RequestTimeout: -1,
		MaxAttempts:    1, // no retries: a single expired deadline must not be masked
	})
	if err != nil {
		t.Fatalf("dial with negative DialTimeout: %v", err)
	}
	defer cl.Close()
	if err := cl.Put(1, []byte("v")); err != nil {
		t.Fatalf("put with negative RequestTimeout: %v", err)
	}
	if v, ok, err := cl.Get(1); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
}

// TestBusyRetryHonorsCtx pins the busy-loop ctx check: a call stuck in
// busy-shed retries must return promptly with the ctx error once the
// caller gives up, instead of sleeping through the remaining backoff
// budget.
func TestBusyRetryHonorsCtx(t *testing.T) {
	addr := busyServer(t)
	cl, err := DialOptions(addr, Options{
		MaxAttempts: 1000, // the budget would take minutes without the ctx check
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = cl.PutCtx(ctx, 1, []byte("v"))
	el := time.Since(start)
	if err == nil {
		t.Fatal("put against an always-busy server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline error", err)
	}
	if el > 2*time.Second {
		t.Fatalf("busy retries ran %v past ctx expiry", el)
	}
}

// TestBusyExhaustionIsErrBusy pins the errors.Is contract: a call that
// burns its whole attempt budget on busy sheds must be matchable as
// ErrBusy through the wrapped final error.
func TestBusyExhaustionIsErrBusy(t *testing.T) {
	addr := busyServer(t)
	cl, err := DialOptions(addr, Options{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put(1, []byte("v")); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want errors.Is(err, ErrBusy)", err)
	}
	// The multi-op path shares the contract.
	if _, err := cl.MultiGet([]uint64{1, 2, 3}); !errors.Is(err, ErrBusy) {
		t.Fatalf("multiget err = %v, want errors.Is(err, ErrBusy)", err)
	}
}

// replicaGate makes a server answer writes as a read replica would,
// naming primary as the node to go to.
type replicaGate struct{ primary string }

func (g replicaGate) AllowWrite() bool    { return false }
func (g replicaGate) PrimaryAddr() string { return g.primary }
func (g replicaGate) Snap() obs.ReplSnap  { return obs.ReplSnap{Role: obs.ReplRoleFollower} }

// TestWriteBatchFollowsNotPrimary: a multi-op frame sent to a read replica
// is redirected like a single write. The client's only dial candidate is
// the replica; every sub-op must be acked, and applied on the primary the
// replica named — not reported as a per-op failure.
func TestWriteBatchFollowsNotPrimary(t *testing.T) {
	cfg := core.Config{Cores: 2, Mode: batch.ModePipelinedHB}
	primary, _, primaryAddr := startServer(t, cfg)
	replica, replicaSrv, replicaAddr := startServer(t, cfg)
	replicaSrv.SetRepl(replicaGate{primary: primaryAddr})

	cl, err := DialOptions(replicaAddr, Options{BackoffBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ops := make([]BatchOp, 16)
	for i := range ops {
		ops[i] = BatchOp{Key: uint64(i), Value: []byte{byte(i)}}
	}
	res, err := cl.WriteBatch(ops)
	if err != nil {
		t.Fatalf("WriteBatch through a replica: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("op %d: %v", i, r.Err)
		}
	}
	if got := primary.Len(); got != 16 {
		t.Errorf("primary holds %d keys, want 16", got)
	}
	if got := replica.Len(); got != 0 {
		t.Errorf("replica applied %d keys; it must refuse writes", got)
	}
}
