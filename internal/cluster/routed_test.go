package cluster

// The pipelined path's shape: a submission is its tcp ticket plus
// redirect state, reaped — and chased — by whoever calls Wait or Poll.

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"flatstore/internal/histcheck"
	"flatstore/internal/tcp"
)

// TestClusterSubmitGoroutines: requests in flight cost no goroutines.
// Against shards that answer nothing yet, the goroutine count with every
// group's window full is the count with one submission out.
func TestClusterSubmitGoroutines(t *testing.T) {
	const window = 8
	servers := stalledShards(t, 2, smallStore())
	m := gateAll(t, servers, 1)
	cl := dialCluster(t, m, ClientOptions{TCP: tcp.Options{Window: window}})
	ctx := context.Background()

	var tickets []*Ticket
	perShard := map[int]int{}
	submit := func(key uint64) {
		tk, err := cl.SubmitPut(ctx, key, seqValue(key))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		perShard[m.ShardOf(key)]++
	}
	// The count once it stops moving: the servers start their connection
	// goroutines a moment after the dial returns.
	settled := func() int {
		for n := runtime.NumGoroutine(); ; {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
	}
	submit(0)
	one := settled()
	for key := uint64(1); len(tickets) < 2*window; key++ {
		if perShard[m.ShardOf(key)] < window { // a full window, never a blocked Submit
			submit(key)
		}
	}
	if full := settled(); full != one {
		t.Errorf("%d goroutines with %d submissions in flight, %d with one: submissions cost goroutines",
			full, len(tickets), one)
	}
	if got := cl.InFlight(); got != len(tickets) {
		t.Errorf("InFlight = %d with %d submissions unanswered", got, len(tickets))
	}
	for _, s := range servers {
		s.st.Run()
	}
	for _, tk := range tickets {
		if err := tk.Wait(ctx); err != nil {
			t.Fatalf("key %d: %v", tk.Key(), err)
		}
	}
}

// TestClusterReapersChaseRedirects: against a stale map the redirects are
// chased by whoever reaps — Wait alone, Poll alone, or the two racing over
// one set of tickets. Every op is delivered once with the right outcome,
// each redirect is sent to the new owner once (no ticket chases twice: the
// newer map's owner never redirects), and the store audits clean.
func TestClusterReapersChaseRedirects(t *testing.T) {
	servers := startShards(t, 3, smallStore())
	gateAll(t, servers, 2)
	stale := staleMap(t, servers)
	h := histcheck.New(nil)
	ctx := context.Background()
	const n = 200

	for round, mode := range []string{"wait", "poll", "both"} {
		value := func(key uint64) []byte {
			return binary.LittleEndian.AppendUint64(seqValue(key), uint64(round))
		}
		// run submits one op per key through a client on the stale map,
		// reaps them all in this mode, and returns the final tickets.
		run := func(submit func(cl *Client, key uint64) (*Ticket, error)) []*Ticket {
			cl := dialCluster(t, stale, ClientOptions{TCP: tcp.Options{Window: 8}})
			tickets := make([]*Ticket, n)
			for key := range tickets {
				tk, err := submit(cl, uint64(key))
				if err != nil {
					t.Fatalf("%s: submit key %d: %v", mode, key, err)
				}
				tickets[key] = tk
			}
			reapAll(t, cl, mode, tickets)
			st := cl.Stats()
			if st.Reroutes == 0 {
				t.Errorf("%s: no redirect chased against the stale map", mode)
			}
			var chased uint64
			for _, tk := range tickets {
				if tk.attempt > 1 {
					t.Errorf("%s: key %d chased %d redirects, want at most 1", mode, tk.key, tk.attempt)
				}
				chased += uint64(tk.attempt)
			}
			if chased != st.Reroutes {
				t.Errorf("%s: tickets chased %d redirects, client counted %d", mode, chased, st.Reroutes)
			}
			return tickets
		}

		puts := make([]*histcheck.Op, n)
		for i, tk := range run(func(cl *Client, key uint64) (*Ticket, error) {
			puts[key] = h.Put(key, value(key))
			return cl.SubmitPut(ctx, key, value(key))
		}) {
			if err := puts[i].End(tk.Err()); err != nil {
				t.Fatalf("%s: put key %d: %v", mode, i, err)
			}
		}
		reads := make([]*histcheck.Op, n)
		for i, tk := range run(func(cl *Client, key uint64) (*Ticket, error) {
			reads[key] = h.Read(key)
			return cl.SubmitGet(ctx, key)
		}) {
			v, ok := tk.Value()
			reads[i].Saw(v, ok)
			if err := tk.Err(); err != nil || !ok || string(v) != string(value(uint64(i))) {
				t.Fatalf("%s: get key %d: ok=%v err=%v", mode, i, ok, err)
			}
		}
	}
	cl := dialCluster(t, stale, ClientOptions{})
	if err := h.Audit(cl.Get); err != nil {
		t.Fatal(err)
	}
}

// reapAll reaps every ticket in one of three ways: Wait on each ("wait"),
// Poll until none is in flight ("poll"), or a goroutine Waiting on every
// other ticket while this one Polls ("both"). It fails a ticket that two
// Polls deliver, one a Poll delivers once every ticket was reaped, and
// any ticket left pending or not final.
func reapAll(t *testing.T, cl *Client, mode string, tickets []*Ticket) {
	t.Helper()
	ctx := context.Background()
	polled := map[*Ticket]bool{}
	poll := func(until func() bool) {
		deadline := time.Now().Add(20 * time.Second)
		for !until() {
			for _, tk := range cl.Poll(0) {
				if polled[tk] {
					t.Fatalf("%s: key %d delivered by two Polls", mode, tk.Key())
				}
				polled[tk] = true
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d submissions still in flight", mode, cl.InFlight())
			}
		}
	}
	switch mode {
	case "wait":
		for _, tk := range tickets {
			tk.Wait(ctx)
		}
	case "poll":
		poll(func() bool { return len(polled) == len(tickets) })
	case "both":
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			for i := 0; i < len(tickets); i += 2 {
				tickets[i].Wait(ctx)
			}
		}()
		poll(func() bool {
			select {
			case <-waited:
				return cl.InFlight() == 0
			default:
				return false
			}
		})
		for i := 1; i < len(tickets); i += 2 {
			if !polled[tickets[i]] {
				t.Fatalf("%s: key %d, which no Wait reaps, was never polled", mode, tickets[i].Key())
			}
		}
	}
	if got := cl.InFlight(); got != 0 {
		t.Fatalf("%s: %d submissions in flight after every ticket was reaped", mode, got)
	}
	if late := cl.Poll(0); len(late) != 0 {
		t.Fatalf("%s: Poll delivered key %d after it was reaped", mode, late[0].Key())
	}
	for _, tk := range tickets {
		if !tk.Done() {
			t.Fatalf("%s: key %d reaped but not final", mode, tk.Key())
		}
	}
}
