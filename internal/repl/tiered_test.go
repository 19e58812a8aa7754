package repl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flatstore/internal/batch"
	"flatstore/internal/core"
	"flatstore/internal/histcheck"
	"flatstore/internal/rpc"
)

// tieredFollowerCfg is the store of a replica that earns a tier: a small
// arena, the cleaner on, a cold tier below. The demotion watermark sits far
// above the arena so that every cleaning pass demotes: the tests need a few
// closed log chunks, not a full arena.
func tieredFollowerCfg(t *testing.T) core.Config {
	return core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 12,
		GC:   core.GCConfig{Enabled: true},
		Tier: core.TierConfig{Dir: t.TempDir(), DemoteFreeChunks: 1 << 10}}
}

// seqValue is the size-byte value of key's seq-th write.
func seqValue(key, seq uint64, size int) []byte {
	v := bytes.Repeat([]byte{byte(key) ^ byte(seq)}, size)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], seq)
	return v
}

// skewedKeys is how many keys the skewed part of a stream overwrites; a key
// at or above it is written once, with a value that is out of place.
const skewedKeys = 4096

func streamValue(key, seq uint64) []byte {
	if key >= skewedKeys {
		return seqValue(key, seq, 300)
	}
	return seqValue(key, seq, 240) // inline: what fills and closes log chunks
}

// writeSkewed drives rounds 32-deep batches of Puts into the primary and
// records each batch in h once it returns, in submission order — the order
// one connection's batch applies in — so the audit demands the later of its
// two writes to a hot key. The keys are drawn from [0, skewedKeys) with a
// square-law skew, except that every once-th request (none when 0) writes a
// key no other request writes.
func writeSkewed(p *testNode, h *histcheck.History, rounds, once int) {
	rng := rand.New(rand.NewSource(24))
	cl := p.st.Connect()
	defer cl.Close()
	seqs := map[uint64]uint64{}
	reqs := make([]rpc.Request, 32)
	for r := 0; r < rounds; r++ {
		for i := range reqs {
			u := rng.Float64()
			k := uint64(u * u * skewedKeys)
			if n := r*len(reqs) + i; once > 0 && n%once == 0 {
				k = skewedKeys + uint64(n)
			}
			seqs[k]++
			reqs[i] = rpc.Request{Op: rpc.OpPut, Key: k, Value: streamValue(k, seqs[k])}
		}
		for i, resp := range cl.Batch(reqs) {
			o := h.Put(reqs[i].Key, reqs[i].Value)
			if resp.Status == rpc.StatusOK {
				o.Ack()
			} else {
				o.Maybe() // a semi-sync wait cut short may still apply
			}
		}
	}
}

// runTieredFollower replicates a skewed stream into a tiered follower whose
// cleaner demotes what it applies, optionally under readers, then promotes
// the follower and audits it against the history of the stream.
func runTieredFollower(t *testing.T, rounds, readers, once int) {
	p := startNodeOn(t, core.Config{Cores: 2, Mode: batch.ModePipelinedHB, ArenaChunks: 24}, "", func(c *Config) {
		c.SyncFollowers = 1
		c.SyncTimeout = 30 * time.Second
	})
	f := startNodeOn(t, tieredFollowerCfg(t), p.n.ListenAddr(), nil)
	waitPos(t, f, p.n.Pos())

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := f.st.Connect()
			defer cl.Close()
			for {
				for k := uint64(0); k < skewedKeys; k++ {
					select {
					case <-done:
						return
					default:
					}
					// An always-runnable reader would keep the scheduler
					// from polling the replication sockets.
					time.Sleep(50 * time.Microsecond)
					// The second touch is the one that promotes a cold record.
					for touch := 0; touch < 2; touch++ {
						if _, _, err := cl.Get(k); err != nil {
							t.Errorf("follower Get(%d): %v", k, err)
							return
						}
					}
				}
			}
		}()
	}
	h := histcheck.New(nil)
	writeSkewed(p, h, rounds, once)
	close(done)
	wg.Wait()

	if n := p.n.Snap().SyncTimeouts; n != 0 {
		t.Fatalf("%d batches were acknowledged without the follower", n)
	}
	if err := f.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if d := f.st.Tier().Stats().Demoted; d == 0 {
		t.Fatal("the follower's cleaner demoted nothing: the stream closed no log chunk")
	}
	cl := f.st.Connect()
	defer cl.Close()
	if err := h.Audit(cl.Get); err != nil {
		t.Fatal(err)
	}
}

// TestTieredFollowerServesReads: the cleaner demotes behind the replication
// stream while readers touch every key twice. A core goroutine that promoted
// a cold record would append to a log, and allocate from a context, that the
// replication goroutine owns.
func TestTieredFollowerServesReads(t *testing.T) {
	runTieredFollower(t, 1400, 2, 0)
}

// TestTieredFollowerDrainsDemotionFrees: every fourth Put is an out-of-place
// value under a key of its own, so it is live when its log chunk is cleaned
// and the demotion hands its record's free to the owning core's allocation
// context, which the replication goroutine is allocating from.
func TestTieredFollowerDrainsDemotionFrees(t *testing.T) {
	runTieredFollower(t, 1800, 0, 4)
}
