package cluster

// Cross-shard Scan: every shard holds an arbitrary (hash-routed) subset
// of the key space, so a range scan must ask all of them. The client
// fans the scan out to every shard group in parallel — each group
// streams its ordered range in chunks through a per-shard cursor
// goroutine — and merges the k ordered streams with a heap, yielding
// globally ordered pairs without buffering any shard's full result.
//
// Consistency matches the single-shard Scan: each chunk is a consistent
// read of its shard at fetch time, but the merged view is not a
// snapshot — a concurrent writer may land a key behind one shard's
// cursor and ahead of another's. What the merge does guarantee is
// global key order of what it yields, which is what the range-query
// fan-out needs.

import (
	"container/heap"
	"context"
	"math"

	"flatstore/internal/tcp"
)

// scanChunkSize is the per-shard fetch granularity: big enough that the
// per-chunk round trip amortizes, small enough that a limit-bounded
// merge does not over-fetch every shard.
const scanChunkSize = 512

// scanChunk is one fetched slice of a shard's ordered range.
type scanChunk struct {
	pairs []tcp.Pair
	err   error
}

// scanCursor is the merge-side view of one shard's stream: the chunk
// being consumed and the channel the fetcher goroutine refills from.
type scanCursor struct {
	shard int
	buf   []tcp.Pair
	pos   int
	ch    <-chan scanChunk
	err   error
}

// head is the cursor's current pair.
func (sc *scanCursor) head() tcp.Pair { return sc.buf[sc.pos] }

// advance moves past the current pair, pulling the next chunk when the
// buffer drains. It reports whether the cursor still has data; on a
// stream error it records err and reports false.
func (sc *scanCursor) advance() bool {
	sc.pos++
	for sc.pos >= len(sc.buf) {
		chunk, ok := <-sc.ch
		if !ok {
			return false
		}
		if chunk.err != nil {
			sc.err = chunk.err
			return false
		}
		sc.buf, sc.pos = chunk.pairs, 0
	}
	return true
}

// cursorHeap orders live cursors by their head key (shard ID breaks
// ties, though two healthy shards never hold the same key).
type cursorHeap []*scanCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].head().Key != h[j].head().Key {
		return h[i].head().Key < h[j].head().Key
	}
	return h[i].shard < h[j].shard
}
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(*scanCursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Scan returns up to limit pairs in [lo, hi], globally key-ordered,
// merged from all shards. limit <= 0 means no bound.
func (c *Client) Scan(lo, hi uint64, limit int) ([]tcp.Pair, error) {
	return c.ScanCtx(context.Background(), lo, hi, limit)
}

// ScanCtx is Scan bounded by ctx.
func (c *Client) ScanCtx(ctx context.Context, lo, hi uint64, limit int) ([]tcp.Pair, error) {
	c.scans.Add(1)
	m := c.Map()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the fetchers once the merge returns

	chunk := scanChunkSize
	if limit > 0 && limit < chunk {
		chunk = limit
	}

	shards := m.Shards()
	cursors := make([]*scanCursor, 0, len(shards))
	for _, s := range shards {
		g, err := c.group(ctx, s.ID)
		if err != nil {
			return nil, err
		}
		ch := make(chan scanChunk, 1) // one chunk of read-ahead per shard
		go c.fetchShardRange(ctx, g.cl, lo, hi, chunk, ch)
		cursors = append(cursors, &scanCursor{shard: s.ID, buf: nil, pos: -1, ch: ch})
	}

	// Prime every cursor (the initial fetches are already running in
	// parallel), then heap-merge.
	h := make(cursorHeap, 0, len(cursors))
	for _, sc := range cursors {
		if sc.advance() {
			h = append(h, sc)
		} else if sc.err != nil {
			return nil, sc.err
		}
	}
	heap.Init(&h)

	var out []tcp.Pair
	var haveLast bool
	var last uint64
	for h.Len() > 0 && (limit <= 0 || len(out) < limit) {
		sc := h[0]
		p := sc.head()
		// A key can only repeat across shards while a map change is in
		// flight (a writer raced the ownership move); keep the first —
		// it came from the lower shard ID, deterministically.
		if !haveLast || p.Key != last {
			out = append(out, p)
			last, haveLast = p.Key, true
		}
		if sc.advance() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
			if sc.err != nil {
				return nil, sc.err
			}
		}
	}
	return out, nil
}

// fetchShardRange streams one shard's [lo, hi] range into ch, chunk by
// chunk, until the range is exhausted, an error occurs, or ctx fires.
func (c *Client) fetchShardRange(ctx context.Context, cl *tcp.Client, lo, hi uint64, chunk int, ch chan<- scanChunk) {
	defer close(ch)
	for {
		pairs, err := cl.ScanCtx(ctx, lo, hi, chunk)
		c.scanChunks.Add(1)
		if err != nil {
			if ctx.Err() != nil {
				return // merge finished early; nobody is listening
			}
			select {
			case ch <- scanChunk{err: err}:
			case <-ctx.Done():
			}
			return
		}
		if len(pairs) > 0 {
			select {
			case ch <- scanChunk{pairs: pairs}:
			case <-ctx.Done():
				return
			}
		}
		if len(pairs) < chunk {
			return // shard range exhausted
		}
		lastKey := pairs[len(pairs)-1].Key
		if lastKey == math.MaxUint64 || lastKey >= hi {
			return
		}
		lo = lastKey + 1
	}
}
