package repl

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"flatstore/internal/tcp"
)

// Reconnect pacing for the fetch loop. After a divergence (needs-reset)
// the loop keeps probing, slowly, in case an operator rebuilds the node
// in place.
const (
	fetchRedialDelay = 100 * time.Millisecond
	fetchResetDelay  = 2 * time.Second
	fetchDialTimeout = 5 * time.Second
)

// fetchLoop is the follower's replication driver: one session per
// upstream connection, re-dialled (against whatever primaryRepl points
// at now) until the node is promoted or closed. It is the only
// goroutine that applies replicated state: while it runs it owns every
// core's log and allocation context (core.Store.SetReplOwner).
func (n *Node) fetchLoop(stop, done chan struct{}) {
	defer n.wg.Done()
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		n.mu.Lock()
		addr := n.primaryRepl
		reset := n.needsReset
		n.mu.Unlock()
		delay := fetchRedialDelay
		if reset {
			delay = fetchResetDelay
		}
		if addr != "" && !reset {
			n.fetchSession(stop, addr)
		}
		t := time.NewTimer(delay)
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// fetchSession runs one connection's worth of replication: hello,
// then fetch/apply until an error, a fence, or a stop.
func (n *Node) fetchSession(stop chan struct{}, addr string) {
	d := net.Dialer{Timeout: fetchDialTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.fetchConn = conn
	epoch, pos := n.epoch, n.pos
	serveAddr := n.cfg.ServeAddr
	n.mu.Unlock()
	defer func() {
		conn.Close()
		n.mu.Lock()
		if n.fetchConn == conn {
			n.fetchConn = nil
		}
		n.mu.Unlock()
	}()
	select {
	case <-stop:
		return
	default:
	}

	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	send := func(payload []byte) error {
		conn.SetWriteDeadline(time.Now().Add(serveWriteTimeout))
		if err := tcp.WriteFrame(bw, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	recv := func(wait time.Duration) ([]byte, error) {
		conn.SetReadDeadline(time.Now().Add(wait + 30*time.Second))
		return tcp.ReadFrame(br)
	}

	if send(appendHello(nil, epoch, pos, serveAddr)) != nil {
		return
	}
	frame, err := recv(0)
	if err != nil || len(frame) == 0 {
		return
	}
	switch frame[0] {
	case rHelloOK:
		upEpoch, upTail, upServe, derr := decodeHelloOK(frame)
		if derr != nil {
			return
		}
		if !n.adoptUpstream(upEpoch, upTail, upServe) {
			return // upstream is from an older epoch than ours: stale feed
		}
	case rStale:
		// The peer fenced itself against our newer epoch; nothing to
		// fetch there. SetPrimary will re-point us.
		return
	default:
		return
	}

	for {
		select {
		case <-stop:
			return
		default:
		}
		n.mu.Lock()
		epoch, pos = n.epoch, n.pos
		n.mu.Unlock()
		if send(appendFetch(nil, epoch, pos, uint32(n.cfg.FetchWait/time.Millisecond))) != nil {
			return
		}
		frame, err := recv(n.cfg.FetchWait)
		if err != nil || len(frame) == 0 {
			return
		}
		switch frame[0] {
		case rBatches:
			if err := n.applyBatches(frame); err != nil {
				return
			}
		case rSnapBegin:
			if err := n.loadSnapshot(frame, br, conn); err != nil {
				return
			}
		case rStale:
			return
		case rReset:
			n.mu.Lock()
			n.needsReset = true
			n.mu.Unlock()
			return
		default:
			return
		}
	}
}

// adoptUpstream folds an upstream's (epoch, tail, serveAddr) into the
// node, persisting an epoch advance. It reports false when the upstream
// is behind this node's own epoch (a stale feed that must not be
// applied).
func (n *Node) adoptUpstream(upEpoch, upTail uint64, upServe string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if upEpoch < n.epoch {
		return false
	}
	if upEpoch > n.epoch {
		n.epoch = upEpoch
		n.st.SetReplState(n.epoch, n.pos)
	}
	if upEpoch > n.remoteTailEpoch {
		n.remoteTailEpoch = upEpoch
	}
	if upTail > n.remoteTail {
		n.remoteTail = upTail
	}
	if upServe != "" {
		n.primaryServe = upServe
	}
	return true
}

// applyBatches decodes one rBatches frame and applies every batch in
// stream order, each as one batch of the engine's write path (version
// gate, one log append, index), advancing and persisting the applied
// position batch by batch.
func (n *Node) applyBatches(frame []byte) error {
	epoch, tail, count, err := decodeBatchesHeader(frame)
	if err != nil {
		return err
	}
	if !n.adoptUpstream(epoch, tail, "") {
		return fmt.Errorf("repl: batches from stale epoch %d", epoch)
	}
	off := 21
	for i := uint32(0); i < count; i++ {
		bodyStart := off
		var pos uint64
		pos, n.ops, off, err = decodeBatchBody(frame, off, n.ops[:0])
		if err != nil {
			return err
		}
		if want := n.Pos() + 1; pos != want {
			if pos < want {
				continue // duplicate delivery (reconnect overlap): skip
			}
			return fmt.Errorf("repl: stream gap: got %d want %d", pos, want)
		}
		if err := n.st.ReplApplyBatch(n.ops); err != nil {
			return fmt.Errorf("repl: batch %d: %w", pos, err)
		}
		// Retain the body so this node can serve it after a promotion.
		body := append([]byte(nil), frame[bodyStart:off]...)
		n.mu.Lock()
		n.pos = pos
		n.hist.push(pos, body)
		n.st.SetReplState(n.epoch, pos)
		n.bump()
		n.mu.Unlock()
		n.batchesApplied.Add(1)
		n.entriesApplied.Add(uint64(len(n.ops)))
	}
	return nil
}

// loadSnapshot applies a bootstrap stream (rSnapBegin already read in
// frame) through rSnapEnd, each chunk as one batch, then jumps the applied
// position to the snapshot's. Only an empty node ever receives one.
func (n *Node) loadSnapshot(frame []byte, br *bufio.Reader, conn net.Conn) error {
	epoch, snapPos, err := decodeSnapBegin(frame)
	if err != nil {
		return err
	}
	if !n.adoptUpstream(epoch, snapPos, "") {
		return fmt.Errorf("repl: snapshot from stale epoch %d", epoch)
	}
	if pos := n.Pos(); pos != 0 {
		return fmt.Errorf("repl: snapshot offered to a non-empty node (pos %d)", pos)
	}
	for {
		conn.SetReadDeadline(time.Now().Add(serveReadTimeout))
		chunk, err := tcp.ReadFrame(br)
		if err != nil || len(chunk) == 0 {
			return fmt.Errorf("repl: snapshot stream: %v", err)
		}
		switch chunk[0] {
		case rSnapChunk:
			if n.ops, err = decodeSnapChunk(chunk, n.ops[:0]); err != nil {
				return err
			}
			if err := n.st.ReplApplyBatch(n.ops); err != nil {
				return err
			}
		case rSnapEnd:
			n.mu.Lock()
			n.pos = snapPos
			n.st.SetReplState(n.epoch, snapPos)
			n.bump()
			n.mu.Unlock()
			n.snapshotsLoaded.Add(1)
			return nil
		default:
			return fmt.Errorf("repl: unexpected frame %d in snapshot", chunk[0])
		}
	}
}
