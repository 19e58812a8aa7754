// Package histcheck is the one oracle of every test battery: a history of
// ops on a map of registers, stamped from one logical clock, and the
// per-key rule a store's behaviour must satisfy.
//
// An observation (a read's value or absence; a key starts absent unless
// seeded) must be explained by a write of its bytes — values need not be
// unique — that was invoked before the observation returned and was not
// superseded before it began: no applied write was invoked after it took
// effect and took effect itself before the observation. A write is applied
// when acked, or when it is the only explanation of some observation — it
// then took effect no later than that observation's response, or the crash
// that bounded it — applied until nothing changes. A maybe-applied write (an
// error or a timeout) may take effect at any time after its invocation,
// until a crash; a failed one wrote nothing.
package histcheck

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

const never = math.MaxInt64 // the bound of a write that may apply at any time

type outcome uint8

const (
	open outcome = iota
	acked
	maybe
	failed
	observed
)

// History records ops from any number of goroutines; every stamp is taken
// under its lock, so concurrent clients and a single-goroutine harness
// share one order.
type History struct {
	mu    sync.Mutex
	clock int64
	keys  map[uint64][]*Op
	ids   map[string]int // value bytes → id; 0 is an absence
}

// Op is one recorded op. Its methods end it; ending an op already ended,
// or closed by a Crash, changes nothing.
type Op struct {
	h        *History
	read     bool
	val      int // the value id written or observed
	inv, end int64
	out      outcome
}

// New returns a history whose keys start in state (absent where state has
// no entry), as if each value had been acknowledged before the first op.
func New(state map[uint64][]byte) *History {
	h := &History{clock: 1, keys: map[uint64][]*Op{}, ids: map[string]int{}}
	for k, v := range state {
		h.keys[k] = []*Op{{h: h, val: h.id(v), inv: 1, end: 1, out: acked}}
	}
	return h
}

func (h *History) id(v []byte) int {
	id, ok := h.ids[string(v)]
	if !ok {
		id = len(h.ids) + 1
		h.ids[string(v)] = id
	}
	return id
}

func (h *History) record(key uint64, read bool, val []byte) *Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	o := &Op{h: h, read: read, inv: h.clock, end: never}
	if val != nil {
		o.val = h.id(val)
	}
	h.keys[key] = append(h.keys[key], o)
	return o
}

// Put records the invocation of a Put of val to key.
func (h *History) Put(key uint64, val []byte) *Op {
	if val == nil {
		val = []byte{} // a Put of no bytes is no Delete
	}
	return h.record(key, false, val)
}

// Delete records the invocation of a Delete of key.
func (h *History) Delete(key uint64) *Op { return h.record(key, false, nil) }

// Read records the invocation of a read of key; a scan reads every key of
// its range. A read not ended by Saw observed nothing.
func (h *History) Read(key uint64) *Op { return h.record(key, true, nil) }

func (o *Op) close(out outcome, val []byte, ok bool) {
	h := o.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if o.out != open {
		return
	}
	h.clock++
	o.out, o.end = out, h.clock
	switch {
	case out == maybe:
		o.end = never
	case out == observed:
		o.read, o.val = true, 0
		if ok {
			o.val = h.id(val)
		}
	}
}

// Ack ends a write as applied.
func (o *Op) Ack() { o.close(acked, nil, false) }

// Maybe ends a write that may or may not apply.
func (o *Op) Maybe() { o.close(maybe, nil, false) }

// End ends a write by its call's error — none is an ack, any error leaves
// the write maybe-applied — and returns the error.
func (o *Op) End(err error) error {
	if err != nil {
		o.Maybe()
	} else {
		o.Ack()
	}
	return err
}

// Fail ends a write that definitely wrote nothing.
func (o *Op) Fail() { o.close(failed, nil, false) }

// Saw ends a read that observed val (ok) or an absence — or a Delete that
// found nothing to delete, which wrote nothing and observed an absence.
func (o *Op) Saw(val []byte, ok bool) { o.close(observed, val, ok) }

// Crash closes every open op — a write as maybe-applied; a read observed
// nothing — and bounds every maybe-applied write at the crash.
func (h *History) Crash() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	for _, ops := range h.keys {
		for _, o := range ops {
			if o.out == open || o.out == maybe && o.end == never {
				o.out, o.end = maybe, h.clock
			}
		}
	}
}

// Ever reports whether some write of val to key may have taken effect:
// seeded, acknowledged, maybe-applied or still open.
func (h *History) Ever(key uint64, val []byte) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	id, ok := h.ids[string(val)]
	return ok && slices.ContainsFunc(h.keys[key], func(o *Op) bool {
		return !o.read && o.out != failed && o.val == id
	})
}

// Clone returns an independent copy, so that one recorded past can be
// checked against several futures.
func (h *History) Clone() *History {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &History{clock: h.clock, keys: make(map[uint64][]*Op, len(h.keys)), ids: maps.Clone(h.ids)}
	for k, ops := range h.keys {
		for _, o := range ops {
			co := *o
			co.h = c
			c.keys[k] = append(c.keys[k], &co)
		}
	}
	return c
}

// Audit reads, at quiescence, every key the history names and every key in
// stored (those the store names) through get, records each answer, and
// checks.
func (h *History) Audit(get func(key uint64) (val []byte, ok bool, err error), stored ...uint64) error {
	for _, k := range h.keysWith(stored) {
		r := h.Read(k)
		v, ok, err := get(k)
		if err != nil {
			return fmt.Errorf("histcheck: audit read of key %#x: %w", k, err)
		}
		r.Saw(v, ok)
	}
	return h.Check()
}

// Check applies the rule to everything recorded and reports the first
// observation, in key order, that no write explains.
func (h *History) Check() error {
	for _, k := range h.keysWith(nil) {
		if err := h.checkKey(k); err != nil {
			return err
		}
	}
	return nil
}

// keysWith returns the history's keys and extra's, sorted and unique.
func (h *History) keysWith(extra []uint64) []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys := slices.Clone(extra)
	for k := range h.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// write is a write that may have taken effect, as the rule sees it.
type write struct {
	inv, by int64 // invoked at inv; took effect, if at all, by by
	val     int
	applied bool
}

func (h *History) checkKey(key uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := []write{{applied: true}} // the initial absence
	var rs []*Op
	for _, o := range h.keys[key] {
		switch {
		case o.out == observed:
			rs = append(rs, o)
		case o.read || o.out == failed:
		default: // acked, maybe or still open
			ws = append(ws, write{inv: o.inv, by: o.end, val: o.val, applied: o.out == acked})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rs {
			if i, n := explain(ws, r); n == 1 && (!ws[i].applied || r.end < ws[i].by) {
				ws[i].applied, ws[i].by, changed = true, min(ws[i].by, r.end), true
			}
		}
	}
	for _, r := range rs {
		if _, n := explain(ws, r); n > 0 {
			continue
		}
		saw, why := "an absence", "which no write of this key stored before the read returned"
		for v, id := range h.ids {
			if id == r.val {
				saw = fmt.Sprintf("%d bytes %x", len(v), v[:min(len(v), 16)])
			}
		}
		if slices.ContainsFunc(ws, func(w write) bool { return w.val == r.val && w.inv < r.end }) {
			why = "but every write of it was superseded before the read began (stale read, lost write or resurrection)"
		}
		return fmt.Errorf("histcheck: key %#x: read [%d,%d] saw %s, %s", key, r.inv, r.end, saw, why)
	}
	return nil
}

// explain returns how many writes explain r, and the last of them.
func explain(ws []write, r *Op) (last, n int) {
	for i, w := range ws {
		if w.val != r.val || w.inv >= r.end || slices.ContainsFunc(ws, func(w2 write) bool {
			return w2.applied && w2.inv > w.by && w2.by < r.inv // w superseded
		}) {
			continue
		}
		last, n = i, n+1
	}
	return last, n
}
