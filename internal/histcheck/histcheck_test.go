package histcheck

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// put and saw act on key 1; saw("") observes an absence.
func put(h *History, v string) *Op { return h.Put(1, []byte(v)) }

func saw(h *History, v string) { h.Read(1).Saw([]byte(v), v != "") }

// recoveries is a fault trial's two recoveries: a crash, the recovered
// store's read, a probe write, a second crash, the read again.
func recoveries(h *History, first, second string) {
	h.Crash()
	saw(h, first)
	h.Put(99, []byte("probe")).Ack()
	h.Crash()
	saw(h, second)
}

// TestRule is the rule's table. Each reject row names what the oracles this
// package replaced made of it: checkKeyHistory (the linearizability test's)
// and the fault harness's Check chain (an acked-value model, the op in
// flight at the crash, and the "resolved model" a second crash was checked
// against).
func TestRule(t *testing.T) {
	for _, row := range []struct {
		name   string
		reject bool
		parent string
		run    func(h *History)
	}{
		{"a lost acked write", true, "rejected by both",
			func(h *History) { put(h, "a").Ack(); saw(h, "") }},
		{"a stale read", true, "rejected by both",
			func(h *History) { put(h, "a").Ack(); put(h, "b").Ack(); saw(h, "a") }},
		{"two non-overlapping reads that go backwards", true, "rejected by checkKeyHistory's monotonic-read pass",
			func(h *History) { put(h, "a").Ack(); w := put(h, "b"); saw(h, "b"); saw(h, "a"); w.Ack() }},
		{"a value never written", true, "rejected by both",
			func(h *History) { put(h, "a").Ack(); saw(h, "garbage") }},
		{"another key's value", true, "rejected by both",
			func(h *History) { put(h, "a").Ack(); h.Put(2, []byte("b")).Ack(); saw(h, "b") }},
		{"a definitely failed Put observed", true, "rejected by Check: a refused Put never entered its model",
			func(h *History) { put(h, "a").Ack(); put(h, "b").Fail(); saw(h, "b") }},
		{"a pending Put old after the first crash, new after the second", true, "rejected by the Check chain: its resolved model kept the old value",
			func(h *History) { put(h, "old").Ack(); put(h, "new"); recoveries(h, "old", "new") }},
		{"a pending Delete absent after the first crash, resurrected after the second", true, "rejected by the Check chain: its resolved model dropped the key",
			func(h *History) { put(h, "old").Ack(); h.Delete(1); recoveries(h, "", "old") }},
		{"a maybe-applied Put observed, then an absence only an older Delete explains", true, "ACCEPTED by checkKeyHistory: a maybe-applied write never superseded anything",
			func(h *History) { put(h, "a").Ack(); h.Delete(1).Ack(); put(h, "b").Maybe(); saw(h, "b"); saw(h, "") }},
		{"a maybe-applied Put observed, overwritten by an acked Put, observed again", true, "ACCEPTED by checkKeyHistory: a maybe-applied write could always still be in effect",
			func(h *History) { put(h, "z").Maybe(); saw(h, "z"); put(h, "a").Ack(); saw(h, "z") }},

		{"a maybe-applied op explaining a read", false, "",
			func(h *History) { put(h, "a").Ack(); put(h, "b").Maybe(); saw(h, "b") }},
		{"a zombie write: a timed-out Put takes effect after a later acked Put", false, "",
			func(h *History) { put(h, "z").Maybe(); put(h, "a").Ack(); saw(h, "a"); saw(h, "z") }},
		{"a pending Put the crash applied", false, "",
			func(h *History) { put(h, "old").Ack(); put(h, "new"); recoveries(h, "new", "new") }},
		{"a pending Delete the crash did not apply", false, "",
			func(h *History) { put(h, "old").Ack(); h.Delete(1); recoveries(h, "old", "old") }},
		{"a definite failure leaving no trace", false, "",
			func(h *History) { put(h, "a").Ack(); put(h, "b").Fail(); saw(h, "a") }},
		{"duplicate values", false, "",
			func(h *History) {
				put(h, "a").Ack()
				put(h, "b").Ack()
				put(h, "a").Ack()
				saw(h, "a")
				w := put(h, "b")
				saw(h, "b")
				w.Ack()
			}},
		{"a Delete that found nothing observes the absence", false, "",
			func(h *History) { h.Delete(1).Saw(nil, false); saw(h, "") }},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := New(nil)
			row.run(h)
			switch err := h.Check(); {
			case row.reject && err == nil:
				t.Fatalf("accepted; want rejected (parent: %s)", row.parent)
			case !row.reject && err != nil:
				t.Fatalf("rejected: %v", err)
			}
		})
	}
}

func TestSeedAuditEver(t *testing.T) {
	h := New(map[uint64][]byte{1: []byte("a"), 2: []byte("b")})
	h.Delete(2).Ack()
	h.Put(3, []byte("c")).Maybe()
	h.Put(4, []byte("d")).Fail()
	store := map[uint64][]byte{1: []byte("a"), 3: []byte("c")}
	get := func(k uint64) ([]byte, bool, error) { v, ok := store[k]; return v, ok, nil }
	if err := h.Clone().Audit(get); err != nil {
		t.Fatal(err)
	}
	store[7] = []byte("phantom")
	if err := h.Clone().Audit(get, 7); err == nil {
		t.Fatal("a key only the store names passed the audit")
	}
	rot := errors.New("rotted")
	if err := h.Clone().Audit(func(uint64) ([]byte, bool, error) { return nil, false, rot }); !errors.Is(err, rot) {
		t.Fatalf("audit read error: %v", err)
	}
	// Seeded, seeded then deleted, maybe-applied; failed, another key's, never written.
	for i, ok := range []bool{h.Ever(1, []byte("a")), h.Ever(2, []byte("b")), h.Ever(3, []byte("c")),
		!h.Ever(4, []byte("d")), !h.Ever(1, []byte("b")), !h.Ever(5, []byte("a"))} {
		if !ok {
			t.Errorf("Ever case %d", i)
		}
	}
}

// genHistory records a history a sequential register produced. Each step
// invokes an op, ends one in flight (an acked write or a read takes effect
// as it ends; a write that errs takes effect then, later — a zombie — or
// never), lets a zombie take effect, or crashes (every write in flight took
// effect before the crash or never). Every key is seeded; the mutate-th read
// invoked after an acked write of its key ended observes the seed instead,
// a value that write overwrote before the read began. It returns how many
// such reads there were and whether the mutated one ended.
func genHistory(rng *rand.Rand, mutate int) (h *History, reads int, mutated bool) {
	seed := map[uint64][]byte{0: []byte("s0"), 1: []byte("s1"), 2: []byte("s2")}
	h, state := New(seed), maps.Clone(seed)
	type op struct {
		o         *Op
		key       uint64
		write, mu bool
		val       []byte
	}
	var live, zombies []op
	overwritten := map[uint64]bool{}
	apply := func(p op) {
		if state[p.key] = p.val; p.val == nil {
			delete(state, p.key)
		}
	}
	for i := 0; i < 200; i++ {
		switch r := rng.Intn(20); {
		case r < 8 || len(live) == 0:
			p := op{key: uint64(rng.Intn(3)), write: rng.Intn(3) > 0}
			switch {
			case !p.write:
				p.o, p.mu = h.Read(p.key), overwritten[p.key] && reads == mutate
				if overwritten[p.key] {
					reads++
				}
			case rng.Intn(3) > 0:
				p.val = []byte(fmt.Sprint("v", i))
				p.o = h.Put(p.key, p.val)
			default:
				p.o = h.Delete(p.key)
			}
			live = append(live, p)
		case r == 19:
			for _, p := range append(live, zombies...) {
				if p.write && rng.Intn(2) == 0 {
					apply(p)
				}
			}
			live, zombies = nil, nil
			h.Crash()
		case r == 18 && len(zombies) > 0:
			apply(zombies[0])
			zombies = zombies[1:]
		default:
			j := rng.Intn(len(live))
			p := live[j]
			live = append(live[:j], live[j+1:]...)
			switch {
			case p.mu:
				p.o.Saw(seed[p.key], true)
				mutated = true
			case !p.write:
				v, ok := state[p.key]
				p.o.Saw(v, ok)
			case rng.Intn(4) == 0:
				p.o.Maybe()
				if r := rng.Intn(3); r == 0 {
					apply(p)
				} else if r == 1 {
					zombies = append(zombies, p)
				}
			case rng.Intn(4) == 0:
				p.o.Fail()
			default:
				apply(p)
				p.o.Ack()
				overwritten[p.key] = true
			}
		}
	}
	return h, reads, mutated
}

// TestSequentialHistories: every history a sequential register produced
// passes, whatever the overlap, maybe outcomes and crashes; the same history
// with one read moved to a value an acked write had overwritten before the
// read began fails.
func TestSequentialHistories(t *testing.T) {
	n := 0
	for s := int64(0); s < 400; s++ {
		h, reads, _ := genHistory(rand.New(rand.NewSource(s)), -1)
		if err := h.Check(); err != nil {
			t.Fatalf("seed %d: a sequential history failed: %v", s, err)
		}
		if reads == 0 {
			continue
		}
		m := int(s) % reads
		if h, _, mutated := genHistory(rand.New(rand.NewSource(s)), m); mutated {
			n++
			if h.Check() == nil {
				t.Fatalf("seed %d: read %d moved to a superseded value passed", s, m)
			}
		}
	}
	if n < 200 {
		t.Fatalf("only %d of 400 histories had a read to move", n)
	}
}
