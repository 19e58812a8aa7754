package core

import "testing"

// age makes n touches of one filler key: generations rotate on touch
// count, so this ages the sketch while setting a single other bit.
func age(s *touchSketch, n int) {
	for i := 0; i < n; i++ {
		s.touch(1 << 60)
	}
}

func TestTouchSketchMarkAndSeen(t *testing.T) {
	s := newTouchSketch(1024)
	for k := uint64(1); k <= 64; k++ {
		if s.touch(k) {
			t.Fatalf("key %d seen on its first touch", k)
		}
	}
	for k := uint64(1); k <= 64; k++ {
		if !s.touch(k) {
			t.Fatalf("key %d not seen on its second touch", k)
		}
	}
}

// TestTouchSketchHorizon: a mark survives one rotation and is gone after
// two, so a key's two touches count only within one to two horizons.
func TestTouchSketchHorizon(t *testing.T) {
	const horizon = 256
	s := newTouchSketch(horizon)
	s.touch(7)
	age(s, horizon) // at least one rotation, fewer than two
	if !s.touch(7) {
		t.Fatal("mark lost after one rotation")
	}

	s = newTouchSketch(horizon)
	s.touch(7)
	age(s, 2*horizon)
	if s.touch(7) {
		t.Fatal("mark survived two rotations")
	}
	// The touch above re-marked it in the current generation.
	if !s.touch(7) {
		t.Fatal("re-marked key not seen")
	}
}

// TestTouchSketchDeterministic: the sketch reads no clock and no random
// source, so an identical touch sequence gets identical answers.
func TestTouchSketchDeterministic(t *testing.T) {
	run := func() []bool {
		s := newTouchSketch(128)
		var out []bool
		x := uint64(1)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			out = append(out, s.touch(x>>54)) // 1024 keys: repeats and rotations
		}
		return out
	}
	a, b := run(), run()
	seen := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("touch %d answered %v, then %v for the same sequence", i, a[i], b[i])
		}
		if a[i] {
			seen++
		}
	}
	if seen == 0 || seen == len(a) {
		t.Fatalf("%d of %d touches seen: the sequence exercised one answer only", seen, len(a))
	}
}

func TestTouchSketchNoAllocs(t *testing.T) {
	s := newTouchSketch(64)
	k := uint64(0)
	// 1000 runs cross the 64-touch horizon many times: rotation is free too.
	if n := testing.AllocsPerRun(1000, func() { k++; s.touch(k) }); n != 0 {
		t.Fatalf("%v allocations per touch, want 0", n)
	}
}
