package rng

import "testing"

// TestFillMatchesUint64: Fill must produce the identical sequence repeated
// Uint64 calls would, and leave the generator in the identical state.
func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 256, 1000} {
		a, b := New(42), New(42)
		dst := make([]uint64, n)
		a.Fill(dst)
		for i, v := range dst {
			if w := b.Uint64(); v != w {
				t.Fatalf("n=%d: Fill[%d] = %x, Uint64 = %x", n, i, v, w)
			}
		}
		for k := 0; k < 4; k++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("n=%d: post-Fill state diverged at draw %d", n, k)
			}
		}
	}
}

// TestBackstepInverts: advancing k steps and backstepping k must restore
// the exact stream position, from many different states.
func TestBackstepInverts(t *testing.T) {
	r := New(7)
	for trial := 0; trial < 50; trial++ {
		k := 1 + trial%17
		var want [4]uint64
		probe := New(0)
		probe.s = r.s
		for i := range want {
			want[i] = probe.Uint64()
		}
		for i := 0; i < k; i++ {
			r.Uint64()
		}
		r.Backstep(k)
		for i := range want {
			if got := r.Uint64(); got != want[i] {
				t.Fatalf("trial %d: after Backstep(%d), draw %d = %x, want %x", trial, k, i, got, want[i])
			}
		}
		// Leave r advanced so the next trial starts from a fresh state.
		r.Uint64()
	}
}

// TestBackstepZero is a no-op.
func TestBackstepZero(t *testing.T) {
	r, ref := New(9), New(9)
	r.Backstep(0)
	if r.Uint64() != ref.Uint64() {
		t.Fatal("Backstep(0) changed the state")
	}
}

// TestBatchStreamParity: an arbitrary interleaving of Uint64 and Intn
// through a Batch must return exactly the values direct calls on an
// identically-seeded RNG return, and Unbind must leave the wrapped
// generator in the identical state, regardless of where in the buffer the
// consumption stopped.
func TestBatchStreamParity(t *testing.T) {
	chooser := New(1)
	for trial := 0; trial < 40; trial++ {
		seed := chooser.Uint64()
		batched, direct := New(seed), New(seed)
		var b Batch
		hint := 1 + chooser.Intn(400) // exercise clamping at both ends
		b.Bind(batched, hint)
		draws := chooser.Intn(700)
		for k := 0; k < draws; k++ {
			switch chooser.Intn(2) {
			case 0:
				if x, y := b.Uint64(), direct.Uint64(); x != y {
					t.Fatalf("trial %d draw %d: Uint64 %x != %x", trial, k, x, y)
				}
			case 1:
				n := 1 + chooser.Intn(1000)
				if x, y := b.Intn(n), direct.Intn(n); x != y {
					t.Fatalf("trial %d draw %d: Intn(%d) %d != %d", trial, k, n, x, y)
				}
			}
		}
		b.Unbind()
		for k := 0; k < 5; k++ {
			if x, y := batched.Uint64(), direct.Uint64(); x != y {
				t.Fatalf("trial %d: post-Unbind state diverged at draw %d (%x vs %x)", trial, k, x, y)
			}
		}
	}
}

// TestBatchRebind: a Batch must be reusable across Bind/Unbind cycles (the
// per-worker arena usage pattern).
func TestBatchRebind(t *testing.T) {
	batched, direct := New(5), New(5)
	var b Batch
	for cycle := 0; cycle < 10; cycle++ {
		b.Bind(batched, 100)
		for k := 0; k < 10+cycle*13; k++ {
			if x, y := b.Uint64(), direct.Uint64(); x != y {
				t.Fatalf("cycle %d: draw %d diverged", cycle, k)
			}
		}
		b.Unbind()
	}
}

// TestBatchIntnBounds sanity-checks range and panic behaviour.
func TestBatchIntnBounds(t *testing.T) {
	r := New(3)
	var b Batch
	b.Bind(r, 64)
	for k := 0; k < 1000; k++ {
		if v := b.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
	b.Unbind()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	b.Bind(r, 64)
	b.Intn(0)
}
