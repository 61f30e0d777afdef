package rng

import "math/bits"

// Batched generation. The generator state lives behind a pointer, so every
// Uint64 call pays four loads and four stores to heap memory; the transmit
// hot loop makes one draw per base, which makes that traffic measurable.
// Fill runs the xoshiro step with the state in registers and writes a whole
// block of outputs at once; Backstep runs the step in reverse, so a
// consumer that over-filled can return the unused draws and leave the
// generator positioned exactly as if each draw had been made individually.
// Batch packages the two into a drop-in draw source with draw-for-draw
// stream parity.

// Fill writes len(dst) successive Uint64 outputs into dst — the identical
// sequence len(dst) individual Uint64 calls would produce — keeping the
// generator state in registers for the duration of the block.
func (r *RNG) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Backstep rewinds the generator by n steps: after Backstep(n), the next n
// Uint64 outputs repeat the n most recent ones. The xoshiro256** state
// transition is linear over GF(2) and therefore invertible; only the
// Uint64 stream position is affected — the cached Box–Muller spare (if
// any) is left alone, so Backstep is only meaningful for uniform-draw
// usage such as Fill/Batch.
func (r *RNG) Backstep(n int) {
	a1, b1, c2, d2 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; n > 0; n-- {
		// Forward step, with (a,b,c,d) the pre-step state:
		//   t  = b<<17
		//   c1 = c ^ a;  d1 = d ^ b;  b1 = b ^ c1;  a1 = a ^ d1
		//   c2 = c1 ^ t; d2 = rotl(d1, 45)
		d1 := rotl(d2, 64-45)
		// b1 ^ c2 = (b ^ c ^ a) ^ (c ^ a ^ b<<17) = b ^ (b<<17);
		// invert x ^ (x<<17) = y by resubstitution (3 rounds cover 64 bits).
		y := b1 ^ c2
		b := y
		b = y ^ (b << 17)
		b = y ^ (b << 17)
		b = y ^ (b << 17)
		a := a1 ^ d1
		d := d1 ^ b
		c := (b1 ^ b) ^ a
		a1, b1, c2, d2 = a, b, c, d
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = a1, b1, c2, d2
}

// batchCap is the block size of a Batch: large enough that one fill covers
// a typical read's draws, small enough to live inline in a per-worker
// scratch structure (2 KiB).
const batchCap = 256

// batchRefill is the block size after the initial hint-sized fill runs dry.
const batchRefill = 64

// Batch is a buffered view of an RNG's Uint64 stream with exact draw
// parity: the values returned by Uint64/Intn are identical,
// call-for-call, to the ones the underlying generator would have produced
// directly, and Unbind backsteps the generator past any over-filled draws
// so its stream position is also identical. The buffer is inline, so a
// Batch embedded in a per-worker arena costs no allocation.
//
// A Batch is single-goroutine, like the RNG it wraps. Between Bind and
// Unbind (or Discard), the underlying generator must not be used directly.
type Batch struct {
	src  *RNG
	i, n int
	buf  [batchCap]uint64
}

// Bind attaches the batch to a generator and pre-fills about hint draws
// (clamped to the buffer size). hint is a throughput knob, not a limit —
// the batch refills transparently when it runs dry.
func (b *Batch) Bind(src *RNG, hint int) {
	if hint < batchRefill {
		hint = batchRefill
	}
	if hint > batchCap {
		hint = batchCap
	}
	b.src = src
	b.i, b.n = 0, hint
	src.Fill(b.buf[:hint])
}

// refill fetches the next block and returns its first draw. Outlined from
// Uint64 (and kept call-shaped, not inlined back into it) so the hot
// in-buffer path stays under the inlining budget: Uint64 then inlines into
// the transmit loop as a bounds check, a load and an increment.
//
//go:noinline
func (b *Batch) refill() uint64 {
	b.src.Fill(b.buf[:batchRefill])
	b.i, b.n = 1, batchRefill
	return b.buf[0]
}

// Uint64 returns the next 64 uniformly random bits of the bound stream.
func (b *Batch) Uint64() uint64 {
	i := b.i
	if i == b.n {
		return b.refill()
	}
	b.i = i + 1
	return b.buf[i]
}

// Intn returns a uniform int in [0, n), consuming exactly the words
// RNG.Intn would (same Lemire rejection walk). It panics if n <= 0.
func (b *Batch) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := b.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// NextBlock returns the unconsumed remainder of the current block,
// refilling it first when empty. Hot loops index the returned slice
// directly — a load per draw, no call — and must report how many draws
// they took via Skip before any other draw call on the batch. The slice
// is valid until the next refill (any draw or NextBlock call once it is
// exhausted).
func (b *Batch) NextBlock() []uint64 {
	if b.i == b.n {
		b.src.Fill(b.buf[:batchRefill])
		b.i, b.n = 0, batchRefill
	}
	return b.buf[b.i:b.n]
}

// Skip marks k draws of the block returned by NextBlock as consumed.
func (b *Batch) Skip(k int) { b.i += k }

// Unbind detaches the batch, backstepping the generator past every filled
// but unconsumed draw: the generator is left in exactly the state it would
// hold had each consumed draw been made directly.
func (b *Batch) Unbind() {
	if b.src == nil {
		return
	}
	b.src.Backstep(b.n - b.i)
	b.src, b.i, b.n = nil, 0, 0
}
