package codec

import (
	"bytes"
	"testing"

	"dnastore/internal/rng"
)

func randMsg(r *rng.RNG, n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(r.Intn(256))
	}
	return msg
}

func TestGFFieldProperties(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		a, b := byte(r.Intn(255)+1), byte(r.Intn(255)+1)
		if gfMul(a, gfInv(a)) != 1 {
			t.Fatalf("a·a⁻¹ != 1 for %d", a)
		}
		if gfDiv(gfMul(a, b), b) != a {
			t.Fatalf("(a·b)/b != a for %d,%d", a, b)
		}
	}
	if gfMul(0, 7) != 0 || gfMul(7, 0) != 0 {
		t.Error("multiplication by zero")
	}
	if gfPow(2, 0) != 1 {
		t.Error("x^0 != 1")
	}
	if gfPow(0, 3) != 0 || gfPow(0, 0) != 1 {
		t.Error("0^p wrong")
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	gfDiv(3, 0)
}

func TestPolyOps(t *testing.T) {
	p := []byte{1, 2} // x + 2
	q := []byte{1, 3} // x + 3
	prod := polyMul(p, q)
	// (x+2)(x+3) = x² + (2⊕3)x + 6̄ where 2·3=6 in GF(256)
	if len(prod) != 3 || prod[0] != 1 || prod[1] != 1 || prod[2] != gfMul(2, 3) {
		t.Errorf("polyMul = %v", prod)
	}
	if polyEval([]byte{1, 0, 0}, 2) != 4 { // x² at x=2
		t.Errorf("polyEval x² at 2 = %d", polyEval([]byte{1, 0, 0}, 2))
	}
	sum := polyAdd([]byte{1}, []byte{1, 0})
	if len(sum) != 2 || sum[0] != 1 || sum[1] != 1 {
		t.Errorf("polyAdd = %v", sum)
	}
}

func TestRSBadParams(t *testing.T) {
	if _, err := NewRS(0); err == nil {
		t.Error("nsym 0 accepted")
	}
	if _, err := NewRS(255); err == nil {
		t.Error("nsym 255 accepted")
	}
	rs := MustRS(8)
	if _, err := rs.Encode(nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := rs.Encode(make([]byte, 250)); err == nil {
		t.Error("overlong message accepted")
	}
	if _, err := rs.Decode(make([]byte, 4), nil); err == nil {
		t.Error("short codeword accepted")
	}
	if _, err := rs.Decode(make([]byte, 20), []int{99}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
}

func TestRSCleanRoundTrip(t *testing.T) {
	rs := MustRS(10)
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		msg := randMsg(r, 1+r.Intn(200))
		cw, err := rs.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cw) != len(msg)+10 {
			t.Fatalf("codeword length %d", len(cw))
		}
		got, err := rs.Decode(append([]byte(nil), cw...), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("clean round trip mismatch")
		}
	}
}

func TestRSCorrectsErrors(t *testing.T) {
	rs := MustRS(16) // corrects up to 8 unknown errors
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		msg := randMsg(r, 50)
		cw, _ := rs.Encode(msg)
		nErr := 1 + r.Intn(8)
		corrupted := append([]byte(nil), cw...)
		positions := r.Perm(len(cw))[:nErr]
		for _, p := range positions {
			corrupted[p] ^= byte(1 + r.Intn(255))
		}
		got, err := rs.Decode(corrupted, nil)
		if err != nil {
			t.Fatalf("trial %d: %d errors not corrected: %v", trial, nErr, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("trial %d: wrong correction", trial)
		}
	}
}

func TestRSCorrectsErasures(t *testing.T) {
	rs := MustRS(16) // corrects up to 16 erasures
	r := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		msg := randMsg(r, 60)
		cw, _ := rs.Encode(msg)
		nEra := 1 + r.Intn(16)
		corrupted := append([]byte(nil), cw...)
		positions := r.Perm(len(cw))[:nEra]
		for _, p := range positions {
			corrupted[p] = 0
		}
		got, err := rs.Decode(corrupted, positions)
		if err != nil {
			t.Fatalf("trial %d: %d erasures not corrected: %v", trial, nEra, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("trial %d: wrong erasure correction", trial)
		}
	}
}

func TestRSCorrectsMixedErrata(t *testing.T) {
	rs := MustRS(16)
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		msg := randMsg(r, 40)
		cw, _ := rs.Encode(msg)
		// 2t + e <= 16.
		nEra := r.Intn(9)       // 0..8
		nErr := (16 - nEra) / 2 // max unknown errors
		if nErr > 0 {
			nErr = 1 + r.Intn(nErr)
		}
		perm := r.Perm(len(cw))
		corrupted := append([]byte(nil), cw...)
		erasures := perm[:nEra]
		for _, p := range erasures {
			corrupted[p] = byte(r.Intn(256))
		}
		for _, p := range perm[nEra : nEra+nErr] {
			corrupted[p] ^= byte(1 + r.Intn(255))
		}
		got, err := rs.Decode(corrupted, erasures)
		if err != nil {
			t.Fatalf("trial %d: e=%d t=%d: %v", trial, nEra, nErr, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("trial %d: wrong mixed correction (e=%d t=%d)", trial, nEra, nErr)
		}
	}
}

func TestRSRejectsBeyondCapacity(t *testing.T) {
	rs := MustRS(8)
	r := rng.New(6)
	failures := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(r, 40)
		cw, _ := rs.Encode(msg)
		corrupted := append([]byte(nil), cw...)
		for _, p := range r.Perm(len(cw))[:12] { // way beyond capacity 4
			corrupted[p] ^= byte(1 + r.Intn(255))
		}
		got, err := rs.Decode(corrupted, nil)
		if err != nil || !bytes.Equal(got, msg) {
			failures++
		}
	}
	// Beyond capacity the decoder must not silently "succeed" back to the
	// original message; miscorrections to *other* codewords are possible
	// but returning the true message would be a logic error.
	if failures != trials {
		t.Errorf("decoder recovered the true message beyond capacity in %d/%d trials", trials-failures, trials)
	}
}

func TestRSTooManyErasures(t *testing.T) {
	rs := MustRS(4)
	msg := []byte{1, 2, 3, 4, 5}
	cw, _ := rs.Encode(msg)
	if _, err := rs.Decode(cw, []int{0, 1, 2, 3, 4}); err == nil {
		t.Error("5 erasures accepted with 4 parity symbols")
	}
}

// oracleEncode is the long-division encoder the shift-register kernel
// replaced: msg·x^nsym divided by the generator, with a field multiply
// per generator coefficient per message byte.
func oracleEncode(nsym int, msg []byte) []byte {
	gen := []byte{1}
	for i := 0; i < nsym; i++ {
		gen = polyMul(gen, []byte{1, gfPow(2, i)})
	}
	rem := make([]byte, len(msg)+nsym)
	copy(rem, msg)
	for i := range msg {
		coef := rem[i]
		if coef == 0 {
			continue
		}
		for j := 1; j < len(gen); j++ {
			rem[i+j] ^= gfMul(gen[j], coef)
		}
	}
	copy(rem, msg)
	return rem
}

// oracleClean is the clean test the re-encoding check replaced: every
// syndrome cw(αⁱ), i < nsym, is zero.
func oracleClean(nsym int, cw []byte) bool {
	for i := 0; i < nsym; i++ {
		if polyEval(cw, gfPow(2, i)) != 0 {
			return false
		}
	}
	return true
}

// TestRSMatchesOracle checks the kernel against the oracle over every
// parity count and random message lengths: Encode gives the oracle's
// codeword, and the clean check agrees with the syndromes on the
// codeword, on it with one byte flipped, and on arbitrary bytes.
func TestRSMatchesOracle(t *testing.T) {
	r := rng.New(8)
	for trial := 0; trial < 4*254; trial++ {
		nsym := 1 + trial%254
		rs := MustRS(nsym)
		msg := randMsg(r, 1+r.Intn(255-nsym))
		cw, err := rs.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleEncode(nsym, msg); !bytes.Equal(cw, want) {
			t.Fatalf("nsym %d len %d: Encode differs from the oracle", nsym, len(msg))
		}
		if !rs.clean(cw) || !oracleClean(nsym, cw) {
			t.Fatalf("nsym %d: codeword not clean", nsym)
		}
		cw[r.Intn(len(cw))] ^= byte(1 + r.Intn(255))
		if rs.clean(cw) || oracleClean(nsym, cw) {
			t.Fatalf("nsym %d: one flipped byte reads as clean", nsym)
		}
		word := randMsg(r, nsym+1+r.Intn(255-nsym))
		if rs.clean(word) != oracleClean(nsym, word) {
			t.Fatalf("nsym %d: clean check disagrees with the syndromes on %x", nsym, word)
		}
	}
}

// TestRSAllocs gates the hot paths exactly: AppendEncode into a dst with
// room and DecodeDetail on a clean codeword allocate nothing.
func TestRSAllocs(t *testing.T) {
	for _, nsym := range []int{6, 8, 16, 128} {
		rs := MustRS(nsym)
		msg := randMsg(rng.New(9), 255-nsym)
		dst := make([]byte, 0, 255)
		if a := testing.AllocsPerRun(50, func() {
			if _, err := rs.AppendEncode(dst, msg); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("nsym %d: %v allocs per AppendEncode, want 0", nsym, a)
		}
		cw, _ := rs.AppendEncode(dst, msg)
		if a := testing.AllocsPerRun(50, func() {
			if _, n, err := rs.DecodeDetail(cw, nil); err != nil || n != 0 {
				t.Fatal(n, err)
			}
		}); a != 0 {
			t.Errorf("nsym %d: %v allocs per clean DecodeDetail, want 0", nsym, a)
		}
	}
}

func TestAppendEncodeExtendsDst(t *testing.T) {
	rs := MustRS(8)
	msg := []byte("hello gopher")
	out, err := rs.AppendEncode([]byte("head"), msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("head"), oracleEncode(8, msg)...); !bytes.Equal(out, want) {
		t.Errorf("AppendEncode = %x, want %x", out, want)
	}
	if out, err := rs.AppendEncode([]byte("head"), nil); err == nil || string(out) != "head" {
		t.Errorf("empty message: %q, %v", out, err)
	}
}
