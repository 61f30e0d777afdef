package align

import (
	"strings"
	"testing"
	"testing/quick"

	"dnastore/internal/rng"
)

func TestDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACGT", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"AGTC", "ATC", 1},
		{"AGCG", "AGG", 1},
		{"KITTEN", "SITTING", 3},
		{"FLAW", "LAWN", 2},
		{"ACGTACGT", "TGCATGCA", 6},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Distance(c.b, c.a); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestDistanceAtMost(t *testing.T) {
	cases := []struct {
		a, b string
		k    int
		d    int
		ok   bool
	}{
		{"KITTEN", "SITTING", 3, 3, true},
		{"KITTEN", "SITTING", 2, 0, false},
		{"ACGT", "ACGT", 0, 0, true},
		{"ACGT", "TTTT", 1, 0, false},
		{"", "", 0, 0, true},
		{"AAAA", "", 3, 0, false},
		{"AAAA", "", 4, 4, true},
		{"ACGTACGTAC", "ACGACGTAC", 1, 1, true},
	}
	for _, c := range cases {
		d, ok := DistanceAtMost(c.a, c.b, c.k)
		if ok != c.ok {
			t.Errorf("DistanceAtMost(%q,%q,%d) ok = %v, want %v", c.a, c.b, c.k, ok, c.ok)
			continue
		}
		if ok && d != c.d {
			t.Errorf("DistanceAtMost(%q,%q,%d) = %d, want %d", c.a, c.b, c.k, d, c.d)
		}
	}
	if Similar("ACGT", "ACGA", 1) != true {
		t.Error("Similar failed")
	}
	if _, ok := DistanceAtMost("A", "T", -1); ok {
		t.Error("negative k should fail")
	}
}

func TestDistanceAtMostMatchesDistanceQuick(t *testing.T) {
	r := rng.New(99)
	f := func(la, lb, kRaw uint8) bool {
		a := randStrand(r, int(la%30))
		b := randStrand(r, int(lb%30))
		k := int(kRaw % 12)
		want := levenshteinOracle(a, b)
		d, ok := DistanceAtMost(a, b, k)
		if want <= k {
			return ok && d == want
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// levenshteinOracle is the textbook full-matrix Levenshtein DP, the
// reference every distance kernel is checked against.
func levenshteinOracle(a, b string) int {
	cols := len(b) + 1
	d := make([]int, (len(a)+1)*cols)
	for j := 0; j <= len(b); j++ {
		d[j] = j
	}
	for i := 1; i <= len(a); i++ {
		d[i*cols] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i*cols+j] = min(d[(i-1)*cols+j-1]+cost, d[(i-1)*cols+j]+1, d[i*cols+j-1]+1)
		}
	}
	return d[len(a)*cols+len(b)]
}

// bandedDistanceAtMost is the banded Ukkonen DP that DistanceAtMost ran
// before the bit-parallel kernel, kept as a second oracle for the
// (d, ok) contract.
func bandedDistanceAtMost(a, b string, k int) (int, bool) {
	if k < 0 {
		return k + 1, false
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)-len(b) > k {
		return k + 1, false
	}
	n := len(b)
	if n == 0 {
		return len(a), true
	}
	const inf = int(^uint(0) >> 2)
	row := make([]int, n+1)
	for j := 0; j <= n; j++ {
		if j <= k {
			row[j] = j
		} else {
			row[j] = inf
		}
	}
	for i := 1; i <= len(a); i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > n {
			hi = n
		}
		if lo > hi {
			return k + 1, false
		}
		prev := row[lo-1] // diagonal for j = lo
		if lo-1 == 0 {
			row[0] = i // column 0 cost
			if i > k {
				row[0] = inf
			}
		}
		if lo > 1 {
			row[lo-1] = inf // outside band on this row
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := inf
			if prev < inf {
				best = prev + cost
			}
			if cur < inf && cur+1 < best {
				best = cur + 1
			}
			if row[j-1] < inf && row[j-1]+1 < best {
				best = row[j-1] + 1
			}
			row[j] = best
			if best < rowMin {
				rowMin = best
			}
			prev = cur
		}
		if hi < n {
			row[hi+1] = inf
		}
		if rowMin > k {
			return k + 1, false
		}
	}
	if row[n] > k {
		return k + 1, false
	}
	return row[n], true
}

// checkAgainstOracle compares Distance, DistanceAtMost and Similar on
// (a, b, k) with want, the oracle's distance, and with the banded DP.
func checkAgainstOracle(t *testing.T, a, b string, k, want int) {
	t.Helper()
	if got := Distance(a, b); got != want {
		t.Fatalf("Distance(%q, %q) = %d, want %d", a, b, got, want)
	}
	wantD, wantOK := want, want <= k
	if !wantOK {
		wantD = k + 1
	}
	d, ok := DistanceAtMost(a, b, k)
	if d != wantD || ok != wantOK {
		t.Fatalf("DistanceAtMost(%q, %q, %d) = (%d, %v), want (%d, %v)", a, b, k, d, ok, wantD, wantOK)
	}
	if bd, bok := bandedDistanceAtMost(a, b, k); bd != d || bok != ok {
		t.Fatalf("banded DP (%d, %v) and DistanceAtMost (%d, %v) disagree on (%q, %q, %d)", bd, bok, d, ok, a, b, k)
	}
	if Similar(a, b, k) != wantOK {
		t.Fatalf("Similar(%q, %q, %d) = %v, want %v", a, b, k, !wantOK, wantOK)
	}
}

// mutate applies n random substitutions, insertions and deletions to s,
// drawing inserted and substituted bytes from alpha.
func mutate(r *rng.RNG, s, alpha string, n int) string {
	b := []byte(s)
	for e := 0; e < n; e++ {
		c := alpha[r.Intn(len(alpha))]
		switch p := r.Intn(len(b) + 1); {
		case r.Bool(1.0/3) && p < len(b):
			b[p] = c
		case r.Bool(0.5) && p < len(b):
			b = append(b[:p], b[p+1:]...)
		default:
			b = append(b[:p], append([]byte{c}, b[p:]...)...)
		}
	}
	return string(b)
}

// TestDistanceAtMostDifferential checks the bit-parallel kernel against
// both oracles on strands whose lengths straddle the 64-row word
// boundaries and the 512-symbol stack budget, on near and far pairs, over
// k < 0, k = 0, k around the distance and k ≥ the longer length, with
// empty strings and bytes outside ACGT.
func TestDistanceAtMostDifferential(t *testing.T) {
	r := rng.New(2024)
	lengths := []int{0, 1, 2, 31, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 511, 512, 513, 700}
	alphabets := []string{"ACGT", "ACGT", "ACGTN", "AC", "ACGTNnx\x00\xff-*"}
	for trial := 0; trial < 400; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		la := lengths[r.Intn(len(lengths))]
		if trial%3 == 0 {
			la = r.Intn(600)
		}
		a := randOver(r, alpha, la)
		var b string
		switch trial % 4 {
		case 0: // unrelated
			b = randOver(r, alpha, lengths[r.Intn(len(lengths))])
		case 1: // empty
			b = ""
		default: // a noisy copy
			b = mutate(r, a, alpha, r.Intn(la/4+3))
		}
		if r.Bool(0.5) {
			a, b = b, a
		}
		d := levenshteinOracle(a, b)
		longest := max(len(a), len(b))
		for _, k := range []int{-2, -1, 0, 1, d - 1, d, d + 1, r.Intn(longest + 2), longest, longest + 5} {
			checkAgainstOracle(t, a, b, k, d)
		}
	}
}

// FuzzDistanceAtMost checks DistanceAtMost, Distance and Similar against
// the full-matrix oracle on arbitrary bytes.
func FuzzDistanceAtMost(f *testing.F) {
	f.Add("KITTEN", "SITTING", 3)
	f.Add("", "ACGT", 4)
	f.Add("ACGT", "", -1)
	f.Add(strings.Repeat("ACGT", 20), strings.Repeat("ACGA", 20), 0)
	f.Add(strings.Repeat("ACGTN", 30), strings.Repeat("TGCA", 33), 60)
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		// Keep the quadratic oracle cheap.
		if len(a) > 700 || len(b) > 700 || k < -3 || k > 1000 {
			t.Skip()
		}
		checkAgainstOracle(t, a, b, k, levenshteinOracle(a, b))
	})
}

// TestDistanceAtMostNoAlloc: strands up to 512 nt, hit or miss, run the
// kernel entirely on the stack — the clustering hot loop calls it ~10k
// times per get.
func TestDistanceAtMostNoAlloc(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{20, 142, 512} {
		x := randStrand(r, n)
		near := mutate(r, x, "ACGT", n/20+1)
		far := randStrand(r, n+1)
		k := n / 4
		if _, ok := DistanceAtMost(x, near, k); !ok {
			t.Fatalf("n=%d: near copy missed", n)
		}
		if _, ok := DistanceAtMost(x, far, k); ok {
			t.Fatalf("n=%d: unrelated strand hit", n)
		}
		if a := testing.AllocsPerRun(100, func() {
			DistanceAtMost(x, near, k)
			DistanceAtMost(x, far, k)
			Distance(x, far)
		}); a != 0 {
			t.Errorf("n=%d: %.1f allocs per run, want 0", n, a)
		}
	}
}

func randOver(r *rng.RNG, alpha string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func randStrand(r *rng.RNG, n int) string {
	const alpha = "ACGT"
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[r.Intn(4)])
	}
	return sb.String()
}

func TestScriptDeterministic(t *testing.T) {
	ref, read := "AGCG", "AGG"
	ops := Script(ref, read, ScriptOptions{})
	if CostOf(ops) != 1 {
		t.Fatalf("cost = %d, want 1; ops = %+v", CostOf(ops), ops)
	}
	got, err := Apply(ref, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got != read {
		t.Errorf("Apply = %q, want %q", got, read)
	}
}

func TestScriptRoundTripQuick(t *testing.T) {
	r := rng.New(7)
	f := func(la, lb uint8) bool {
		ref := randStrand(r, int(la%40))
		read := randStrand(r, int(lb%40))
		ops := Script(ref, read, ScriptOptions{})
		if CostOf(ops) != Distance(ref, read) {
			return false
		}
		got, err := Apply(ref, ops)
		return err == nil && got == read
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestScriptRandomizedRoundTrip(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 200; trial++ {
		ref := randStrand(r, 20+r.Intn(20))
		read := randStrand(r, 20+r.Intn(20))
		ops := Script(ref, read, ScriptOptions{Randomize: true, RNG: r})
		if CostOf(ops) != Distance(ref, read) {
			t.Fatalf("randomized script cost %d != distance %d", CostOf(ops), Distance(ref, read))
		}
		got, err := Apply(ref, ops)
		if err != nil || got != read {
			t.Fatalf("randomized apply = %q (%v), want %q", got, err, read)
		}
	}
}

func TestScriptRandomizedVaries(t *testing.T) {
	// "AAC" -> "AC" admits two minimum scripts (delete either A); the
	// randomized policy should produce both.
	r := rng.New(5)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		ops := Script("AAC", "AC", ScriptOptions{Randomize: true, RNG: r})
		key := ""
		for _, op := range ops {
			key += op.Kind.String() + ","
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Errorf("randomized traceback produced only %d distinct scripts", len(seen))
	}
}

func TestScriptRandomizePanicsWithoutRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Script("AG", "GA", ScriptOptions{Randomize: true})
}

func TestScriptPositions(t *testing.T) {
	// ref: A G T C, read: A T C  => deletion of G at ref pos 1, read pos 1.
	ops := Script("AGTC", "ATC", ScriptOptions{})
	var dels []Op
	for _, op := range ops {
		if op.Kind == Del {
			dels = append(dels, op)
		}
	}
	if len(dels) != 1 {
		t.Fatalf("got %d deletions, want 1: %+v", len(dels), ops)
	}
	if dels[0].RefPos != 1 || dels[0].RefBase != 'G' || dels[0].ReadPos != 1 {
		t.Errorf("deletion op = %+v, want refpos 1, base G, readpos 1", dels[0])
	}
}

func TestScriptInsertionPositions(t *testing.T) {
	// ref: AC, read: ATC => insertion of T before ref pos 1, read pos 1.
	ops := Script("AC", "ATC", ScriptOptions{})
	var ins []Op
	for _, op := range ops {
		if op.Kind == Ins {
			ins = append(ins, op)
		}
	}
	if len(ins) != 1 {
		t.Fatalf("got %d insertions: %+v", len(ins), ops)
	}
	if ins[0].RefPos != 1 || ins[0].ReadBase != 'T' || ins[0].ReadPos != 1 {
		t.Errorf("insertion op = %+v", ins[0])
	}
}

func TestApplyRejectsBadScript(t *testing.T) {
	ops := Script("ACGT", "ACG", ScriptOptions{})
	if _, err := Apply("TTTT", ops); err == nil {
		t.Error("Apply with wrong reference should fail")
	}
	if _, err := Apply("ACGTA", ops); err == nil {
		t.Error("Apply with under-consumed reference should fail")
	}
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{Equal: "eq", Sub: "sub", Del: "del", Ins: "ins"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if OpKind(9).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	ai, bi, l := longestCommonSubstring("WIKIMEDIA", "WIKIMANIA")
	if l != 5 || ai != 0 || bi != 0 { // "WIKIM"
		t.Errorf("LCS = (%d,%d,%d), want (0,0,5)", ai, bi, l)
	}
	_, _, l = longestCommonSubstring("ABC", "XYZ")
	if l != 0 {
		t.Errorf("LCS of disjoint strings = %d", l)
	}
}

func TestMatchingBlocksWikipediaExample(t *testing.T) {
	// Paper Fig 3.1: WIKIMEDIA vs WIKIMANIA share WIKIM, then IA.
	blocks := MatchingBlocks("WIKIMEDIA", "WIKIMANIA")
	km := 0
	for _, b := range blocks {
		km += b.Len
		if "WIKIMEDIA"[b.APos:b.APos+b.Len] != "WIKIMANIA"[b.BPos:b.BPos+b.Len] {
			t.Errorf("block %+v does not match", b)
		}
	}
	if km != 7 { // WIKIM + IA
		t.Errorf("total matched = %d, want 7", km)
	}
	score := GestaltScore("WIKIMEDIA", "WIKIMANIA")
	want := 2.0 * 7 / 18
	if score != want {
		t.Errorf("GestaltScore = %v, want %v", score, want)
	}
}

func TestGestaltScoreBounds(t *testing.T) {
	if GestaltScore("", "") != 1 {
		t.Error("empty/empty should score 1")
	}
	if GestaltScore("ACGT", "ACGT") != 1 {
		t.Error("identical should score 1")
	}
	if GestaltScore("AAAA", "TTTT") != 0 {
		t.Error("disjoint should score 0")
	}
}

func TestGestaltScoreSymmetricInLengthQuick(t *testing.T) {
	r := rng.New(21)
	f := func(la, lb uint8) bool {
		a := randStrand(r, int(la%25))
		b := randStrand(r, int(lb%25))
		s := GestaltScore(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGestaltErrorPositionsPaperExample(t *testing.T) {
	// ref = AGTC, read = ATC: single gestalt error at read position 1
	// (deletion of G), whereas Hamming flags positions 1, 2 and the
	// missing final character.
	g := GestaltErrorPositions("AGTC", "ATC")
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("gestalt errors = %v, want [1]", g)
	}
	h := HammingErrorPositions("AGTC", "ATC")
	if len(h) != 3 {
		t.Errorf("hamming errors = %v, want 3 entries", h)
	}
}

func TestGestaltErrorsBoundDistanceQuick(t *testing.T) {
	// The gestalt error count is the cost of one particular valid edit
	// script (per gap: substitute the overlap, indel the excess), so it is
	// always >= the Levenshtein distance, and its positions lie within the
	// read (plus the one-past-end slot used for trailing deletions).
	r := rng.New(33)
	f := func(la, lb uint8) bool {
		a := randStrand(r, int(la%30)+1)
		b := randStrand(r, int(lb%30)+1)
		g := GestaltErrorPositions(a, b)
		if len(g) < Distance(a, b) {
			return false
		}
		for _, p := range g {
			if p < 0 || p > len(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGestaltLowerThanHammingOnNoisyCopies(t *testing.T) {
	// Paper §3.2: for reads that are genuinely noisy copies of a reference
	// (the only case the comparison is used for), the gestalt-aligned error
	// magnitude is lower than the Hamming magnitude, because a single early
	// indel inflates every downstream Hamming position.
	r := rng.New(34)
	for trial := 0; trial < 200; trial++ {
		ref := randStrand(r, 60)
		// Apply 1-3 indels plus up to 2 substitutions.
		read := []byte(ref)
		nIndels := 1 + r.Intn(3)
		for e := 0; e < nIndels && len(read) > 1; e++ {
			p := r.Intn(len(read))
			if r.Bool(0.5) {
				read = append(read[:p], read[p+1:]...)
			} else {
				read = append(read[:p], append([]byte{"ACGT"[r.Intn(4)]}, read[p:]...)...)
			}
		}
		g := len(GestaltErrorPositions(ref, string(read)))
		h := len(HammingErrorPositions(ref, string(read)))
		if g > h {
			t.Fatalf("gestalt (%d) > hamming (%d) for noisy copy\nref  %s\nread %s", g, h, ref, read)
		}
	}
}

func TestGestaltErrorsOnIdentical(t *testing.T) {
	if g := GestaltErrorPositions("ACGT", "ACGT"); len(g) != 0 {
		t.Errorf("identical strands yield gestalt errors %v", g)
	}
	if h := HammingErrorPositions("ACGT", "ACGT"); len(h) != 0 {
		t.Errorf("identical strands yield hamming errors %v", h)
	}
}

func TestGestaltErrorsSubstitution(t *testing.T) {
	// ref = ACGT, read = ATGT: substitution C->T at position 1.
	g := GestaltErrorPositions("ACGT", "ATGT")
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("gestalt errors = %v, want [1]", g)
	}
}

func TestGestaltErrorsInsertionAtEnd(t *testing.T) {
	g := GestaltErrorPositions("ACG", "ACGT")
	if len(g) != 1 || g[0] != 3 {
		t.Errorf("gestalt errors = %v, want [3]", g)
	}
}

func TestHammingErrorsLengthMismatch(t *testing.T) {
	// read longer than ref: extra positions are errors.
	h := HammingErrorPositions("AC", "ACGT")
	if len(h) != 2 || h[0] != 2 || h[1] != 3 {
		t.Errorf("hamming errors = %v, want [2 3]", h)
	}
	// ref longer than read: errors at read end.
	h = HammingErrorPositions("ACGT", "AC")
	if len(h) != 2 || h[0] != 2 || h[1] != 2 {
		t.Errorf("hamming errors = %v, want [2 2]", h)
	}
}

func TestMatchingBlocksOrdered(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 100; trial++ {
		a := randStrand(r, 30)
		b := randStrand(r, 30)
		blocks := MatchingBlocks(a, b)
		prevA, prevB := -1, -1
		for _, blk := range blocks {
			if blk.APos <= prevA || blk.BPos <= prevB {
				t.Fatalf("blocks not strictly ordered: %+v", blocks)
			}
			if a[blk.APos:blk.APos+blk.Len] != b[blk.BPos:blk.BPos+blk.Len] {
				t.Fatalf("block content mismatch: %+v", blk)
			}
			prevA = blk.APos + blk.Len - 1
			prevB = blk.BPos + blk.Len - 1
		}
	}
}

func BenchmarkDistance110(b *testing.B) {
	r := rng.New(1)
	x := randStrand(r, 110)
	y := randStrand(r, 110)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

// sinkInt keeps benchmarked results alive.
var sinkInt int

// BenchmarkDistanceAtMost142 times one clustering comparison of the
// store workload: a 142-nt representative against a 143-nt read at the
// default threshold k = 35, for a noisy copy (hit) and an unrelated
// strand (miss).
func BenchmarkDistanceAtMost142(b *testing.B) {
	r := rng.New(4)
	x := randStrand(r, 142)
	for _, c := range []struct {
		name string
		y    string
	}{
		{"hit", mutate(r, x+"A", "ACGT", 6)},
		{"miss", randStrand(r, 143)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, _ := DistanceAtMost(x, c.y, 35)
				sinkInt += d
			}
		})
	}
}

func BenchmarkScript110(b *testing.B) {
	r := rng.New(2)
	x := randStrand(r, 110)
	y := randStrand(r, 110)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Script(x, y, ScriptOptions{})
	}
}

func BenchmarkGestaltBlocks110(b *testing.B) {
	r := rng.New(3)
	x := randStrand(r, 110)
	y := randStrand(r, 110)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchingBlocks(x, y)
	}
}
