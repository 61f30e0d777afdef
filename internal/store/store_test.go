package store

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dist"
	"dnastore/internal/rng"
)

func testPool(t *testing.T) *Pool {
	t.Helper()
	return New(Options{
		Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
		Seed:    7,
	})
}

func TestStoreAndRetrieveThroughNoise(t *testing.T) {
	p := testPool(t)
	docs := map[string][]byte{
		"alpha": bytes.Repeat([]byte("first object payload. "), 12),
		"beta":  bytes.Repeat([]byte("second object, different content! "), 9),
	}
	for k, v := range docs {
		if err := p.Store(k, v); err != nil {
			t.Fatalf("Store(%q): %v", k, err)
		}
	}
	if got := p.Keys(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Keys = %v", got)
	}
	if p.NumStrands() == 0 {
		t.Fatal("no designed strands")
	}

	ch := channel.NewNaive("seq", channel.NanoporeMix(0.02)).WithSpatial(dist.NanoporeSkew())
	reads := p.Sequence(ch, channel.FixedCoverage(12), 99)

	for k, want := range docs {
		got, err := p.Retrieve(k, reads)
		if err != nil {
			t.Fatalf("Retrieve(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Retrieve(%q): payload corrupted", k)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	p := testPool(t)
	if err := p.Store("", []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
	if err := p.Store("k", nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := p.Store("k", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("k", []byte("other")); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestRetrieveUnknownKey(t *testing.T) {
	p := testPool(t)
	if _, err := p.Retrieve("ghost", nil); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestRetrieveNoReads(t *testing.T) {
	p := testPool(t)
	if err := p.Store("k", []byte("payload data payload data")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retrieve("k", nil); err == nil {
		t.Error("retrieval with no reads succeeded")
	}
}

func TestPrimersAreDistinct(t *testing.T) {
	p := testPool(t)
	for i := 0; i < 6; i++ {
		if err := p.Store(string(rune('a'+i)), bytes.Repeat([]byte{byte(i + 1)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, pr := range p.primers {
		if seen[string(pr)] {
			t.Fatal("duplicate primer issued")
		}
		seen[string(pr)] = true
	}
	// Pairwise distance must exceed twice the mismatch budget.
	for i := range p.primers {
		for j := i + 1; j < len(p.primers); j++ {
			if _, ok := align.DistanceAtMost(string(p.primers[i]), string(p.primers[j]), 2*p.opts.PrimerMismatch+1); ok {
				t.Errorf("primers %d and %d too close", i, j)
			}
		}
	}
}

func TestSelectiveAmplificationIsolation(t *testing.T) {
	// Retrieving one key must not be corrupted by the other object's
	// strands sharing the pool.
	p := testPool(t)
	a := bytes.Repeat([]byte("AAAA-object "), 10)
	b := bytes.Repeat([]byte("BBBB-object "), 10)
	if err := p.Store("a", a); err != nil {
		t.Fatal(err)
	}
	if err := p.Store("b", b); err != nil {
		t.Fatal(err)
	}
	// Clean channel isolates the clustering/selection logic.
	reads := p.Sequence(channel.NewNaive("clean", channel.Rates{}), channel.FixedCoverage(5), 3)
	got, err := p.Retrieve("a", reads)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Error("object a corrupted in mixed pool")
	}
}

// TestRetrieveReportSameAtAnyGOMAXPROCS: the get path reconstructs
// clusters in parallel, so the bytes and the erasure report must not
// depend on how many threads run it.
func TestRetrieveReportSameAtAnyGOMAXPROCS(t *testing.T) {
	p := testPool(t)
	r := rng.New(11)
	keys := []string{"k0", "k1", "k2"}
	for _, k := range keys {
		data := make([]byte, 1024)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		if err := p.Store(k, data); err != nil {
			t.Fatal(err)
		}
	}
	ch := channel.NewNaive("seq", channel.NanoporeMix(0.04))
	reads := p.Sequence(ch, channel.NegBinCoverage{Mean: 10, Dispersion: 6}, 5)

	type result struct {
		data []byte
		rep  RetrieveReport
		err  string
	}
	retrieveAll := func(procs int) []result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out []result
		for _, k := range keys {
			data, rep, err := p.RetrieveReport(k, reads)
			res := result{data: data, rep: rep}
			if err != nil {
				res.err = err.Error()
			}
			out = append(out, res)
		}
		return out
	}
	one, four := retrieveAll(1), retrieveAll(4)
	noisy := false
	for i, k := range keys {
		noisy = noisy || one[i].rep.Repaired+one[i].rep.Erased > 0
		if !reflect.DeepEqual(one[i], four[i]) {
			t.Errorf("%s: GOMAXPROCS=1 gave %+v, GOMAXPROCS=4 gave %+v", k, one[i].rep, four[i].rep)
		}
	}
	if !noisy {
		t.Error("every key decoded clean; the channel is too quiet to exercise the report")
	}
}

// BenchmarkRetrieveReport times the decode half of one `dnastore get` on
// the store benchmark's pool shape: nine 1 KiB objects sequenced through
// NanoporeMix(0.02) at NegBin(14, 6) coverage, one object retrieved.
func BenchmarkRetrieveReport(b *testing.B) {
	p := New(Options{Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6}, Seed: 3})
	r := rng.New(9)
	for i := 0; i < 9; i++ {
		data := make([]byte, 1024)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		if err := p.Store(string(rune('a'+i)), data); err != nil {
			b.Fatal(err)
		}
	}
	reads := p.Sequence(channel.NewNaive("seq", channel.NanoporeMix(0.02)), channel.NegBinCoverage{Mean: 14, Dispersion: 6}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Retrieve("a", reads); err != nil {
			b.Fatal(err)
		}
	}
}
