// Package profile implements the paper's data-driven parameter extraction
// (§2.3, §3.3): given reference strands and their noisy clusters, it
// recovers the maximum-likelihood edit script of every read (Appendix B),
// and aggregates the scripts into an ErrorProfile holding every statistic
// the simulator tiers need — aggregate and per-base conditional IDS rates,
// the substitution confusion matrix, the long-deletion length distribution,
// the spatial error histogram, and the second-order error table with
// per-error spatial histograms.
//
// The companion calibrate.go turns an ErrorProfile into the paper's four
// progressively richer channel models.
package profile

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// SecondOrderStat is one specific error — e.g. del(G) or sub(A→G) — with
// its occurrence count and spatial histogram (§3.3.3, Fig 3.6).
type SecondOrderStat struct {
	// Kind is align.Sub, align.Del or align.Ins.
	Kind align.OpKind
	// From is the reference base (Sub/Del); unset for Ins.
	From dna.Base
	// To is the produced base (Sub/Ins); unset for Del.
	To dna.Base
	// Count is the number of occurrences across all profiled reads.
	Count int
	// Spatial[p] counts occurrences at reference position p.
	Spatial []float64
}

// String renders the error in the paper's style.
func (s SecondOrderStat) String() string {
	e := channel.SecondOrderError{Kind: s.Kind, From: s.From, To: s.To}
	return fmt.Sprintf("%s ×%d", e.String(), s.Count)
}

// ErrorProfile aggregates every statistic extracted from a dataset.
type ErrorProfile struct {
	// StrandLen is the reference strand length the spatial histograms are
	// indexed by (profiles assume near-uniform reference lengths, as in
	// every dataset the paper uses).
	StrandLen int
	// Reads is the number of (reference, read) pairs profiled.
	Reads int
	// RefBases is the total number of reference bases consumed.
	RefBases int

	// SubCount, InsCount, DelCount, LongDelStarts are total error-event
	// counts; DelCount counts single (isolated) deletions only, and
	// LongDelBases the bases removed by bursts.
	SubCount, InsCount, DelCount int
	LongDelStarts, LongDelBases  int

	// BaseCounts[b] is how many times base b was consumed across reads —
	// the denominator of the conditional probabilities.
	BaseCounts [dna.NumBases]int
	// SubPerBase[b], InsPerBase[b], DelPerBase[b] count errors conditioned
	// on the base (insertions are attributed to the base they follow).
	SubPerBase, InsPerBase, DelPerBase [dna.NumBases]int
	// SubMatrix[b][c] counts substitutions of b by c.
	SubMatrix [dna.NumBases][dna.NumBases]int
	// InsBases[c] counts insertions of base c.
	InsBases [dna.NumBases]int
	// LongDelLengths[k] counts bursts of length MinLongDel+k.
	LongDelLengths []int
	// Spatial[p] counts all error events at reference position p.
	Spatial []float64
	// HomoBases counts reference positions inside homopolymer runs of
	// length >= 3 (across reads); HomoErrors counts error events at those
	// positions. Together with the complements they expose the
	// homopolymer error boost §1.2 describes.
	HomoBases, HomoErrors int
	// SecondOrder tallies every (kind, from, to) triple, sorted by
	// descending count after profiling.
	SecondOrder []SecondOrderStat
}

// MinLongDel is the burst threshold: consecutive deletions of at least this
// length count as one long deletion (§3.3.1 uses 2).
const MinLongDel = 2

// Options configure profiling.
type Options struct {
	// RandomizeScripts selects the paper's Appendix B tie-break: ambiguous
	// edit scripts are resolved uniformly at random (requires Seed).
	RandomizeScripts bool
	// Seed drives the randomized tie-breaks.
	Seed uint64
	// Affine extracts edit scripts under affine gap costs (Gotoh) instead
	// of unit costs: contiguous burst deletions stay grouped, sharpening
	// the fitted long-deletion statistics. Mutually exclusive with
	// RandomizeScripts. The costs are align.DefaultAffine().
	Affine bool
}

// Profile extracts the error profile of a dataset. Erasure clusters are
// skipped. It returns an error when the dataset contains no reads.
func Profile(ds *dataset.Dataset, opts Options) (*ErrorProfile, error) {
	strandLen := 0
	for _, c := range ds.Clusters {
		if c.Ref.Len() > strandLen {
			strandLen = c.Ref.Len()
		}
	}
	if strandLen == 0 || ds.NumReads() == 0 {
		return nil, fmt.Errorf("profile: dataset %q has no reads to profile", ds.Name)
	}
	if opts.Affine && opts.RandomizeScripts {
		return nil, fmt.Errorf("profile: Affine and RandomizeScripts are mutually exclusive")
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(ds.Clusters) {
		workers = len(ds.Clusters)
	}
	if workers < 1 {
		workers = 1
	}
	parts := make([]*ErrorProfile, workers)
	var wg sync.WaitGroup
	chunk := (len(ds.Clusters) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(ds.Clusters) {
			hi = len(ds.Clusters)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := newProfile(strandLen)
			so := make(map[soKey]*SecondOrderStat)
			ex := extractor{randomize: opts.RandomizeScripts, affine: opts.Affine}
			for i := lo; i < hi; i++ {
				c := ds.Clusters[i]
				if opts.RandomizeScripts {
					// Seeded from the seed and the cluster index, as the
					// simulator seeds a cluster, so the tie-breaks do not
					// depend on how the clusters were split among workers.
					ex.rng = rng.New(opts.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
				}
				for _, read := range c.Reads {
					p.addRead(c.Ref, read, ex, so)
				}
			}
			p.SecondOrder = flattenSO(so)
			parts[w] = p
		}(w, lo, hi)
	}
	wg.Wait()

	total := newProfile(strandLen)
	for _, p := range parts {
		if p != nil {
			total.merge(p)
		}
	}
	sort.Slice(total.SecondOrder, func(i, j int) bool {
		a, b := total.SecondOrder[i], total.SecondOrder[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		// Deterministic secondary order.
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return total, nil
}

type soKey struct {
	kind     align.OpKind
	from, to dna.Base
}

func newProfile(strandLen int) *ErrorProfile {
	return &ErrorProfile{
		StrandLen:      strandLen,
		LongDelLengths: make([]int, 8),
		Spatial:        make([]float64, strandLen+1),
	}
}

// extractor selects the edit-script extraction policy per worker.
type extractor struct {
	randomize bool
	affine    bool
	rng       *rng.RNG
}

// script extracts the edit script under the configured policy.
func (e extractor) script(ref, read dna.Strand) []align.Op {
	if e.affine {
		ops, err := align.AffineScript(string(ref), string(read), align.DefaultAffine())
		if err != nil {
			// DefaultAffine is valid; this is unreachable.
			panic(err)
		}
		return ops
	}
	return align.Script(string(ref), string(read), align.ScriptOptions{Randomize: e.randomize, RNG: e.rng})
}

// addRead extracts the edit script of one read and accumulates statistics.
func (p *ErrorProfile) addRead(ref, read dna.Strand, ex extractor, so map[soKey]*SecondOrderStat) {
	p.Reads++
	p.RefBases += ref.Len()
	for i := 0; i < ref.Len(); i++ {
		p.BaseCounts[ref.At(i)]++
	}
	// Mark homopolymer-run membership (runs >= 3) for the boost statistic.
	inRun := make([]bool, ref.Len())
	for _, run := range ref.Homopolymers(3) {
		for q := run.Pos; q < run.Pos+run.Len; q++ {
			inRun[q] = true
		}
		p.HomoBases += run.Len
	}
	ops := ex.script(ref, read)

	recordSO := func(kind align.OpKind, from, to dna.Base, pos int) {
		key := soKey{kind, from, to}
		s := so[key]
		if s == nil {
			s = &SecondOrderStat{Kind: kind, From: from, To: to, Spatial: make([]float64, p.StrandLen+1)}
			so[key] = s
		}
		s.Count++
		if pos > p.StrandLen {
			pos = p.StrandLen
		}
		s.Spatial[pos]++
	}
	spatial := func(pos int) {
		if pos >= 0 && pos < len(inRun) && inRun[pos] {
			p.HomoErrors++
		}
		if pos > p.StrandLen {
			pos = p.StrandLen
		}
		p.Spatial[pos]++
	}

	for k := 0; k < len(ops); k++ {
		op := ops[k]
		switch op.Kind {
		case align.Sub:
			from := dna.MustBase(op.RefBase)
			to := dna.MustBase(op.ReadBase)
			p.SubCount++
			p.SubPerBase[from]++
			p.SubMatrix[from][to]++
			spatial(op.RefPos)
			recordSO(align.Sub, from, to, op.RefPos)
		case align.Ins:
			to := dna.MustBase(op.ReadBase)
			p.InsCount++
			p.InsBases[to]++
			// Attribute the insertion to the base it follows.
			attach := op.RefPos - 1
			if attach < 0 {
				attach = 0
			}
			if attach < ref.Len() {
				p.InsPerBase[ref.At(attach)]++
			}
			spatial(op.RefPos)
			recordSO(align.Ins, 0, to, op.RefPos)
		case align.Del:
			// Measure the run of consecutive deletions.
			runLen := 1
			for k+runLen < len(ops) && ops[k+runLen].Kind == align.Del &&
				ops[k+runLen].RefPos == op.RefPos+runLen {
				runLen++
			}
			if runLen >= MinLongDel {
				p.LongDelStarts++
				p.LongDelBases += runLen
				idx := runLen - MinLongDel
				for idx >= len(p.LongDelLengths) {
					p.LongDelLengths = append(p.LongDelLengths, 0)
				}
				p.LongDelLengths[idx]++
				for q := 0; q < runLen; q++ {
					spatial(op.RefPos + q)
				}
			} else {
				from := dna.MustBase(op.RefBase)
				p.DelCount++
				p.DelPerBase[from]++
				spatial(op.RefPos)
				recordSO(align.Del, from, 0, op.RefPos)
			}
			k += runLen - 1
		}
	}
}

// merge folds another partial profile into p.
func (p *ErrorProfile) merge(q *ErrorProfile) {
	p.Reads += q.Reads
	p.RefBases += q.RefBases
	p.SubCount += q.SubCount
	p.InsCount += q.InsCount
	p.DelCount += q.DelCount
	p.LongDelStarts += q.LongDelStarts
	p.LongDelBases += q.LongDelBases
	p.HomoBases += q.HomoBases
	p.HomoErrors += q.HomoErrors
	for b := 0; b < dna.NumBases; b++ {
		p.BaseCounts[b] += q.BaseCounts[b]
		p.SubPerBase[b] += q.SubPerBase[b]
		p.InsPerBase[b] += q.InsPerBase[b]
		p.DelPerBase[b] += q.DelPerBase[b]
		p.InsBases[b] += q.InsBases[b]
		for c := 0; c < dna.NumBases; c++ {
			p.SubMatrix[b][c] += q.SubMatrix[b][c]
		}
	}
	for i, v := range q.LongDelLengths {
		for i >= len(p.LongDelLengths) {
			p.LongDelLengths = append(p.LongDelLengths, 0)
		}
		p.LongDelLengths[i] += v
	}
	for i, v := range q.Spatial {
		if i < len(p.Spatial) {
			p.Spatial[i] += v
		} else {
			p.Spatial[len(p.Spatial)-1] += v
		}
	}
	// Merge second-order tables.
	idx := make(map[soKey]int, len(p.SecondOrder))
	for i, s := range p.SecondOrder {
		idx[soKey{s.Kind, s.From, s.To}] = i
	}
	for _, s := range q.SecondOrder {
		key := soKey{s.Kind, s.From, s.To}
		if i, ok := idx[key]; ok {
			p.SecondOrder[i].Count += s.Count
			for j, v := range s.Spatial {
				if j < len(p.SecondOrder[i].Spatial) {
					p.SecondOrder[i].Spatial[j] += v
				}
			}
		} else {
			cp := s
			cp.Spatial = append([]float64(nil), s.Spatial...)
			idx[key] = len(p.SecondOrder)
			p.SecondOrder = append(p.SecondOrder, cp)
		}
	}
}

func flattenSO(so map[soKey]*SecondOrderStat) []SecondOrderStat {
	out := make([]SecondOrderStat, 0, len(so))
	for _, s := range so {
		out = append(out, *s)
	}
	return out
}

// AggregateRate returns the total error events per reference base,
// counting a long-deletion burst once per deleted base.
func (p *ErrorProfile) AggregateRate() float64 {
	if p.RefBases == 0 {
		return 0
	}
	return float64(p.SubCount+p.InsCount+p.DelCount+p.LongDelBases) / float64(p.RefBases)
}

// Rates returns the aggregate naive-simulator parameters: the three IDS
// probabilities with all deletions (single and burst bases) folded into
// Del, as a naive simulator models them.
func (p *ErrorProfile) Rates() channel.Rates {
	if p.RefBases == 0 {
		return channel.Rates{}
	}
	n := float64(p.RefBases)
	return channel.Rates{
		Sub: float64(p.SubCount) / n,
		Ins: float64(p.InsCount) / n,
		Del: float64(p.DelCount+p.LongDelBases) / n,
	}
}

// PerBaseRates returns the conditional P(err-type | base) table, excluding
// long-deletion bursts (modelled separately).
func (p *ErrorProfile) PerBaseRates() [dna.NumBases]channel.Rates {
	var out [dna.NumBases]channel.Rates
	for b := 0; b < dna.NumBases; b++ {
		n := float64(p.BaseCounts[b])
		if n == 0 {
			continue
		}
		out[b] = channel.Rates{
			Sub: float64(p.SubPerBase[b]) / n,
			Ins: float64(p.InsPerBase[b]) / n,
			Del: float64(p.DelPerBase[b]) / n,
		}
	}
	return out
}

// LongDeletion returns the burst model measured from the data.
func (p *ErrorProfile) LongDeletion() channel.LongDeletion {
	ld := channel.LongDeletion{MinLen: MinLongDel}
	if p.RefBases == 0 {
		return ld
	}
	ld.Prob = float64(p.LongDelStarts) / float64(p.RefBases)
	weights := make([]float64, 0, len(p.LongDelLengths))
	last := -1
	for i, c := range p.LongDelLengths {
		if c > 0 {
			last = i
		}
		weights = append(weights, float64(c))
	}
	if last < 0 {
		return channel.LongDeletion{MinLen: MinLongDel}
	}
	ld.LengthWeights = weights[:last+1]
	return ld
}

// SubConfusion returns the normalised substitution confusion matrix
// P(to | sub of from); rows with no observations are all zero.
func (p *ErrorProfile) SubConfusion() [dna.NumBases][dna.NumBases]float64 {
	var out [dna.NumBases][dna.NumBases]float64
	for b := 0; b < dna.NumBases; b++ {
		total := 0
		for c := 0; c < dna.NumBases; c++ {
			total += p.SubMatrix[b][c]
		}
		if total == 0 {
			continue
		}
		for c := 0; c < dna.NumBases; c++ {
			out[b][c] = float64(p.SubMatrix[b][c]) / float64(total)
		}
	}
	return out
}

// InsDistribution returns the normalised distribution of inserted bases.
func (p *ErrorProfile) InsDistribution() [dna.NumBases]float64 {
	var out [dna.NumBases]float64
	total := 0
	for _, c := range p.InsBases {
		total += c
	}
	if total == 0 {
		return out
	}
	for b, c := range p.InsBases {
		out[b] = float64(c) / float64(total)
	}
	return out
}

// SpatialHistogram returns the per-position error counts trimmed to the
// strand length (the one-past-end bin is folded into the final position).
func (p *ErrorProfile) SpatialHistogram() []float64 {
	if p.StrandLen == 0 {
		return nil
	}
	out := make([]float64, p.StrandLen)
	copy(out, p.Spatial[:p.StrandLen])
	out[p.StrandLen-1] += p.Spatial[p.StrandLen]
	return out
}

// HomopolymerErrorRatio returns how much likelier an error event is at a
// position inside a homopolymer run (length >= 3) than outside one; 1
// means no boost. It returns 0 when the dataset has no run positions.
func (p *ErrorProfile) HomopolymerErrorRatio() float64 {
	if p.HomoBases == 0 || p.RefBases <= p.HomoBases {
		return 0
	}
	totalErrors := p.SubCount + p.InsCount + p.DelCount + p.LongDelBases
	outErrors := totalErrors - p.HomoErrors
	inRate := float64(p.HomoErrors) / float64(p.HomoBases)
	outRate := float64(outErrors) / float64(p.RefBases-p.HomoBases)
	if outRate == 0 {
		return 0
	}
	return inRate / outRate
}

// TopSecondOrder returns the k most frequent specific errors.
func (p *ErrorProfile) TopSecondOrder(k int) []SecondOrderStat {
	if k > len(p.SecondOrder) {
		k = len(p.SecondOrder)
	}
	return p.SecondOrder[:k]
}

// SecondOrderShare returns the fraction of all error events covered by the
// top-k specific errors (the paper measures 56% for k=10).
func (p *ErrorProfile) SecondOrderShare(k int) float64 {
	total := p.SubCount + p.InsCount + p.DelCount
	if total == 0 {
		return 0
	}
	covered := 0
	for _, s := range p.TopSecondOrder(k) {
		covered += s.Count
	}
	return float64(covered) / float64(total)
}

// Summary renders the headline statistics on a few lines.
func (p *ErrorProfile) Summary() string {
	ld := p.LongDeletion()
	return fmt.Sprintf(
		"reads %d, ref bases %d, aggregate %.4f (sub %.4f, ins %.4f, del %.4f), long-del p=%.4f mean len %.2f, top-10 second-order share %.1f%%",
		p.Reads, p.RefBases, p.AggregateRate(),
		p.Rates().Sub, p.Rates().Ins, p.Rates().Del,
		ld.Prob, ld.MeanLen(), 100*p.SecondOrderShare(10))
}
