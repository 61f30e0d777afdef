package codec

import (
	"bytes"
	"fmt"
	"sort"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Archive encodes whole byte payloads into indexed DNA strands and decodes
// them back after sequencing and reconstruction — the file layout of a DNA
// archival store (§1.1 steps 1–2 and 6). Each strand carries:
//
//	[ index | payload chunk | RS strand parity ]
//
// encoded with the Trivial2Bit mapping. Logical redundancy operates at two
// levels, mirroring deployed systems:
//
//   - per-strand Reed–Solomon parity detects and corrects residual
//     substitutions that survive trace reconstruction (corruption);
//   - cross-strand Reed–Solomon groups reconstruct strands lost entirely
//     (erasures) or too corrupted to decode, as in Grass et al. [12].
type Archive struct {
	// PayloadBytes is the data bytes carried per strand (default 20).
	PayloadBytes int
	// StrandParity is the per-strand RS parity byte count (default 4).
	StrandParity int
	// GroupData and GroupParity configure the cross-strand erasure code:
	// every GroupData data strands gain GroupParity parity strands
	// (defaults 16 and 4).
	GroupData, GroupParity int
}

// indexBytes is the fixed width of the strand index prefix (supports 2³²
// strands, orders of magnitude beyond any single-pool experiment).
const indexBytes = 4

// totalBytes is the fixed width of the per-strand total-chunk-count field.
// Every strand carries the pool layout so decoding never has to infer it
// from the (possibly erased) highest-indexed strand.
const totalBytes = 4

func (a Archive) payloadBytes() int {
	if a.PayloadBytes <= 0 {
		return 20
	}
	return a.PayloadBytes
}

func (a Archive) strandParity() int {
	if a.StrandParity <= 0 {
		return 4
	}
	return a.StrandParity
}

func (a Archive) group() (int, int) {
	d, p := a.GroupData, a.GroupParity
	if d <= 0 {
		d = 16
	}
	if p <= 0 {
		p = 4
	}
	return d, p
}

// Encode lays the payload out into DNA strands. The returned strands are
// ordered by index: data strands first, then group parity strands.
func (a Archive) Encode(data []byte) ([]dna.Strand, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("codec: empty payload")
	}
	pb := a.payloadBytes()
	gd, gp := a.group()

	// Split into fixed-size chunks, zero-padded; a 4-byte length header in
	// the first chunk restores the exact payload size.
	header := []byte{
		byte(len(data) >> 24), byte(len(data) >> 16), byte(len(data) >> 8), byte(len(data)),
	}
	payload := append(header, data...)
	nChunks := (len(payload) + pb - 1) / pb
	chunks := make([][]byte, 0, nChunks+((nChunks+gd-1)/gd)*gp)
	for i := 0; i < nChunks; i++ {
		chunk := make([]byte, pb)
		copy(chunk, payload[i*pb:min(len(payload), (i+1)*pb)])
		// Whiten so repetitive payloads yield mutually dissimilar strands;
		// without this, identical chunks produce identical strands that a
		// similarity clusterer cannot tell apart.
		whiten(chunk, i)
		chunks = append(chunks, chunk)
	}

	// Cross-strand parity: for each group of gd chunks, add gp parity
	// chunks computed column-wise by RS.
	groupRS, err := NewRS(gp)
	if err != nil {
		return nil, err
	}
	nGroups := (nChunks + gd - 1) / gd
	for g := 0; g < nGroups; g++ {
		start := g * gd
		end := start + gd
		if end > nChunks {
			end = nChunks
		}
		parity := make([][]byte, gp)
		for p := range parity {
			parity[p] = make([]byte, pb)
		}
		col := make([]byte, end-start)
		for c := 0; c < pb; c++ {
			for r := start; r < end; r++ {
				col[r-start] = chunks[r][c]
			}
			cw, err := groupRS.Encode(col)
			if err != nil {
				return nil, err
			}
			for p := 0; p < gp; p++ {
				parity[p][c] = cw[len(col)+p]
			}
		}
		chunks = append(chunks, parity...)
	}

	// Per-strand encoding with index, layout descriptor and strand-level
	// parity.
	strandRS, err := NewRS(a.strandParity())
	if err != nil {
		return nil, err
	}
	total := len(chunks)
	out := make([]dna.Strand, len(chunks))
	for i, chunk := range chunks {
		rec := make([]byte, 0, indexBytes+totalBytes+len(chunk))
		rec = append(rec, byte(i>>24), byte(i>>16), byte(i>>8), byte(i))
		rec = append(rec, byte(total>>24), byte(total>>16), byte(total>>8), byte(total))
		rec = append(rec, chunk...)
		cw, err := strandRS.Encode(rec)
		if err != nil {
			return nil, err
		}
		out[i] = Trivial2Bit{}.Encode(cw)
	}
	return out, nil
}

// DecodeReport details per-strand outcomes of a Decode pass. Strand and
// chunk are synonymous here: every designed strand carries exactly one
// chunk, so the indexes below are designed-strand indexes.
type DecodeReport struct {
	// Strands is the number of reconstructed strands presented.
	Strands int
	// Undecodable counts presented strands whose codeword failed base
	// decoding or per-strand RS entirely (treated as erased).
	Undecodable int
	// TotalChunks is the layout total (data + parity) from the majority
	// vote, 0 when no strand decoded.
	TotalChunks int
	// Clean counts chunks recovered with zero RS corrections.
	Clean int
	// Repaired counts chunks that needed per-strand RS correction.
	Repaired int
	// Erased counts chunks missing entirely but rebuilt from group parity.
	Erased int
	// Unrecovered lists chunk indexes lost beyond parity capacity.
	Unrecovered []int
}

// Recovered reports whether every chunk was accounted for.
func (r *DecodeReport) Recovered() bool { return r.TotalChunks > 0 && len(r.Unrecovered) == 0 }

// Decode reassembles the payload from reconstructed strands (in any order,
// with duplicates, missing strands and residual errors tolerated up to the
// configured redundancy).
func (a Archive) Decode(strands []dna.Strand) ([]byte, error) {
	data, _, err := a.DecodeReport(strands)
	return data, err
}

// DecodeReport is Decode that also returns a per-strand erasure/repair
// report. The report is always non-nil, including on failure, so callers
// can surface which strands were lost; unrecoverable groups are all
// collected rather than aborting at the first.
func (a Archive) DecodeReport(strands []dna.Strand) ([]byte, *DecodeReport, error) {
	report := &DecodeReport{Strands: len(strands)}
	pb := a.payloadBytes()
	gd, gp := a.group()
	strandRS, err := NewRS(a.strandParity())
	if err != nil {
		return nil, report, err
	}
	groupRS, err := NewRS(gp)
	if err != nil {
		return nil, report, err
	}

	recLen := indexBytes + totalBytes + pb + a.strandParity()
	chunks := map[int][]byte{}
	repaired := map[int]bool{}
	// A garbled reconstruction occasionally RS-miscorrects into a "valid"
	// record carrying a junk index. Junk indexes are uniform over 2³², so
	// bounding by a small multiple of the observed strand count rejects
	// almost all of them while never rejecting a genuine index.
	maxPlausible := 2*len(strands) + 64
	totalVotes := map[int]int{}
	for _, s := range strands {
		cw, err := Trivial2Bit{}.Decode(s)
		if err != nil || len(cw) != recLen {
			report.Undecodable++
			continue // undecodable strand: treat as erased
		}
		rec, nCorrected, err := strandRS.DecodeDetail(cw, nil)
		if err != nil {
			report.Undecodable++
			continue // beyond per-strand parity: erased
		}
		idx := int(rec[0])<<24 | int(rec[1])<<16 | int(rec[2])<<8 | int(rec[3])
		tot := int(rec[4])<<24 | int(rec[5])<<16 | int(rec[6])<<8 | int(rec[7])
		if idx < 0 || idx >= maxPlausible || tot <= idx || tot >= maxPlausible {
			continue
		}
		totalVotes[tot]++
		if _, dup := chunks[idx]; !dup {
			chunks[idx] = append([]byte(nil), rec[indexBytes+totalBytes:]...)
			repaired[idx] = nCorrected > 0
		}
	}
	if len(chunks) == 0 {
		return nil, report, fmt.Errorf("codec: no decodable strands")
	}

	// The layout descriptor is replicated on every strand; take the
	// majority vote so a rare miscorrected record cannot misframe the
	// groups.
	total, bestVotes := 0, 0
	for tot, v := range totalVotes {
		if v > bestVotes || (v == bestVotes && tot > total) {
			total, bestVotes = tot, v
		}
	}
	nChunks := dataChunkCount(total, gd, gp)
	if nChunks <= 0 {
		return nil, report, fmt.Errorf("codec: inconsistent strand count %d", total)
	}
	report.TotalChunks = total
	for idx, wasRepaired := range repaired {
		if idx >= total {
			continue // junk index that slipped past plausibility bounds
		}
		if wasRepaired {
			report.Repaired++
		} else {
			report.Clean++
		}
	}

	// Group-level erasure recovery. Unrecoverable groups are recorded and
	// skipped so the report names every lost strand, not just the first
	// failing group's.
	nGroups := (nChunks + gd - 1) / gd
	for g := 0; g < nGroups; g++ {
		start := g * gd
		end := start + gd
		if end > nChunks {
			end = nChunks
		}
		rows := make([]int, 0, end-start+gp)
		for r := start; r < end; r++ {
			rows = append(rows, r)
		}
		for p := 0; p < gp; p++ {
			rows = append(rows, nChunks+g*gp+p)
		}
		var missing []int
		for i, r := range rows {
			if chunks[r] == nil {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			continue
		}
		if len(missing) > gp {
			for _, i := range missing {
				report.Unrecovered = append(report.Unrecovered, rows[i])
			}
			continue
		}
		// Column-wise erasure decode.
		recovered := make([][]byte, len(rows))
		for i := range recovered {
			if chunks[rows[i]] != nil {
				recovered[i] = chunks[rows[i]]
			} else {
				recovered[i] = make([]byte, pb)
			}
		}
		groupOK := true
		for c := 0; c < pb; c++ {
			col := make([]byte, len(rows))
			for i := range rows {
				col[i] = recovered[i][c]
			}
			if _, err := groupRS.Decode(col, missing); err != nil {
				groupOK = false
				break
			}
			for i := range rows {
				recovered[i][c] = col[i]
			}
		}
		if !groupOK {
			for _, i := range missing {
				report.Unrecovered = append(report.Unrecovered, rows[i])
			}
			continue
		}
		report.Erased += len(missing)
		for i, r := range rows {
			if chunks[r] == nil {
				chunks[r] = recovered[i]
			}
		}
	}
	if len(report.Unrecovered) > 0 {
		sort.Ints(report.Unrecovered)
		return nil, report, fmt.Errorf("codec: %d strands unrecoverable (indexes %v)",
			len(report.Unrecovered), report.Unrecovered)
	}

	// Reassemble the payload, undoing the per-chunk whitening.
	var buf bytes.Buffer
	for i := 0; i < nChunks; i++ {
		if chunks[i] == nil {
			return nil, report, fmt.Errorf("codec: chunk %d missing after recovery", i)
		}
		whiten(chunks[i], i) // XOR keystream is an involution
		buf.Write(chunks[i])
	}
	payload := buf.Bytes()
	if len(payload) < 4 {
		return nil, report, fmt.Errorf("codec: payload too short for header")
	}
	size := int(payload[0])<<24 | int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
	if size < 0 || size > len(payload)-4 {
		return nil, report, fmt.Errorf("codec: corrupt payload size %d", size)
	}
	return payload[4 : 4+size], report, nil
}

// dataChunkCount inverts total = n + ceil(n/gd)*gp for the data count n.
func dataChunkCount(total, gd, gp int) int {
	// total grows monotonically with n; binary search.
	lo, hi := 1, total
	for lo < hi {
		mid := (lo + hi) / 2
		t := mid + ((mid+gd-1)/gd)*gp
		switch {
		case t == total:
			return mid
		case t < total:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	if lo+((lo+gd-1)/gd)*gp == total {
		return lo
	}
	return -1
}

// StrandLength returns the designed strand length (bases) for this layout:
// four bases per record byte.
func (a Archive) StrandLength() int {
	return 4 * (indexBytes + totalBytes + a.payloadBytes() + a.strandParity())
}

// whiten XORs a chunk with a SplitMix64 keystream keyed by the strand
// index. Applied before the group parity is computed (parity chunks are
// already pseudorandom and are not whitened); XOR makes it self-inverse.
func whiten(chunk []byte, idx int) {
	state := uint64(idx)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range chunk {
		state += 0x9e3779b97f4a7c15
		chunk[i] ^= byte(rng.Mix64(state))
	}
}
