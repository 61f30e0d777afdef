package profile

import (
	"encoding/json"
	"io"

	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// JSON serialization of calibrated profiles, so an expensive profiling run
// over a large dataset can be stored alongside the data for external
// analysis (the "error dictionaries" that DNASimulator hard-codes — except
// fitted, versioned and reproducible). No program reads a profile back:
// dnasim -calibrate re-profiles its dataset on every run.

// serialProfile is the stable on-disk form of an ErrorProfile. Fields use
// explicit JSON names so the format survives internal refactors.
type serialProfile struct {
	Version        int                `json:"version"`
	StrandLen      int                `json:"strand_len"`
	Reads          int                `json:"reads"`
	RefBases       int                `json:"ref_bases"`
	SubCount       int                `json:"sub_count"`
	InsCount       int                `json:"ins_count"`
	DelCount       int                `json:"del_count"`
	LongDelStarts  int                `json:"long_del_starts"`
	LongDelBases   int                `json:"long_del_bases"`
	HomoBases      int                `json:"homo_bases"`
	HomoErrors     int                `json:"homo_errors"`
	BaseCounts     [dna.NumBases]int  `json:"base_counts"`
	SubPerBase     [dna.NumBases]int  `json:"sub_per_base"`
	InsPerBase     [dna.NumBases]int  `json:"ins_per_base"`
	DelPerBase     [dna.NumBases]int  `json:"del_per_base"`
	SubMatrix      [][]int            `json:"sub_matrix"`
	InsBases       [dna.NumBases]int  `json:"ins_bases"`
	LongDelLengths []int              `json:"long_del_lengths"`
	Spatial        []float64          `json:"spatial"`
	SecondOrder    []serialSObuiltRow `json:"second_order"`
}

type serialSObuiltRow struct {
	Kind    string    `json:"kind"` // "sub", "del", "ins"
	From    string    `json:"from,omitempty"`
	To      string    `json:"to,omitempty"`
	Count   int       `json:"count"`
	Spatial []float64 `json:"spatial,omitempty"`
}

// currentVersion is the serialization format version.
const currentVersion = 1

// WriteJSON serialises the profile.
func (p *ErrorProfile) WriteJSON(w io.Writer) error {
	sp := serialProfile{
		Version:        currentVersion,
		StrandLen:      p.StrandLen,
		Reads:          p.Reads,
		RefBases:       p.RefBases,
		SubCount:       p.SubCount,
		InsCount:       p.InsCount,
		DelCount:       p.DelCount,
		LongDelStarts:  p.LongDelStarts,
		LongDelBases:   p.LongDelBases,
		HomoBases:      p.HomoBases,
		HomoErrors:     p.HomoErrors,
		BaseCounts:     p.BaseCounts,
		SubPerBase:     p.SubPerBase,
		InsPerBase:     p.InsPerBase,
		DelPerBase:     p.DelPerBase,
		InsBases:       p.InsBases,
		LongDelLengths: p.LongDelLengths,
		Spatial:        p.Spatial,
	}
	sp.SubMatrix = make([][]int, dna.NumBases)
	for b := 0; b < dna.NumBases; b++ {
		sp.SubMatrix[b] = make([]int, dna.NumBases)
		for c := 0; c < dna.NumBases; c++ {
			sp.SubMatrix[b][c] = p.SubMatrix[b][c]
		}
	}
	for _, s := range p.SecondOrder {
		row := serialSObuiltRow{Kind: s.Kind.String(), Count: s.Count, Spatial: s.Spatial}
		if s.Kind != align.Ins {
			row.From = s.From.String()
		}
		if s.Kind != align.Del {
			row.To = s.To.String()
		}
		sp.SecondOrder = append(sp.SecondOrder, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sp)
}
