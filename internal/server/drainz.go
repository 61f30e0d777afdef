package server

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
)

// Drainz is the handoff inventory served by GET /drainz: the
// fingerprint-named simulation checkpoint journals sitting in this
// instance's data directory. On a shared data dir, a peer (typically the
// fleet coordinator re-placing a dead node's shard) reads this to learn
// which work is resumable here — each journal binds to a spec fingerprint,
// so resubmitting the matching spec anywhere with the same data dir turns
// into a resume rather than a recompute.
type Drainz struct {
	Phase   Phase  `json:"phase"`
	DataDir string `json:"data_dir"`
	// Journals lists every sim-<fingerprint>.ckpt found, sorted by
	// fingerprint. Entries whose fingerprint matches a job this process
	// knows carry that job's ID and state; the rest are orphans — journals
	// left by a previous process (or a dead peer) that a resubmission of
	// the matching spec will pick up.
	Journals []DrainJournal `json:"journals"`
}

// DrainJournal is one checkpoint journal in the Drainz inventory.
type DrainJournal struct {
	// Fingerprint is the 16-hex-digit spec fingerprint from the filename.
	Fingerprint string `json:"fingerprint"`
	// File is the journal's filename inside DataDir.
	File string `json:"file"`
	// JobID and State identify the in-memory job bound to this journal,
	// when this process has one; both empty for an orphaned journal.
	JobID string `json:"job_id,omitempty"`
	State string `json:"state,omitempty"`
}

// DrainzSnapshot builds the current handoff inventory. A server without a
// data dir has no durable state to hand off and reports an empty list.
func (s *Server) DrainzSnapshot() Drainz {
	dz := Drainz{Phase: s.Phase(), DataDir: s.cfg.DataDir, Journals: []DrainJournal{}}
	if s.cfg.DataDir == "" {
		return dz
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return dz
	}
	byFP := make(map[string]*Job)
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.Spec.Kind == KindSimulate && j.Spec.Simulate != nil {
			byFP[fmt.Sprintf("%016x", j.Spec.Simulate.Fingerprint())] = j
		}
	}
	s.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		fp, ok := strings.CutPrefix(name, "sim-")
		if !ok {
			continue
		}
		if fp, ok = strings.CutSuffix(fp, ".ckpt"); !ok || len(fp) != 16 {
			continue
		}
		dj := DrainJournal{Fingerprint: fp, File: name}
		if j, ok := byFP[fp]; ok {
			dj.JobID = j.ID
			dj.State = string(j.State())
		}
		dz.Journals = append(dz.Journals, dj)
	}
	sort.Slice(dz.Journals, func(i, k int) bool {
		return dz.Journals[i].Fingerprint < dz.Journals[k].Fingerprint
	})
	return dz
}

func (s *Server) handleDrainz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.DrainzSnapshot())
}
