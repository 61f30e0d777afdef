package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dnastore/internal/durable"
	"dnastore/internal/server"
)

// The write-ahead job ledger: one durable.Journal per admitted job,
// fingerprint-named under <DataDir>/ledger/. The "accepted" frame is
// fsynced before the client ever sees 202, so an accepted job survives
// any later coordinator crash; shard state transitions are appended as
// unsynced hints (recovery re-derives them, so losing the tail costs
// nothing but log detail); the terminal frame is fsynced again so a
// finished job stays finished across a restart.
//
// Replay is idempotent by construction: a ledger file is the whole record
// of one job, keyed by job ID, and recovery adopts each file exactly once.
// A torn tail — the crash hitting mid-append — is dropped by
// durable.OpenJournal's frame-boundary truncation; a file torn before its
// accepted frame describes a job whose 202 never reached the client, and
// is deleted (the client's resubmission re-derives it).

// ledgerParity protects ledger frames against bit rot on top of the
// per-frame checksums (same budget as checkpoint journals).
const ledgerParity = 8

// Frame names inside a job ledger.
const (
	ledgerAcceptedFrame = "accepted"
	ledgerShardFrame    = "shard"
	ledgerFinishedFrame = "finished"
	ledgerReplayedFrame = "replayed"
)

// ledgerAccepted is the admission record — everything recovery needs to
// re-derive the job: identity, idempotency binding, spec, and the shard
// split in force when the job was planned.
type ledgerAccepted struct {
	ID            string         `json:"id"`
	Key           string         `json:"key,omitempty"`
	CreatedUnixMS int64          `json:"created_unix_ms"`
	ShardClusters int            `json:"shard_clusters,omitempty"`
	Spec          server.JobSpec `json:"spec"`
}

// ledgerShardEvent is one shard state transition: placed → done / failed /
// resumed, plus cache and erased verdicts.
type ledgerShardEvent struct {
	Index int    `json:"index"`
	Event string `json:"event"`
	Node  string `json:"node,omitempty"`
	Key   string `json:"shard_key,omitempty"`
	Error string `json:"error,omitempty"`
}

// ledgerFinished is the terminal record.
type ledgerFinished struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// jobLedger is one job's open ledger journal. All methods are safe on a
// nil receiver (no DataDir → no ledger) and never fail the job: after the
// accepted frame is down, ledger trouble is logged and survived — the
// worst case is a recovery that recomputes more than it had to.
type jobLedger struct {
	path string
	j    *durable.Journal
	slog *slog.Logger
}

func (l *jobLedger) append(name string, v any, sync bool) {
	if l == nil || l.j == nil {
		return
	}
	payload, err := json.Marshal(v)
	if err == nil {
		if sync {
			err = l.j.Append(name, payload)
		} else {
			err = l.j.AppendNoSync(name, payload)
		}
	}
	if err != nil && !errors.Is(err, os.ErrClosed) {
		// os.ErrClosed means drain already sealed the file; anything else
		// is a real disk complaint worth an operator's attention.
		l.slog.Warn("ledger append failed", "ledger", l.path, "frame", name, "error", err)
	}
}

// shardEvent journals one shard transition (unsynced hint).
func (l *jobLedger) shardEvent(ev ledgerShardEvent) {
	l.append(ledgerShardFrame, ev, false)
}

// finish journals the terminal state (fsynced) and closes the file.
func (l *jobLedger) finish(state server.JobState, errStr string) {
	l.append(ledgerFinishedFrame, ledgerFinished{State: string(state), Error: errStr}, true)
	l.close()
}

// replayed marks a re-adoption, so the file records how many restarts the
// job rode through.
func (l *jobLedger) replayed() {
	l.append(ledgerReplayedFrame, ledgerFinished{}, true)
}

func (l *jobLedger) close() {
	if l == nil || l.j == nil {
		return
	}
	if err := l.j.Close(); err != nil {
		l.slog.Warn("ledger close failed", "ledger", l.path, "error", err)
	}
}

// ledgerRecord is one job replayed from disk.
type ledgerRecord struct {
	accepted ledgerAccepted
	finished *ledgerFinished
	led      *jobLedger // open for append: re-adoption continues the file
}

// ledgerKeep bounds how many terminal job ledgers are retained for
// replay/audit before FIFO pruning.
const ledgerKeep = 512

// ledgerStore owns the ledger directory: create-on-admit, replay-on-boot,
// and FIFO pruning of terminal job ledgers.
type ledgerStore struct {
	dir  string
	slog *slog.Logger

	mu      sync.Mutex
	retired []string // terminal ledger paths, oldest first
}

func openLedgerStore(dir string, logger *slog.Logger) (*ledgerStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: ledger dir: %w", err)
	}
	return &ledgerStore{dir: dir, slog: logger}, nil
}

// ledgerFileName names a job's ledger by spec fingerprint plus job ID; the
// fingerprint makes the file self-describing and greppable against worker
// checkpoint journals, the ID keeps deliberate duplicate submissions of
// one spec (fresh Idempotency-Keys) from colliding.
func ledgerFileName(fp uint64, id string) string {
	return fmt.Sprintf("job-%016x-%s.wal", fp, id)
}

// create opens a new job ledger and durably writes its accepted frame.
// When create returns nil error, the admission is on disk.
func (s *ledgerStore) create(a ledgerAccepted) (*jobLedger, error) {
	path := filepath.Join(s.dir, ledgerFileName(a.Spec.Fingerprint(), a.ID))
	j, err := durable.CreateJournal(path, durable.KindLedger, durable.Options{Parity: ledgerParity})
	if err != nil {
		return nil, fmt.Errorf("fleet: job ledger: %w", err)
	}
	payload, err := json.Marshal(a)
	if err == nil {
		err = j.Append(ledgerAcceptedFrame, payload)
	}
	if err != nil {
		j.Close()
		os.Remove(path)
		return nil, fmt.Errorf("fleet: job ledger: %w", err)
	}
	return &jobLedger{path: path, j: j, slog: s.slog}, nil
}

// replay scans the ledger directory and reconstructs every job it can
// vouch for. Files whose header or accepted frame did not survive the
// crash are deleted: their 202 never committed, so the job never existed
// as far as any client knows. Torn tails past the accepted frame are
// truncated by OpenJournal and the job is re-derived from what remains.
// A container of another kind is skipped and left as it is. Records come
// back oldest-first.
func (s *ledgerStore) replay() ([]*ledgerRecord, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var recs []*ledgerRecord
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		rec, ok := s.replayOne(path)
		if !ok {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].accepted.CreatedUnixMS < recs[j].accepted.CreatedUnixMS
	})
	return recs, nil
}

func (s *ledgerStore) replayOne(path string) (*ledgerRecord, bool) {
	j, frames, err := durable.OpenJournal(path, durable.KindLedger)
	if errors.Is(err, durable.ErrWrongKind) {
		// Another kind's container: not ours to adopt or to delete, and
		// OpenJournal left it untouched.
		s.slog.Warn("skipping non-ledger container in ledger dir", "ledger", path, "error", err)
		return nil, false
	}
	if err != nil {
		// Torn before the header committed, or not a journal at all:
		// nothing to adopt, nothing a client was promised.
		s.slog.Warn("dropping unreadable job ledger", "ledger", path, "error", err)
		os.Remove(path)
		return nil, false
	}
	rec := &ledgerRecord{led: &jobLedger{path: path, j: j, slog: s.slog}}
	for _, f := range frames {
		switch f.Name {
		case ledgerAcceptedFrame:
			if rec.accepted.ID == "" {
				if err := json.Unmarshal(f.Payload, &rec.accepted); err != nil {
					rec.accepted = ledgerAccepted{}
				}
			}
		case ledgerFinishedFrame:
			var fin ledgerFinished
			if err := json.Unmarshal(f.Payload, &fin); err == nil {
				rec.finished = &fin
			}
		}
	}
	if rec.accepted.ID == "" {
		// The accepted frame is the 202 commitment; without it the file
		// is a half-admission the crash interrupted before any client
		// could learn the job ID. Never half-adopt: delete.
		s.slog.Warn("dropping job ledger with no accepted frame (crash before 202)", "ledger", path)
		j.Close()
		os.Remove(path)
		return nil, false
	}
	return rec, true
}

// retire registers a terminal job's ledger for FIFO pruning and deletes
// the oldest retirees beyond ledgerKeep.
func (s *ledgerStore) retire(path string) {
	if s == nil || path == "" {
		return
	}
	s.mu.Lock()
	s.retired = append(s.retired, path)
	var drop []string
	if n := len(s.retired) - ledgerKeep; n > 0 {
		drop = append(drop, s.retired[:n]...)
		s.retired = append(s.retired[:0], s.retired[n:]...)
	}
	s.mu.Unlock()
	for _, p := range drop {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			s.slog.Warn("pruning retired ledger failed", "ledger", p, "error", err)
		}
	}
}
