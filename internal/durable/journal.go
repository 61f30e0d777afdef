package durable

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is an append-only container without a footer, for state that
// grows while a process runs (simulation checkpoints, the coordinator's job
// ledger). Each Append writes one fsynced frame, so a crash loses at most
// the frame being written — and OpenJournal discards that torn tail,
// leaving every prior frame intact.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	// w encodes frames into f; the journal never closes it, since a
	// footer would end the journal.
	w      *Writer
	closed bool
}

// CreateJournal creates (or truncates) a journal file of a journal kind
// and durably writes its header.
func CreateJournal(path string, kind Kind, opts Options) (*Journal, error) {
	if !kind.Journal() {
		return nil, fmt.Errorf("durable: %s is not a journal kind", kind)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, kind, opts)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &Journal{f: f, w: w}, nil
}

// OpenJournal opens an existing journal of kind want for append, returning
// every intact frame. A file that is a container of another kind, journal
// or not, is refused with ErrWrongKind before anything is truncated or
// written. Otherwise the scan stops at the first sign of damage — a torn
// tail from a crash mid-append, or a corrupt frame — and truncates the
// file back to the last clean frame boundary, so subsequent Appends extend
// a valid prefix. Callers re-derive whatever the dropped tail held.
func OpenJournal(path string, want Kind) (_ *Journal, frames []Frame, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	rd, err := NewReader(f)
	if err != nil {
		return nil, nil, err
	}
	if rd.kind != want || !want.Journal() {
		return nil, nil, fmt.Errorf("%w: %s is a %s container, not a %s journal", ErrWrongKind, path, rd.kind, want)
	}
	for {
		// A clean end, a torn tail or a rotten frame: keep the prefix.
		fr, err := rd.Next()
		if err != nil {
			break
		}
		frames = append(frames, *fr)
	}
	if err := f.Truncate(rd.clean); err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(rd.clean, io.SeekStart); err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, w: &Writer{w: f, rs: rd.rs, parity: rd.parity}}, frames, nil
}

// Append durably writes one frame: the write is followed by fsync before
// Append returns, so a committed frame survives any later crash.
func (j *Journal) Append(name string, payload []byte) error {
	return j.append(name, payload, true)
}

// AppendNoSync writes one frame without forcing it to disk. A crash may
// lose every frame since the last synced write — OpenJournal's torn-tail
// scan discards the loss cleanly — so this is only for frames whose
// content the owner can re-derive (progress hints, not commitments). A
// later Append or Close makes the frame durable.
func (j *Journal) AppendNoSync(name string, payload []byte) error {
	return j.append(name, payload, false)
}

func (j *Journal) append(name string, payload []byte, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return os.ErrClosed
	}
	if err := j.w.WriteFrame(name, payload); err != nil || !sync {
		return err
	}
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
