package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"dnastore/internal/codec"
)

// Journal is an append-only container without a footer, for state that
// grows while a process runs (simulation checkpoints). Each Append writes
// one fsynced frame, so a crash loses at most the frame being written —
// and OpenJournal discards that torn tail, leaving every prior frame
// intact.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	kind   Kind
	parity int
	rs     *codec.RS
	closed bool
}

// CreateJournal creates (or truncates) a journal file and durably writes
// its header.
func CreateJournal(path string, kind Kind, opts Options) (*Journal, error) {
	if opts.Parity < 0 || opts.Parity > MaxParity {
		return nil, fmt.Errorf("durable: parity %d out of [0,%d]", opts.Parity, MaxParity)
	}
	var rs *codec.RS
	if opts.Parity > 0 {
		var err error
		rs, err = codec.NewRS(opts.Parity)
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	hdr := encodeHeader(kind, opts.Parity)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, kind: kind, parity: opts.Parity, rs: rs}, nil
}

// countingReader counts bytes consumed from the underlying reader, so the
// journal scan can locate the last clean frame boundary under a
// bufio.Reader (consumed = counted − buffered).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// OpenJournal opens an existing journal for append, returning every intact
// frame. The scan stops at the first sign of damage — a torn tail from a
// crash mid-append, or a corrupt frame — and truncates the file back to
// the last clean frame boundary, so subsequent Appends extend a valid
// prefix. Callers re-derive whatever the dropped tail held.
func OpenJournal(path string) (*Journal, []Frame, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	kind, parity, err := parseHeader(br)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var rs *codec.RS
	if parity > 0 {
		rs, err = codec.NewRS(parity)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	good := cr.n - int64(br.Buffered())
	var frames []Frame
	for {
		marker, err := br.ReadByte()
		if err != nil {
			break
		}
		if marker != frameMarker {
			break
		}
		frame, _, err := readFrame(br, parity, rs, len(frames))
		if err != nil {
			// Torn or rotten tail: drop this frame and everything after.
			break
		}
		frames = append(frames, *frame)
		good = cr.n - int64(br.Buffered())
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, kind: kind, parity: parity, rs: rs}, frames, nil
}

// Kind returns the journal's container kind.
func (j *Journal) Kind() Kind { return j.kind }

// Append durably writes one frame: the write is followed by fsync before
// Append returns, so a committed frame survives any later crash.
func (j *Journal) Append(name string, payload []byte) error {
	frame, err := encodeFrame(name, payload, j.parity, j.rs)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return os.ErrClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	return j.f.Sync()
}

// AppendNoSync writes one frame without forcing it to disk. A crash may
// lose every frame since the last synced write — OpenJournal's torn-tail
// scan discards the loss cleanly — so this is only for frames whose
// content the owner can re-derive (progress hints, not commitments). A
// later Append or Close makes the frame durable.
func (j *Journal) AppendNoSync(name string, payload []byte) error {
	frame, err := encodeFrame(name, payload, j.parity, j.rs)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return os.ErrClosed
	}
	_, err = j.f.Write(frame)
	return err
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
