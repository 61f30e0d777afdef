package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"dnastore/internal/durable"
)

// File-level pool persistence. SaveFile wraps the JSON snapshot in a
// durable container — checksummed, parity-protected, atomically committed —
// while LoadFile transparently accepts both containers and legacy bare-JSON
// pools written before the container format existed.

// poolFrame names the snapshot section inside a pool container.
const poolFrame = "pool.json"

// SaveFile atomically writes the pool to path as a durable container with
// default Reed–Solomon parity. A crash mid-save leaves any previous file
// untouched.
func (p *Pool) SaveFile(path string) error {
	return durable.WriteContainerFile(path, durable.KindPool,
		durable.Options{Parity: durable.DefaultParity},
		func(w *durable.Writer) error {
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				return err
			}
			return w.WriteFrame(poolFrame, buf.Bytes())
		})
}

// LoadFile reads a pool from path. Container files are verified (and
// silently repaired in memory when bit rot is within the parity budget);
// files without the container magic fall back to the legacy bare-JSON
// loader and return legacy=true so callers can nudge the operator to
// re-save. The file is opened once and read in one pass (a legacy file is
// re-read from its start after the container sniff).
func LoadFile(path string) (p *Pool, legacy bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	p, legacy, err = load(f)
	if err != nil {
		return nil, legacy, fmt.Errorf("store: %s: %w", path, err)
	}
	return p, legacy, nil
}

// load sniffs container versus legacy JSON and decodes either; a
// container must be a pool container holding the pool section.
func load(r io.ReadSeeker) (*Pool, bool, error) {
	kind, frames, err := durable.ReadAll(r)
	if errors.Is(err, durable.ErrNotContainer) {
		if _, err := r.Seek(0, io.SeekStart); err != nil {
			return nil, true, err
		}
		p, err := Load(r)
		return p, true, err
	}
	if err != nil {
		return nil, false, err
	}
	if kind != durable.KindPool {
		return nil, false, fmt.Errorf("holds a %s container, want %s", kind, durable.KindPool)
	}
	for _, fr := range frames {
		if fr.Name == poolFrame {
			p, err := Load(bytes.NewReader(fr.Payload))
			return p, false, err
		}
	}
	return nil, false, fmt.Errorf("container has no %q section", poolFrame)
}
