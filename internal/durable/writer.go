package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dnastore/internal/codec"
)

// Writer streams a container: header on construction, one frame per
// WriteFrame, footer on Close. It performs no buffering of its own — hand
// it a *bufio.Writer (or use WriteFileAtomic / CreateFile) for efficiency.
type Writer struct {
	w      io.Writer
	rs     *codec.RS
	parity int
	frames uint32
	runCRC uint32
	closed bool
}

// NewWriter writes the container header and returns a writer for its
// frames.
func NewWriter(w io.Writer, kind Kind, opts Options) (*Writer, error) {
	rs, err := newRS(opts.Parity)
	if err != nil {
		return nil, err
	}
	hdr := encodeHeader(kind, opts.Parity)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w, rs: rs, parity: opts.Parity}, nil
}

// WriteFrame appends one named section.
func (w *Writer) WriteFrame(name string, payload []byte) error {
	if w.closed {
		return fmt.Errorf("durable: write to closed container")
	}
	frame, err := encodeFrame(name, payload, w.parity, w.rs)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(frame); err != nil {
		return err
	}
	w.frames++
	// The frame's last four bytes are its stored payload CRC; folding
	// them from the frame keeps WriteFrame to the frame's one allocation.
	w.runCRC = crc32.Update(w.runCRC, castagnoli, frame[len(frame)-4:])
	return nil
}

// Close writes the footer, committing the container. A container without a
// footer is treated as torn by every reader.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var f [footerSize]byte
	f[0] = footerMarker
	binary.LittleEndian.PutUint32(f[1:], w.frames)
	binary.LittleEndian.PutUint32(f[5:], w.runCRC)
	copy(f[9:], tailMagic[:])
	_, err := w.w.Write(f[:])
	return err
}
