package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dnastore/internal/codec"
)

// Reader decodes a container frame by frame, verifying every checksum and
// repairing payload damage within the Reed–Solomon parity budget as it
// goes. The header's kind decides the shape of the stream: a container
// ends at a verified footer, a journal at a frame boundary.
type Reader struct {
	br     *bufio.Reader
	kind   Kind
	parity int
	rs     *codec.RS
	index  int
	runCRC uint32
	// clean is the byte offset just past the last frame that verified.
	clean int64
	// end is the sticky result once the stream has ended.
	end error
}

// NewReader validates the container header. It returns ErrNotContainer for
// a file without the magic (legacy artifact) and ErrTruncated for a header
// cut short.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	kind, parity, err := parseHeader(br)
	if err != nil {
		return nil, err
	}
	rs, err := newRS(parity)
	if err != nil {
		return nil, err
	}
	return &Reader{br: br, kind: kind, parity: parity, rs: rs, clean: headerSize}, nil
}

// Kind returns the container kind declared in the header.
func (r *Reader) Kind() Kind { return r.kind }

// Parity returns the per-codeword Reed–Solomon parity symbol count.
func (r *Reader) Parity() int { return r.parity }

// Next returns the next frame, or (nil, io.EOF) once the stream ends
// cleanly: after a verified footer for a container, on a frame boundary
// for a journal. An unrecoverable frame comes back as (best-effort frame,
// *FrameError). A container reader stays usable after one, so callers can
// scan past rotten sections; in a journal, which has no footer to
// resynchronise against, the first damaged frame ends the stream and the
// next call returns ErrTruncated. A container that ends without a valid
// footer, or a journal torn mid-frame or carrying a damaged frame header
// or marker, yields ErrTruncated. Every other error is terminal.
func (r *Reader) Next() (*Frame, error) {
	if r.end != nil {
		return nil, r.end
	}
	journal := r.kind.Journal()
	marker, err := r.br.ReadByte()
	switch {
	case err == io.EOF && journal:
		return r.stop(io.EOF)
	case err != nil:
		return r.stop(ErrTruncated)
	case marker == frameMarker:
		frame, pcrc, err := readFrame(r.br, r.parity, r.rs, r.index)
		var fe *FrameError
		switch {
		case err == nil:
			r.clean += int64(frameSize(len(frame.Name), len(frame.Payload), r.parity))
		case !errors.As(err, &fe):
			if journal {
				return r.stop(ErrTruncated)
			}
			return r.stop(err)
		case journal:
			r.end = ErrTruncated
		}
		// The running CRC covers the *stored* payload CRCs, so repaired
		// and even unrecoverable frames keep the footer verifiable.
		r.index++
		r.runCRC = updateRunCRC(r.runCRC, pcrc)
		return frame, err
	case journal:
		return r.stop(ErrTruncated)
	case marker == footerMarker:
		return r.stop(r.footer())
	default:
		return r.stop(fmt.Errorf("durable: bad marker 0x%02x at frame %d", marker, r.index))
	}
}

// stop ends the stream with err, which every later Next returns too.
func (r *Reader) stop(err error) (*Frame, error) {
	r.end = err
	return nil, err
}

// footer verifies a container footer after its marker byte, returning
// io.EOF when it holds.
func (r *Reader) footer() error {
	rest := make([]byte, footerSize-1)
	if _, err := io.ReadFull(r.br, rest); err != nil {
		return ErrTruncated
	}
	count := binary.LittleEndian.Uint32(rest[:4])
	runCRC := binary.LittleEndian.Uint32(rest[4:8])
	if string(rest[8:]) != string(tailMagic[:]) {
		return ErrTruncated
	}
	if count != uint32(r.index) {
		return fmt.Errorf("durable: footer counts %d frames, read %d", count, r.index)
	}
	if runCRC != r.runCRC {
		return fmt.Errorf("durable: footer running checksum mismatch")
	}
	return io.EOF
}

// ReadAll decodes an entire container strictly: every frame must verify
// (after any parity repair) and the footer must be present and correct.
func ReadAll(r io.Reader) (Kind, []Frame, error) {
	rd, err := NewReader(r)
	if err != nil {
		return 0, nil, err
	}
	var frames []Frame
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return rd.Kind(), frames, nil
		}
		if err != nil {
			return rd.Kind(), nil, err
		}
		frames = append(frames, *f)
	}
}
