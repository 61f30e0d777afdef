package durable

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"

	"dnastore/internal/codec"
)

// A journal is a container without a footer, so the generic Scrub — which
// treats "stream ended before a valid footer" as a torn write — would
// report every healthy journal as truncated. ScrubJournal knows the
// journal contract: the stream is healthy when it ends exactly on a frame
// boundary, and only a partial trailing frame is a torn tail. That torn
// tail is the one damage class journals tolerate by design (OpenJournal
// drops it), so the report distinguishes it from mid-stream corruption.

// ScrubJournal walks a journal stream, verifying the header and every
// frame checksum with parity repair, like Scrub but under journal rules:
//
//   - ending exactly after the last complete frame is clean, not torn;
//   - a partial trailing frame sets Truncated — recoverable damage that
//     OpenJournal discards on the next open;
//   - a corrupt frame body (checksum failure beyond parity) is reported
//     as a corrupt section; everything after it is unreachable because a
//     journal has no footer to resynchronise against, so the scan stops.
//
// Report.Intact is the verdict for a journal too: it checks no footer,
// only that nothing was truncated, damaged or unreadable.
func ScrubJournal(r io.Reader) *Report {
	rep := &Report{}
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	kind, parity, err := parseHeader(br)
	switch {
	case errors.Is(err, ErrNotContainer):
		rep.Legacy = true
		return rep
	case errors.Is(err, ErrTruncated):
		rep.Truncated = true
		return rep
	case err != nil:
		rep.ScanErr = err
		return rep
	}
	rep.Kind, rep.Parity = kind, parity
	var rs *codec.RS
	if parity > 0 {
		rs, err = codec.NewRS(parity)
		if err != nil {
			rep.ScanErr = err
			return rep
		}
	}
	for {
		marker, err := br.ReadByte()
		if err == io.EOF {
			// Ended on a frame boundary: the healthy journal shape.
			return rep
		}
		if err != nil {
			rep.ScanErr = err
			return rep
		}
		if marker != frameMarker {
			// A journal has no footer; any non-frame byte is a torn or
			// overwritten tail.
			rep.Truncated = true
			return rep
		}
		frame, _, err := readFrame(br, parity, rs, len(rep.Sections))
		var fe *FrameError
		switch {
		case errors.As(err, &fe):
			rep.Sections = append(rep.Sections, Section{
				Index: fe.Index, Name: frame.Name, Bytes: len(frame.Payload),
				Corrected: frame.Corrected, Status: SectionCorrupt, Err: fe,
			})
			// No footer to resync against: frames after a rotten body are
			// unreachable, exactly as OpenJournal would truncate here.
			rep.Truncated = true
			return rep
		case err != nil:
			rep.Truncated = true
			return rep
		}
		status := SectionOK
		if frame.Corrected > 0 {
			status = SectionRepaired
		}
		rep.Sections = append(rep.Sections, Section{
			Index: len(rep.Sections), Name: frame.Name, Bytes: len(frame.Payload),
			Corrected: frame.Corrected, Status: status, payload: frame.Payload,
		})
	}
}

// ScrubJournalFile scrubs one journal file; the error covers I/O only.
func ScrubJournalFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ScrubJournal(bytes.NewReader(data)), nil
}
