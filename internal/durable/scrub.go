package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// SectionStatus classifies one scrubbed frame.
type SectionStatus int

// Section statuses.
const (
	// SectionOK verified clean with zero corrections.
	SectionOK SectionStatus = iota
	// SectionRepaired had byte errors that Reed–Solomon parity corrected;
	// the checksum verified after repair.
	SectionRepaired
	// SectionCorrupt failed its checksum beyond the parity budget.
	SectionCorrupt
)

// String names the status for reports.
func (s SectionStatus) String() string {
	switch s {
	case SectionOK:
		return "ok"
	case SectionRepaired:
		return "repaired"
	default:
		return "corrupt"
	}
}

// Section is the scrub verdict on one frame.
type Section struct {
	// Index is the frame position in the container.
	Index int
	// Name is the frame's section name.
	Name string
	// Bytes is the raw payload length.
	Bytes int
	// Corrected counts Reed–Solomon symbols corrected.
	Corrected int
	// Status is the verdict.
	Status SectionStatus
	// Err carries the failure for corrupt sections.
	Err error

	// payload keeps the (possibly repaired) bytes for RepairFile.
	payload []byte
}

// Report is the outcome of scrubbing one container.
type Report struct {
	// Kind and Parity echo the container header.
	Kind   Kind
	Parity int
	// Legacy marks a file without the container magic — a pre-container
	// artifact with no checksums to verify.
	Legacy bool
	// Truncated marks a torn write: a container stream that ended before
	// a valid footer, or a journal cut short by its first damaged frame.
	// Sections lists what was read before the tear.
	Truncated bool
	// ScanErr records structural damage that stopped the scan (corrupt
	// container or frame header, bad marker, bad footer).
	ScanErr error
	// Sections holds the per-frame verdicts, in frame order.
	Sections []Section
}

// Intact reports a fully healthy stream: not truncated, no structural
// damage, every section clean with no corrections needed.
func (r *Report) Intact() bool {
	return !r.Legacy && !r.Truncated && r.ScanErr == nil && !r.Damaged()
}

// Damaged reports whether any section needed repair or failed.
func (r *Report) Damaged() bool {
	for _, s := range r.Sections {
		if s.Status != SectionOK {
			return true
		}
	}
	return false
}

// Repairable reports whether a full rewrite can restore the container:
// structure intact, and every section either clean or within the parity
// budget. Truncation is never repairable — the torn frames are gone — and
// neither is a journal, which a rewrite would close with a footer; its
// repaired frames still read clean through parity.
func (r *Report) Repairable() bool {
	if r.Legacy || r.Truncated || r.ScanErr != nil || r.Kind.Journal() {
		return false
	}
	for _, s := range r.Sections {
		if s.Status == SectionCorrupt {
			return false
		}
	}
	return true
}

// Summary renders a one-line operator-facing verdict.
func (r *Report) Summary() string {
	switch {
	case r.Legacy:
		return "legacy format (no checksums; re-save to upgrade)"
	case r.ScanErr != nil:
		return fmt.Sprintf("structurally corrupt: %v", r.ScanErr)
	}
	ok, repaired, corrupt, corrected := 0, 0, 0, 0
	for _, s := range r.Sections {
		corrected += s.Corrected
		switch s.Status {
		case SectionOK:
			ok++
		case SectionRepaired:
			repaired++
		default:
			corrupt++
		}
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("kind %s, %d sections", r.Kind, len(r.Sections)))
	if r.Truncated {
		parts = append(parts, "TRUNCATED (torn write)")
	}
	if corrupt > 0 {
		parts = append(parts, fmt.Sprintf("%d corrupt beyond parity", corrupt))
	}
	if repaired > 0 {
		parts = append(parts, fmt.Sprintf("%d repairable (%d symbols)", repaired, corrected))
	}
	if corrupt == 0 && repaired == 0 && !r.Truncated {
		parts = append(parts, "all checksums ok")
	}
	return strings.Join(parts, "; ")
}

// Scrub walks a container or journal stream, verifying every frame
// checksum and attempting parity repair, and keeps going past damage
// wherever the structure allows: past a rotten container section, but not
// past a journal's first damaged frame.
func Scrub(r io.Reader) *Report {
	rep := &Report{}
	rd, err := NewReader(r)
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
	rep.Kind, rep.Parity = rd.Kind(), rd.Parity()
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return rep
		}
		var fe *FrameError
		switch {
		case errors.As(err, &fe):
			rep.Sections = append(rep.Sections, Section{
				Index: fe.Index, Name: f.Name, Bytes: len(f.Payload),
				Corrected: f.Corrected, Status: SectionCorrupt, Err: fe,
			})
			continue
		case errors.Is(err, ErrTruncated):
			rep.Truncated = true
			return rep
		case err != nil:
			rep.ScanErr = err
			return rep
		}
		status := SectionOK
		if f.Corrected > 0 {
			status = SectionRepaired
		}
		rep.Sections = append(rep.Sections, Section{
			Index: len(rep.Sections), Name: f.Name, Bytes: len(f.Payload),
			Corrected: f.Corrected, Status: status, payload: f.Payload,
		})
	}
}

// ScrubFile scrubs one file; the error covers I/O only — verification
// verdicts live in the report.
func ScrubFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Scrub(bytes.NewReader(data)), nil
}

// RepairFile scrubs a file and, when damage was found and every section is
// recoverable, atomically rewrites the container from the repaired
// payloads. A journal is never rewritten (see Report.Repairable). The
// returned report describes the file as found (before repair).
func RepairFile(path string) (*Report, error) {
	rep, err := ScrubFile(path)
	if err != nil {
		return nil, err
	}
	if !rep.Damaged() || !rep.Repairable() {
		return rep, nil
	}
	err = WriteContainerFile(path, rep.Kind, Options{Parity: rep.Parity}, func(w *Writer) error {
		for _, s := range rep.Sections {
			if err := w.WriteFrame(s.Name, s.payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("durable: rewriting %s: %w", path, err)
	}
	return rep, nil
}
