// Package durable implements the on-disk durability layer: a versioned,
// CRC32C-checksummed container format with optional Reed–Solomon parity,
// atomic file commit (temp + fsync + rename), an append-only journal for
// checkpoint/resume, and scrub/repair over all of it.
//
// Storage media decay over decades while pipelines crash in seconds; both
// failure modes land on the same files. Every artifact this repository
// persists — pools, simulated datasets, calibration profiles, simulation
// checkpoints — is therefore wrapped in one container format so that a
// torn write is always detected (never silently half-loaded), bit rot is
// detected by checksum and repaired by parity when within budget, and a
// file either commits completely or not at all.
//
// Format layout (all integers little-endian):
//
//	container := header frame* footer
//	header    := magic "DNAC" | version u8 | kind u8 | parity u8 |
//	             reserved u8 | crc32c(bytes 0..8) u32
//	frame     := 'F' | nameLen u8 | name | rawLen u32 |
//	             crc32c(frame header bytes) u32 | body |
//	             crc32c(raw payload) u32
//	body      := the raw payload when parity = 0; otherwise Reed–Solomon
//	             codewords — the payload in chunks of (255-parity) bytes,
//	             each followed by parity RS symbols over GF(2⁸), so up to
//	             parity/2 unknown-position byte errors per codeword are
//	             correctable
//	footer    := 'E' | frameCount u32 | crc32c(stored payload CRCs) u32 |
//	             magic "CEND"
//
// A journal (KindCheckpoint, KindLedger) is a container without a footer:
// its kind says so, validity is the header plus every clean frame, and the
// first damaged frame ends it. One frame walk, Reader.Next, reads both
// shapes for ReadAll, Scrub and OpenJournal. The payload
// CRC is always computed over the raw (pre-parity) payload, so a repaired
// frame re-validates against the stored checksum — Reed–Solomon can only
// claim a repair the CRC confirms.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dnastore/internal/codec"
)

// Kind labels what a container holds, so a loader can reject a container
// of another kind and scrub can report archive composition.
type Kind byte

// Container kinds.
const (
	KindUnknown    Kind = 0
	KindPool       Kind = 1
	KindDataset    Kind = 2
	KindProfile    Kind = 3
	KindCheckpoint Kind = 4
	// KindLedger marks a coordinator write-ahead job ledger journal.
	KindLedger Kind = 5
)

// Journal reports whether containers of this kind are append-only
// journals: footer-less streams that end at a frame boundary.
func (k Kind) Journal() bool { return k == KindCheckpoint || k == KindLedger }

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindPool:
		return "pool"
	case KindDataset:
		return "dataset"
	case KindProfile:
		return "profile"
	case KindCheckpoint:
		return "checkpoint"
	case KindLedger:
		return "ledger"
	default:
		return fmt.Sprintf("unknown(%d)", byte(k))
	}
}

// Version is the container format version written by this package.
const Version = 1

const (
	frameMarker  = 'F'
	footerMarker = 'E'
	headerSize   = 12
	footerSize   = 13
)

// MaxParity bounds the per-codeword Reed–Solomon parity symbol count; at
// least 127 data bytes must remain per 255-byte codeword.
const MaxParity = 128

// DefaultParity is the parity used by the stock pool and profile writers:
// 16 symbols per 255-byte codeword (~6.7% overhead) repairs up to 8
// unknown-position byte errors per codeword.
const DefaultParity = 16

// maxFrameSize bounds a single frame's raw payload, guarding allocations
// against forged length fields.
const maxFrameSize = 1 << 28

var (
	headMagic = [4]byte{'D', 'N', 'A', 'C'}
	tailMagic = [4]byte{'C', 'E', 'N', 'D'}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrNotContainer reports a file that does not start with the container
// magic — a legacy (pre-container) artifact or an unrelated file.
var ErrNotContainer = errors.New("durable: not a durable container")

// ErrTruncated reports a container cut short before a valid footer — the
// signature of a torn write.
var ErrTruncated = errors.New("durable: container truncated (torn write)")

// ErrWrongKind reports a container whose header declares another kind than
// the one asked for. OpenJournal returns it before touching the file.
var ErrWrongKind = errors.New("durable: wrong container kind")

// ErrCorrupt reports payload bytes that fail their checksum beyond what
// Reed–Solomon parity could repair.
var ErrCorrupt = errors.New("durable: payload corrupt beyond parity budget")

// FrameError reports a single unrecoverable frame. The surrounding stream
// stays readable: frame boundaries are protected by their own header CRC,
// so one rotten section does not take down its neighbours.
type FrameError struct {
	// Index is the zero-based frame position in the container.
	Index int
	// Name is the frame's section name.
	Name string
	// Err is the underlying failure (usually ErrCorrupt).
	Err error
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("durable: frame %d %q: %v", e.Index, e.Name, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *FrameError) Unwrap() error { return e.Err }

// Options configure a container writer.
type Options struct {
	// Parity is the Reed–Solomon parity symbol count per 255-byte
	// codeword; 0 disables parity (checksums only, no repair).
	Parity int
}

// Frame is one decoded section of a container.
type Frame struct {
	// Name is the section name given at write time.
	Name string
	// Payload is the raw payload, after any Reed–Solomon repair.
	Payload []byte
	// Corrected counts Reed–Solomon symbols corrected while reading; 0
	// means the section was clean on disk.
	Corrected int
}

// crc is CRC32C over b.
func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// updateRunCRC folds one stored payload CRC into the footer's running CRC.
func updateRunCRC(run, pcrc uint32) uint32 {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], pcrc)
	return crc32.Update(run, castagnoli, b[:])
}

// newRS checks a parity symbol count and builds its Reed–Solomon codec;
// parity 0 (checksums only) needs none.
func newRS(parity int) (*codec.RS, error) {
	if parity < 0 || parity > MaxParity {
		return nil, fmt.Errorf("durable: parity %d out of [0,%d]", parity, MaxParity)
	}
	if parity == 0 {
		return nil, nil
	}
	return codec.NewRS(parity)
}

// frameSize returns the on-disk length of a frame with the given name and
// raw payload lengths.
func frameSize(nameLen, rawLen, parity int) int {
	return 2 + nameLen + 8 + encodedLen(rawLen, parity) + 4
}

// encodedLen returns the body length of a frame holding rawLen payload
// bytes under the given parity.
func encodedLen(rawLen, parity int) int {
	if parity == 0 {
		return rawLen
	}
	data := 255 - parity
	full := rawLen / data
	n := full * 255
	if rem := rawLen % data; rem > 0 {
		n += rem + parity
	}
	return n
}

// encodeHeader builds the 12-byte container header.
func encodeHeader(kind Kind, parity int) [headerSize]byte {
	var h [headerSize]byte
	copy(h[:4], headMagic[:])
	h[4] = Version
	h[5] = byte(kind)
	h[6] = byte(parity)
	h[7] = 0
	binary.LittleEndian.PutUint32(h[8:], crc(h[:8]))
	return h
}

// parseHeader validates a container header read from r; newRS checks its
// parity.
func parseHeader(r io.Reader) (Kind, int, error) {
	h := make([]byte, headerSize)
	n, err := io.ReadFull(r, h)
	if err != nil {
		if n >= len(headMagic) && !bytes.Equal(h[:4], headMagic[:]) {
			return 0, 0, ErrNotContainer
		}
		return 0, 0, ErrTruncated
	}
	if !bytes.Equal(h[:4], headMagic[:]) {
		return 0, 0, ErrNotContainer
	}
	if crc(h[:8]) != binary.LittleEndian.Uint32(h[8:]) {
		return 0, 0, fmt.Errorf("durable: container header checksum mismatch")
	}
	if h[4] != Version {
		return 0, 0, fmt.Errorf("durable: unsupported container version %d", h[4])
	}
	return Kind(h[5]), int(h[6]), nil
}

// encodeFrame serialises one frame into a single exact-size slice. The
// frame ends with the stored payload CRC, the four bytes the footer's
// running CRC accumulates.
func encodeFrame(name string, raw []byte, parity int, rs *codec.RS) ([]byte, error) {
	if name == "" || len(name) > 255 {
		return nil, fmt.Errorf("durable: frame name %q must be 1..255 bytes", name)
	}
	if len(raw) > maxFrameSize {
		return nil, fmt.Errorf("durable: frame payload %d bytes exceeds %d", len(raw), maxFrameSize)
	}
	buf := make([]byte, 0, frameSize(len(name), len(raw), parity))
	buf = append(buf, frameMarker, byte(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(raw)))
	buf = binary.LittleEndian.AppendUint32(buf, crc(buf))
	if parity == 0 {
		buf = append(buf, raw...)
	} else {
		data := 255 - parity
		for off := 0; off < len(raw); off += data {
			var err error
			if buf, err = rs.AppendEncode(buf, raw[off:min(off+data, len(raw))]); err != nil {
				return nil, err
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc(raw)), nil
}

// readFrame parses one frame after its marker byte has been consumed.
// Stream-structural damage (bad header CRC, short read) comes back as a
// terminal error; payload damage beyond parity comes back as a *FrameError
// with the stream still positioned at the next frame, carrying the
// best-effort payload.
func readFrame(r io.Reader, parity int, rs *codec.RS, index int) (*Frame, uint32, error) {
	var small [6]byte
	if _, err := io.ReadFull(r, small[:1]); err != nil {
		return nil, 0, ErrTruncated
	}
	nameLen := int(small[0])
	if nameLen == 0 {
		return nil, 0, fmt.Errorf("durable: frame %d has empty name", index)
	}
	hdr := make([]byte, 2+nameLen+8)
	hdr[0] = frameMarker
	hdr[1] = small[0]
	if _, err := io.ReadFull(r, hdr[2:]); err != nil {
		return nil, 0, ErrTruncated
	}
	name := string(hdr[2 : 2+nameLen])
	rawLen := int(binary.LittleEndian.Uint32(hdr[2+nameLen:]))
	hcrc := binary.LittleEndian.Uint32(hdr[2+nameLen+4:])
	if crc(hdr[:2+nameLen+4]) != hcrc {
		return nil, 0, fmt.Errorf("durable: frame %d header checksum mismatch", index)
	}
	if rawLen > maxFrameSize {
		return nil, 0, fmt.Errorf("durable: frame %d payload %d bytes exceeds %d", index, rawLen, maxFrameSize)
	}
	body := make([]byte, encodedLen(rawLen, parity))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, ErrTruncated
	}
	if _, err := io.ReadFull(r, small[:4]); err != nil {
		return nil, 0, ErrTruncated
	}
	pcrc := binary.LittleEndian.Uint32(small[:4])

	frame := &Frame{Name: name}
	decodeFailed := false
	if parity == 0 {
		frame.Payload = body
	} else {
		// Each codeword's data bytes move down over the parity of the
		// codewords before it, so the payload is compacted in place.
		n := 0
		for off := 0; off < len(body); off += 255 {
			cw := body[off:min(off+255, len(body))]
			msg, corrected, err := rs.DecodeDetail(cw, nil)
			if err != nil {
				// Unrecoverable codeword: keep the damaged data bytes so
				// the caller still sees a best-effort payload.
				decodeFailed = true
				msg = cw[:len(cw)-parity]
			}
			frame.Corrected += corrected
			n += copy(body[n:], msg)
		}
		frame.Payload = body[:n:n]
	}
	if decodeFailed || crc(frame.Payload) != pcrc {
		return frame, pcrc, &FrameError{Index: index, Name: name, Err: ErrCorrupt}
	}
	return frame, pcrc, nil
}
