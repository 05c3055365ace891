// Package frame is the one on-disk container of qpredictd's model and state
// files: a 24-byte header — an 8-byte magic, a little-endian uint32 format
// version, a uint64 payload length and the payload's CRC-32C — followed by
// the payload. core's model files (QPREDMDL) and sliding-state files
// (QPREDST1) are frames, told apart by magic, so a truncated, bit-flipped
// or different-format file fails fast instead of decoding plausibly.
//
// Checksum is the repository's only CRC-32C; the WAL's snapshot and record
// layouts, whose headers carry other fields, use it too.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// HeaderLen is the frame header size: magic + version + length + CRC.
	HeaderLen = 8 + 4 + 8 + 4
	// MaxPayload bounds a frame's declared payload length; anything larger
	// is treated as corruption rather than an allocation request.
	MaxPayload = 1 << 30
)

// ErrMagic marks a frame whose magic is not the one the reader asked for.
var ErrMagic = errors.New("bad magic")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Write writes payload to w as one frame. magic must be 8 bytes long.
func Write(w io.Writer, magic string, version uint32, payload []byte) error {
	var hdr [HeaderLen]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:], Checksum(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("frame: writing %s header: %w", magic, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("frame: writing %s payload: %w", magic, err)
	}
	return nil
}

// Read reads one frame from r and returns its payload. It fails on a short
// header, a magic other than magic (wrapping ErrMagic), a version other than
// version, a declared length over MaxPayload, a payload shorter than
// declared, or a checksum mismatch. The payload grows only with the bytes
// that actually arrive, so a header that claims more than the stream holds
// costs about what the stream holds.
func Read(r io.Reader, magic string, version uint32) ([]byte, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("short header: %v", err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w %q", ErrMagic, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return nil, fmt.Errorf("format version %d, this build reads %d", v, version)
	}
	length := binary.LittleEndian.Uint64(hdr[12:])
	if length > MaxPayload {
		return nil, fmt.Errorf("declared payload of %d bytes exceeds the %d limit", length, MaxPayload)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err == nil && uint64(len(payload)) < length {
		// What io.ReadFull reports for the same shortfall.
		err = io.ErrUnexpectedEOF
		if len(payload) == 0 {
			err = io.EOF
		}
	}
	if err != nil {
		return nil, fmt.Errorf("short payload: %v", err)
	}
	if Checksum(payload) != binary.LittleEndian.Uint32(hdr[20:]) {
		return nil, errors.New("payload checksum mismatch")
	}
	return payload, nil
}
