// Package wal makes qpredictd's serving state durable. It has three layers:
//
//   - Log: a segmented, append-only, length-prefixed, CRC-checksummed
//     record log with a configurable fsync policy. Opening a log validates
//     every record; a torn tail (the crash signature of an in-flight
//     append) is truncated back to the last complete record, and anything
//     after the first invalid byte is discarded, so recovery always yields
//     a valid prefix of what was written.
//   - Snapshots: checksummed point-in-time state files written atomically
//     (WriteFileAtomic), named by the log sequence number they cover, so a
//     restart installs the newest valid snapshot and replays only the log
//     tail behind it.
//   - Store: the observe-stream glue — one WAL + snapshot directory per
//     model partition, logging each /v1/observe record before it is
//     applied to the sliding retraining window and snapshotting installed
//     model generations via internal/core/serialize.
//
// Like the model files (internal/frame), every file carries a magic string
// that names its format version and a CRC-32C (frame.Checksum), so a
// truncated, bit-flipped, or different-build file fails fast with a clear
// error instead of decoding plausibly. Segment, record and snapshot headers
// carry other fields than a frame's, so they keep their own layouts.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frame"
	"repro/internal/obs"
)

// WAL metrics: append volume and fsync amplification on the write side,
// recovery behavior (replayed records, torn tails, discarded bytes) on the
// read side.
var (
	walAppends     = obs.GetCounter("wal.appends")
	walAppendBytes = obs.GetHistogram("wal.append.bytes")
	walFsyncs      = obs.GetCounter("wal.fsyncs")
	walRotations   = obs.GetCounter("wal.segment.rotations")
	walSegments    = obs.GetGauge("wal.segments")
	walReplayed    = obs.GetCounter("wal.records.replayed")
	walTornTails   = obs.GetCounter("wal.tail.truncations")
	walDiscarded   = obs.GetCounter("wal.truncated.bytes")
)

// Sentinel errors.
var (
	// ErrRecordTooLarge: an Append exceeded MaxRecordBytes (or was empty).
	ErrRecordTooLarge = errors.New("wal: record size out of range")
	// ErrClosed: the log was used after Close.
	ErrClosed = errors.New("wal: log is closed")
)

const (
	// segMagic opens every segment file, followed by the segment's first
	// record sequence number. The trailing "1" is the format version.
	segMagic = "QWALSEG1"
	// segHeaderLen is the segment header size: magic + first-seq.
	segHeaderLen = len(segMagic) + 8
	// recHeaderLen prefixes every record: uint32 payload length + uint32
	// CRC-32C of the payload, both little-endian.
	recHeaderLen = 8
	// MaxRecordBytes bounds one record's payload; larger length prefixes
	// on disk are treated as corruption.
	MaxRecordBytes = 16 << 20
	// DefaultSegmentBytes rotates segments at 8 MiB.
	DefaultSegmentBytes = 8 << 20
	// DefaultSyncEvery is the SyncBatch fsync cadence in appends.
	DefaultSyncEvery = 64
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncBatch fsyncs every SyncEvery appends and on rotation/close — the
	// default: bounded loss on power failure, no per-append fsync stall.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs every append before it is acknowledged.
	SyncAlways
	// SyncNone never fsyncs explicitly; the OS flushes on its own
	// schedule. Process crashes still lose nothing (the page cache
	// survives them); only power loss does.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseSyncPolicy parses the -fsync flag values: always, batch, none.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always, batch, or none)", s)
}

// Options configure a Log.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// Policy is the fsync policy (default SyncBatch).
	Policy SyncPolicy
	// SyncEvery is the SyncBatch cadence in appends (default
	// DefaultSyncEvery).
	SyncEvery int
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
}

// segment is one on-disk log file holding records
// firstSeq..firstSeq+count-1.
type segment struct {
	path     string
	firstSeq uint64
	count    uint64
}

// Log is the append-only record log. It is not safe for concurrent use:
// the owner (a shard's observe goroutine) serializes access.
type Log struct {
	opts Options
	segs []segment
	f    *os.File // current (last) segment, open for append
	size int64    // current segment's byte size

	nextSeq  uint64 // sequence the next Append returns
	unsynced int    // appends since the last fsync (SyncBatch)
	closed   bool

	// frame is the reusable header+payload write buffer. The Log's owner
	// serializes Append calls (single-writer contract), and the bytes are
	// fully handed to the OS by Write before Append returns, so reuse is
	// safe and steady-state appends allocate nothing.
	frame []byte

	// Open-time repair stats, surfaced through the Store's RecoveryInfo.
	tornTail       bool
	truncatedBytes int64
}

// Open scans, validates, and repairs the log in dir, then positions it for
// appending. Every record of every segment is CRC-verified; the first
// invalid byte (torn append, bit flip, garbage) ends the log — the
// containing file is truncated back to its last valid record and any later
// segments are deleted, so the surviving records are always a valid prefix
// of what was appended. Opening an empty or missing directory creates a
// fresh log starting at sequence 1.
func Open(opts Options) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{opts: opts, nextSeq: 1}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if err := l.openTail(); err != nil {
		return nil, err
	}
	walSegments.Set(int64(len(l.segs)))
	return l, nil
}

// scan validates all segments in name order, repairing the tail. Segment
// file names embed the zero-padded first sequence, so lexical order is
// sequence order.
func (l *Log) scan() error {
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, "wal-*.seg"))
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", l.opts.Dir, err)
	}
	sort.Strings(names)
	for i, path := range names {
		seg, truncated, valid, err := l.scanSegment(path, l.nextSeq)
		if err != nil {
			return err
		}
		if !valid {
			// Unusable from its first byte (bad header, wrong magic, or a
			// sequence discontinuity): the log ends before this file.
			return l.discard(names[i:])
		}
		l.segs = append(l.segs, seg)
		l.nextSeq = seg.firstSeq + seg.count
		if truncated {
			// A torn or corrupt record ended this segment; nothing after
			// it can be trusted.
			return l.discard(names[i+1:])
		}
	}
	return nil
}

// scanSegment validates one segment file. valid=false means the file
// cannot contribute any records; truncated=true means an invalid record
// was found and the file was cut back to its last valid byte.
func (l *Log) scanSegment(path string, wantFirst uint64) (seg segment, truncated, valid bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return segment{}, false, false, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()

	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return segment{}, false, false, nil // short header: dead file
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		return segment{}, false, false, nil
	}
	firstSeq := binary.LittleEndian.Uint64(hdr[len(segMagic):])
	if firstSeq != wantFirst {
		return segment{}, false, false, nil
	}

	rr := recordReader{r: f, off: int64(segHeaderLen)}
	var count uint64
	var rerr error
	for {
		if _, rerr = rr.next(); rerr != nil {
			break
		}
		count++
	}
	seg = segment{path: path, firstSeq: firstSeq, count: count}
	if rerr == io.EOF {
		return seg, false, true, nil
	}
	// Torn or corrupt record: cut the file back to the last valid byte.
	info, err := os.Stat(path)
	if err != nil {
		return segment{}, false, false, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	l.noteRepair(info.Size() - rr.off)
	if err := os.Truncate(path, rr.off); err != nil {
		return segment{}, false, false, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	return seg, true, true, nil
}

// discard removes dead segment files found after the log's valid prefix.
func (l *Log) discard(names []string) error {
	for _, path := range names {
		if info, err := os.Stat(path); err == nil {
			l.noteRepair(info.Size())
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: removing dead segment %s: %w", path, err)
		}
	}
	if len(names) > 0 {
		return SyncDir(l.opts.Dir)
	}
	return nil
}

func (l *Log) noteRepair(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	l.tornTail = true
	l.truncatedBytes += bytes
	walTornTails.Inc()
	walDiscarded.Add(bytes)
}

// openTail opens the last segment for appending, creating the first
// segment for an empty log.
func (l *Log) openTail() error {
	if len(l.segs) == 0 {
		return l.newSegment()
	}
	last := &l.segs[len(l.segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening tail segment %s: %w", last.path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat tail segment %s: %w", last.path, err)
	}
	l.f, l.size = f, info.Size()
	return nil
}

// newSegment starts a fresh segment whose first record will be nextSeq.
func (l *Log) newSegment() error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("wal-%020d.seg", l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], l.nextSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header %s: %w", path, err)
	}
	walFsyncs.Inc()
	if err := SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, int64(segHeaderLen)
	l.segs = append(l.segs, segment{path: path, firstSeq: l.nextSeq})
	walSegments.Set(int64(len(l.segs)))
	return nil
}

// Append writes one record and returns its sequence number (1-based,
// monotonic across segments and restarts). Durability follows the fsync
// policy; Sync forces it.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) == 0 || len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	if need := recHeaderLen + len(payload); cap(l.frame) < need {
		l.frame = make([]byte, need)
	} else {
		l.frame = l.frame[:need]
	}
	rec := l.frame
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], frame.Checksum(payload))
	copy(rec[recHeaderLen:], payload)
	if _, err := l.f.Write(rec); err != nil {
		return 0, fmt.Errorf("wal: appending record %d: %w", l.nextSeq, err)
	}
	seq := l.nextSeq
	l.nextSeq++
	l.size += int64(len(rec))
	l.segs[len(l.segs)-1].count++
	walAppends.Inc()
	walAppendBytes.Observe(float64(len(rec)))

	switch l.opts.Policy {
	case SyncAlways:
		if err := l.Sync(); err != nil {
			return seq, err
		}
	case SyncBatch:
		l.unsynced++
		if l.unsynced >= l.opts.SyncEvery {
			if err := l.Sync(); err != nil {
				return seq, err
			}
		}
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// rotate finalizes the current segment (fsync, close) and starts the next;
// newSegment's header fsync + dir fsync make the rotation itself durable.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing rotated segment: %w", err)
	}
	walRotations.Inc()
	return l.newSegment()
}

// Sync forces appended records to stable storage.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	walFsyncs.Inc()
	l.unsynced = 0
	return nil
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LastSeq returns the sequence of the most recently appended (or
// recovered) record, 0 for an empty log.
func (l *Log) LastSeq() uint64 { return l.nextSeq - 1 }

// TornTail reports whether Open had to discard bytes, and how many — the
// crash signature recovery repaired.
func (l *Log) TornTail() (bool, int64) { return l.tornTail, l.truncatedBytes }

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int { return len(l.segs) }

// Replay streams records with sequence >= fromSeq, in order, to fn. Whole
// segments below fromSeq are skipped without reading, so replay cost
// scales with the tail behind the last snapshot, not the log's history.
// Records were already validated at Open; CRCs are re-checked while
// reading anyway. fn returning an error aborts the replay.
func (l *Log) Replay(fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	if l.closed {
		return ErrClosed
	}
	for _, seg := range l.segs {
		if seg.count == 0 || seg.firstSeq+seg.count <= fromSeq {
			continue
		}
		if err := replaySegment(seg, fromSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(seg segment, fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("wal: opening %s for replay: %w", seg.path, err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(segHeaderLen), io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking %s: %w", seg.path, err)
	}
	rr := recordReader{r: f, off: int64(segHeaderLen)}
	for i := uint64(0); i < seg.count; i++ {
		payload, err := rr.next()
		if err != nil {
			return fmt.Errorf("wal: replaying %s record %d: %w", seg.path, i, err)
		}
		seq := seg.firstSeq + i
		if seq < fromSeq {
			continue
		}
		walReplayed.Inc()
		if err := fn(seq, payload); err != nil {
			return err
		}
	}
	return nil
}

// TruncateBefore deletes whole segments whose every record is below seq —
// the space bound applied after a snapshot covers them. The current
// (append) segment is never deleted.
func (l *Log) TruncateBefore(seq uint64) error {
	if l.closed {
		return ErrClosed
	}
	keep := make([]segment, 0, len(l.segs))
	removed := false
	for i, seg := range l.segs {
		last := i == len(l.segs)-1
		if !last && seg.firstSeq+seg.count <= seq {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: removing covered segment %s: %w", seg.path, err)
			}
			removed = true
			continue
		}
		keep = append(keep, seg)
	}
	if removed {
		l.segs = keep
		walSegments.Set(int64(len(l.segs)))
		return SyncDir(l.opts.Dir)
	}
	return nil
}

// recordReader reads a segment's records in order, from just past its
// header, tracking the byte offset of the end of the last record read.
type recordReader struct {
	r       io.Reader
	off     int64
	hdr     [recHeaderLen]byte
	payload []byte // reused: each payload is valid until the next call
}

// next returns the next record's payload. io.EOF means the segment ended
// cleanly on a record boundary; any other error is a torn or corrupt record.
func (rr *recordReader) next() ([]byte, error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(rr.hdr[:4])
	if length == 0 || length > MaxRecordBytes {
		return nil, fmt.Errorf("invalid length %d", length)
	}
	if cap(rr.payload) < int(length) {
		rr.payload = make([]byte, length)
	}
	payload := rr.payload[:length]
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		if err == io.EOF { // the header promised a payload
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if frame.Checksum(payload) != binary.LittleEndian.Uint32(rr.hdr[4:]) {
		return nil, errors.New("checksum mismatch")
	}
	rr.off += recHeaderLen + int64(length)
	return payload, nil
}
