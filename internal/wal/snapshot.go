package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Snapshot metrics.
var (
	walSnapshots     = obs.GetCounter("wal.snapshots")
	walSnapshotBytes = obs.GetHistogram("wal.snapshot.bytes")
	walSnapsCorrupt  = obs.GetCounter("wal.snapshots.corrupt")
)

const (
	// snapMagic opens every snapshot file; "001" is the format version.
	snapMagic = "QSNAP001"
	// snapHeaderLen: magic + appliedSeq + generation + payload CRC-32C.
	snapHeaderLen = len(snapMagic) + 8 + 8 + 4
	// keepSnapshots is how many snapshot files survive pruning: the newest
	// plus one fallback in case the newest is unreadable.
	keepSnapshots = 2
)

// ErrBadSnapshot marks a snapshot file that failed validation (short,
// wrong magic, or checksum mismatch). LatestSnapshot skips such files and
// falls back to older ones.
var ErrBadSnapshot = errors.New("wal: invalid snapshot file")

// Snapshot is a decoded point-in-time state file: the opaque payload (the
// serialized sliding-predictor state) plus the log position and model
// generation it covers.
type Snapshot struct {
	Path    string
	Seq     uint64 // last WAL sequence applied to this state
	Gen     uint64 // model generation installed when it was taken
	Payload []byte
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", seq))
}

// WriteSnapshot atomically persists a snapshot covering WAL sequence seq
// with model generation gen, then prunes all but the newest keepSnapshots
// files. The payload is opaque to this layer.
func WriteSnapshot(dir string, seq, gen uint64, payload []byte) (string, error) {
	buf := make([]byte, snapHeaderLen+len(payload))
	copy(buf, snapMagic)
	off := len(snapMagic)
	binary.LittleEndian.PutUint64(buf[off:], seq)
	binary.LittleEndian.PutUint64(buf[off+8:], gen)
	binary.LittleEndian.PutUint32(buf[off+16:], frame.Checksum(payload))
	copy(buf[snapHeaderLen:], payload)
	path := snapshotPath(dir, seq)
	if err := WriteFileAtomic(path, buf, 0o644); err != nil {
		return "", err
	}
	walSnapshots.Inc()
	walSnapshotBytes.Observe(float64(len(buf)))
	if err := pruneSnapshots(dir); err != nil {
		return path, err
	}
	return path, nil
}

// ReadSnapshot decodes and validates one snapshot file.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot %s: %w", path, err)
	}
	if len(data) < snapHeaderLen || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrBadSnapshot, path)
	}
	off := len(snapMagic)
	seq := binary.LittleEndian.Uint64(data[off:])
	gen := binary.LittleEndian.Uint64(data[off+8:])
	crc := binary.LittleEndian.Uint32(data[off+16:])
	payload := data[snapHeaderLen:]
	if frame.Checksum(payload) != crc {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrBadSnapshot, path)
	}
	return &Snapshot{Path: path, Seq: seq, Gen: gen, Payload: payload}, nil
}

// LatestSnapshot returns the newest valid snapshot in dir, or nil if none
// exists. Corrupt files (a crash mid-write leaves none thanks to
// WriteFileAtomic, but disks rot) are skipped in favor of older ones.
func LatestSnapshot(dir string) (*Snapshot, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		snap, err := ReadSnapshot(names[i])
		if err == nil {
			return snap, nil
		}
		if errors.Is(err, ErrBadSnapshot) {
			walSnapsCorrupt.Inc()
			continue
		}
		return nil, err
	}
	return nil, nil
}

func listSnapshots(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		return nil, fmt.Errorf("wal: listing snapshots in %s: %w", dir, err)
	}
	sort.Strings(names) // zero-padded seq in the name: lexical = numeric
	return names, nil
}

// pruneSnapshots removes all but the newest keepSnapshots files.
func pruneSnapshots(dir string) error {
	names, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	if len(names) <= keepSnapshots {
		return nil
	}
	for _, path := range names[:len(names)-keepSnapshots] {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: pruning snapshot %s: %w", path, err)
		}
	}
	return SyncDir(dir)
}
