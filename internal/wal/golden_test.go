package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The files under testdata/golden were written by the commit before the
// checksum moved to internal/frame and the segment scan and replay came to
// share one record reader: a snapshot of ../frame/testdata/payload covering
// sequence 7 at generation 3, and a segment holding goldenRecords appended
// through Open + Append.
const goldenDir = "testdata/golden"

var goldenRecords = []string{"first record", "second\x00record", "third record \xff"}

// TestGoldenFiles: the snapshot writer and the log reproduce the golden
// files byte for byte, and both read back.
func TestGoldenFiles(t *testing.T) {
	payload, err := os.ReadFile("../frame/testdata/payload")
	if err != nil {
		t.Fatal(err)
	}
	const snapName, segName = "snap-00000000000000000007.snap", "wal-00000000000000000001.seg"

	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 7, 3, payload); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenRecords {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapName, segName} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: wrote\n%q\nwant\n%q", name, got, want)
		}
	}

	snap, err := ReadSnapshot(filepath.Join(goldenDir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 7 || snap.Gen != 3 || !bytes.Equal(snap.Payload, payload) {
		t.Fatalf("snapshot read back as seq %d gen %d payload %q", snap.Seq, snap.Gen, snap.Payload)
	}
	l, err = Open(Options{Dir: copyDir(t, goldenDir)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if torn, n := l.TornTail(); torn {
		t.Fatalf("golden segment repaired on open (%d bytes)", n)
	}
	got := collect(t, l, 1)
	if len(got) != len(goldenRecords) {
		t.Fatalf("replayed %d records, want %d", len(got), len(goldenRecords))
	}
	for i, rec := range goldenRecords {
		if string(got[uint64(i+1)]) != rec {
			t.Fatalf("record %d replayed as %q, want %q", i+1, got[uint64(i+1)], rec)
		}
	}
}
