package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The files under testdata were written by the commit before this package
// existed, when core and model each carried their own copy of the codec:
// core's model and sliding-state frames around testdata/payload, and a zoo
// frame holding model's optcost envelope around the same payload.
var goldens = []struct {
	file    string
	magic   string
	version uint32
}{
	{"model.frame", "QPREDMDL", 2},
	{"state.frame", "QPREDST1", 2},
	{"zoo.frame", "QPREDZOO", 1},
}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenFrames: every container file reads back to its payload and is
// written again byte for byte.
func TestGoldenFrames(t *testing.T) {
	payload := readTestdata(t, "payload")
	for _, g := range goldens {
		file := readTestdata(t, g.file)
		got, err := Read(bytes.NewReader(file), g.magic, g.version)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if g.magic != "QPREDZOO" && !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload %q, want %q", g.file, got, payload)
		}
		if g.magic == "QPREDZOO" && !bytes.Contains(got, payload) {
			t.Fatalf("%s: envelope %q does not carry %q", g.file, got, payload)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g.magic, g.version, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), file) {
			t.Fatalf("%s: wrote\n%q\nwant\n%q", g.file, buf.Bytes(), file)
		}
	}
}

// TestReadRejects holds every header and payload violation to its message.
func TestReadRejects(t *testing.T) {
	valid := readTestdata(t, "model.frame")
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "short header: EOF"},
		{"short header", valid[:HeaderLen-1], "short header: unexpected EOF"},
		{"bad magic", valid[:HeaderLen], `bad magic "QPREDMDL"`},
		{"future version", edit(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 3) }), "format version 3, this build reads 2"},
		{"oversized length", edit(func(b []byte) { binary.LittleEndian.PutUint64(b[12:], MaxPayload+1) }), "exceeds the 1073741824 limit"},
		{"no payload", valid[:HeaderLen], "short payload: EOF"},
		{"truncated payload", valid[:len(valid)-1], "short payload: unexpected EOF"},
		{"payload bit flip", edit(func(b []byte) { b[HeaderLen] ^= 1 }), "payload checksum mismatch"},
		{"crc bit flip", edit(func(b []byte) { b[HeaderLen-1] ^= 1 }), "payload checksum mismatch"},
	} {
		magic := "QPREDMDL"
		if tc.name == "bad magic" {
			magic = "QPREDST1"
		}
		_, err := Read(bytes.NewReader(tc.data), magic, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if is := errors.Is(err, ErrMagic); is != (tc.name == "bad magic") {
			t.Errorf("%s: errors.Is(%v, ErrMagic) = %v", tc.name, err, is)
		}
	}
}

// TestReadBoundsDeclaredLength: a header that claims 2^30 − 1 bytes and
// carries none costs about nothing, not the gigabyte it declares.
func TestReadBoundsDeclaredLength(t *testing.T) {
	hdr := readTestdata(t, "model.frame")[:HeaderLen]
	binary.LittleEndian.PutUint64(hdr[12:], MaxPayload-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr), "QPREDMDL", 2)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("allocated %d bytes for a 24-byte frame", n)
	}
	if err == nil || !strings.Contains(err.Error(), "short payload") {
		t.Errorf("error %v, want a short payload", err)
	}
}
