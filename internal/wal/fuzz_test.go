package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// frameRecords frames payloads exactly as Append lays them out on disk.
func frameRecords(payloads ...string) []byte {
	var seg []byte
	for _, p := range payloads {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(p)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum([]byte(p), castagnoli))
		seg = append(seg, p...)
	}
	return seg
}

// FuzzWALTail treats arbitrary bytes as the newest (only) segment of a
// log. Open must not panic, End() must equal the number of records a
// Reader returns, and those records must be exactly the leading frames of
// the input whose length and CRC check out.
//
//	go test -run '^$' -fuzz '^FuzzWALTail$' -fuzztime=10s ./internal/wal
func FuzzWALTail(f *testing.F) {
	// The torn-tail vectors: intact records, then a tail record cut short,
	// bit-flipped, zero-length or with an absurd length.
	keep := frameRecords("keep-0000", "keep-0001", "keep-0002")
	tail := frameRecords("tail-record-payload")
	f.Add(keep)
	f.Add(append(append([]byte{}, keep...), tail[:3]...))
	f.Add(append(append([]byte{}, keep...), tail[:len(tail)-1]...))
	flipped := append(append([]byte{}, keep...), tail...)
	flipped[len(keep)+headerSize+2] ^= 0x5a
	f.Add(flipped)
	f.Add(append(append([]byte{}, keep...), 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(append(append([]byte{}, keep...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		r, err := l.Reader(0)
		if err != nil {
			t.Fatalf("Reader: %v", err)
		}
		defer r.Close()
		var n uint64
		off := 0
		for {
			p, idx, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if idx != n {
				t.Fatalf("record index %d, want %d", idx, n)
			}
			// The record must be the input's next frame, CRC intact.
			if off+headerSize+len(p) > len(data) ||
				int(binary.LittleEndian.Uint32(data[off:])) != len(p) ||
				binary.LittleEndian.Uint32(data[off+4:]) != crc32.Checksum(p, castagnoli) ||
				!bytes.Equal(data[off+headerSize:off+headerSize+len(p)], p) {
				t.Fatalf("record %d (%d bytes) is not the input frame at offset %d", n, len(p), off)
			}
			off += headerSize + len(p)
			n++
		}
		if l.End() != n {
			t.Fatalf("End() = %d, Reader returned %d records", l.End(), n)
		}
	})
}
