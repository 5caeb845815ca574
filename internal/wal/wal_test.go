package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frappe/internal/telemetry"
)

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%06d", tag, i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func readAll(t *testing.T, l *Log, from uint64) []string {
	t.Helper()
	r, err := l.Reader(from)
	if err != nil {
		t.Fatalf("Reader(%d): %v", from, err)
	}
	defer r.Close()
	var out []string
	for {
		p, idx, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if want := from + uint64(len(out)); idx != want {
			t.Fatalf("record index %d, want %d", idx, want)
		}
		out = append(out, string(p))
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 100, "rec")
	if got := l.End(); got != 100 {
		t.Fatalf("End = %d, want 100", got)
	}
	recs := readAll(t, l, 0)
	if len(recs) != 100 || recs[0] != "rec-000000" || recs[99] != "rec-000099" {
		t.Fatalf("read %d records, ends %q/%q", len(recs), recs[0], recs[len(recs)-1])
	}
	if got := readAll(t, l, 42); len(got) != 58 || got[0] != "rec-000042" {
		t.Fatalf("Reader(42): %d records, first %q", len(got), got[0])
	}
	if got := readAll(t, l, 100); len(got) != 0 {
		t.Fatalf("Reader(End()) returned %d records, want none", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 200, "seg")
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to have produced >= 3", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must land exactly at record 200 and keep appending
	// with contiguous indices readable across the segment boundary.
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.End(); got != 200 {
		t.Fatalf("End after reopen = %d, want 200", got)
	}
	if idx, err := l2.Append([]byte("after-reopen")); err != nil || idx != 200 {
		t.Fatalf("Append after reopen: idx=%d err=%v", idx, err)
	}
	recs := readAll(t, l2, 195)
	want := []string{"seg-000195", "seg-000196", "seg-000197", "seg-000198", "seg-000199", "after-reopen"}
	if len(recs) != len(want) {
		t.Fatalf("read %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("recs[%d] = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestReaderFollowsLiveWriter(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5, "a")
	r, err := l.Reader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := r.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF at tail, got %v", err)
	}
	// More records — across at least one rotation — must become visible to
	// the same Reader without reconstructing it.
	appendN(t, l, 20, "b")
	var got int
	for {
		_, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != 20 {
		t.Fatalf("reader saw %d new records, want 20", got)
	}
}

func TestConsumerOffsets(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, "c")

	if off, err := l.ConsumerOffset("retrainer"); err != nil || off != 0 {
		t.Fatalf("fresh consumer: off=%d err=%v", off, err)
	}
	if err := l.CommitConsumer("retrainer", 7); err != nil {
		t.Fatal(err)
	}
	if off, _ := l.ConsumerOffset("retrainer"); off != 7 {
		t.Fatalf("offset = %d, want 7", off)
	}
	if err := l.CommitConsumer("retrainer", 3); err == nil {
		t.Fatal("want error committing a backwards offset")
	}
	if err := l.CommitConsumer("retrainer", 11); err == nil {
		t.Fatal("want error committing past End")
	}
	if err := l.CommitConsumer("../evil", 1); err == nil {
		t.Fatal("want error for path-traversing consumer name")
	}
	if err := l.CommitConsumer("monitor", 10); err != nil {
		t.Fatal(err)
	}
	all, err := l.Consumers()
	if err != nil {
		t.Fatal(err)
	}
	if all["retrainer"] != 7 || all["monitor"] != 10 || len(all) != 2 {
		t.Fatalf("Consumers() = %v", all)
	}
	l.Close()

	// Offsets survive reopen — that is the whole point.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if off, _ := l2.ConsumerOffset("retrainer"); off != 7 {
		t.Fatalf("offset after reopen = %d, want 7", off)
	}
}

func TestAppendValidation(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("want error for empty record")
	}
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("want error for oversized record")
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, "x")
	if got := readAll(t, l, 0); len(got) != 3 {
		t.Fatalf("read %d records, want 3", len(got))
	}
}

func TestCorruptSealedSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 30, "s")
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Flip one payload byte in the middle of the FIRST (sealed) segment.
	path := filepath.Join(dir, segs[0].name)
	data, _ := os.ReadFile(path)
	data[headerSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	r, err := l2.Reader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, _, err := r.Next()
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCorrupt) {
			return // sealed-segment corruption must be loud, not silent EOF
		}
		t.Fatalf("want ErrCorrupt reading a damaged sealed segment, got %v", err)
	}
}

func TestCorruptConsumerFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.WriteFile(filepath.Join(dir, offsetsDir, "monitor"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ConsumerOffset("monitor"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("want corrupt-consumer error, got %v", err)
	}
}

// TestChunkedReadAcrossBoundaries mixes record sizes so frames straddle
// the reader's read-ahead chunks, including records larger than both the
// append buffer and a read chunk, and reads them back across a reopen.
func TestChunkedReadAcrossBoundaries(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 700, readChunkBytes - headerSize, 3, readChunkBytes + 1, 5000, 3 * writeBufBytes, 1}
	var want [][]byte
	for i := 0; i < 40; i++ {
		n := sizes[i%len(sizes)]
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	check := func(l *Log, label string) {
		r, err := l.Reader(0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i, w := range want {
			p, idx, err := r.Next()
			if err != nil || idx != uint64(i) || !bytes.Equal(p, w) {
				t.Fatalf("%s: record %d: idx=%d len=%d err=%v, want %d bytes", label, i, idx, len(p), err, len(w))
			}
		}
		if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: want EOF after %d records, got %v", label, len(want), err)
		}
	}
	check(l, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.End(); got != uint64(len(want)) {
		t.Fatalf("End after reopen = %d, want %d", got, len(want))
	}
	check(l2, "reopened")
}

// TestAppendsBatchIntoWrites pins the visibility contract: small appends
// share write calls, and after Sync the segment file holds every byte
// appended.
func TestAppendsBatchIntoWrites(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := telemetry.Default()
	writes0 := reg.CounterValue("frappe_wal_writes_total")
	bytes0 := reg.CounterValue("frappe_wal_appended_bytes_total")
	appendN(t, l, 1000, "batch")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	writes := reg.CounterValue("frappe_wal_writes_total") - writes0
	appended := reg.CounterValue("frappe_wal_appended_bytes_total") - bytes0
	if writes == 0 || writes > 1000/100 {
		t.Fatalf("1000 small appends took %d writes, want a handful", writes)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, segs[len(segs)-1].name))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(st.Size()) != appended {
		t.Fatalf("segment holds %d bytes after Sync, want all %d appended", st.Size(), appended)
	}
}

// TestReaderRereadsTailAfterEOF: a tail frame that fails its CRC reads as
// io.EOF, and once the bytes on disk become valid (a concurrent write
// landing) the same Reader must return the record, not a stale copy.
func TestReaderRereadsTailAfterEOF(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 2, "r")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := l.Reader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[0].name), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	frame := frameRecords("late-record")
	good := frame[len(frame)-1]
	frame[len(frame)-1] ^= 0xff
	if _, err := f.WriteAt(frame, st.Size()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("CRC-failing tail: got %v, want io.EOF", err)
	}
	if _, err := f.WriteAt([]byte{good}, st.Size()+int64(len(frame))-1); err != nil {
		t.Fatal(err)
	}
	p, idx, err := r.Next()
	if err != nil || idx != 2 || string(p) != "late-record" {
		t.Fatalf("after the tail became valid: %q idx=%d err=%v", p, idx, err)
	}
}
