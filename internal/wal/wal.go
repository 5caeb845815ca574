// Package wal is an append-only, segment-rotated write-ahead log for the
// ingestion stream — the durability layer under the sharded MyPageKeeper
// monitor. The paper's deployment assumes the post/install/blacklist
// stream can always be re-fetched; a real one cannot (apps get deleted,
// feeds churn), so every event is made durable before it is applied and a
// crashed process rebuilds its state by replay instead of re-crawling.
//
// On-disk layout, rooted at one directory:
//
//	seg-<%016x>.wal   record segments; the hex is the index of the first
//	                  record in the segment
//	offsets/<name>    committed consumer offsets (fsx.WriteAtomic JSON)
//
// Record framing, little-endian:
//
//	uint32 length | uint32 CRC32C(payload) | payload
//
// Fsync contract: appended records are guaranteed durable after Sync
// (callers place it at barriers: blacklist adds, session close, consumer
// commits), after a segment rotation (a sealed segment is never touched
// again), and every Options.SyncEvery records. Between syncs a crash may
// lose the tail — but never tear it silently: Open scans the last segment
// and truncates at the first record whose length or checksum does not
// hold, so the log always reopens to a valid prefix of what was appended.
//
// Visibility contract: Append frames records into a fixed 64 KiB
// in-process buffer that reaches the segment file in one write(2) when it
// fills, and at every Sync, rotation and Close. Other processes therefore
// see appends at those points, and a process killed between barriers
// (SIGKILL included, not only power loss) may lose its unsynced tail —
// which the fsync contract above already allowed. A Reader of the same
// Log flushes the buffer when it is created and whenever it reaches the
// tail, so same-process readers still see every appended record.
//
// Consumers are named cursors into the record index space. An offset is
// committed atomically (temp file + fsync + rename + dir fsync) and is
// the "everything before this has been fully processed" watermark, letting
// the retrainer and monitor replicas resume where they left off.
//
// Metrics (process default registry):
//
//	frappe_wal_appended_records_total   records appended
//	frappe_wal_appended_bytes_total     payload + framing bytes appended
//	frappe_wal_writes_total             write(2) calls on segment files
//	frappe_wal_fsync_total              file fsyncs issued
//	frappe_wal_segment_rotations_total  segment rotations
//	frappe_wal_truncated_tail_bytes_total bytes cut by torn-tail recovery
//	frappe_wal_replay_records_total     records handed out by readers
//	frappe_wal_consumer_offset{consumer}  last committed offset
//	frappe_wal_consumer_lag{consumer}     End() - committed offset
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"frappe/internal/fsx"
	"frappe/internal/telemetry"
)

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	offsetsDir = "offsets"
	headerSize = 8 // uint32 length + uint32 crc

	// writeBufBytes is the append buffer: records accumulate here and
	// reach the segment file in one write when it fills (or at a barrier).
	writeBufBytes = 64 << 10

	// readChunkBytes is how far a Reader reads ahead in one read call.
	readChunkBytes = 64 << 10

	// DefaultSegmentBytes is the rotation threshold when Options leaves it
	// zero: small enough that sealing (and fsyncing) happens regularly,
	// large enough that a scale-0.15 world fits in a handful of segments.
	DefaultSegmentBytes = 4 << 20

	// MaxRecordBytes bounds a single record. Ingestion events are tens to
	// hundreds of bytes; anything near this size in a length header is
	// corruption, and treating it as such keeps torn-tail recovery from
	// attempting a gigabyte allocation.
	MaxRecordBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed its length or checksum validation
// in a sealed (non-tail) position, where torn-write recovery does not apply.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tune a Log; the zero value is ready to use.
type Options struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, the segment is fsynced, sealed and a new one started.
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery fsyncs the active segment after every N appended records.
	// 0 means fsync only on rotation, Sync and Close — the barrier-driven
	// contract the ingester uses.
	SyncEvery int
}

// Log is a single-writer append log. Append/Sync/Close serialise through
// an internal mutex; Reader and consumer-offset calls are safe to use
// concurrently with the writer, including from other processes.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	active     *os.File
	activeBase uint64 // record index of the active segment's first record
	activeOff  int64  // bytes written to the active segment
	next       uint64 // index the next appended record receives
	unsynced   int    // records appended since the last fsync
	closed     bool
	pending    []byte // framed records not yet written (cap writeBufBytes)

	appended  *telemetry.Counter
	bytes     *telemetry.Counter
	writes    *telemetry.Counter
	fsyncs    *telemetry.Counter
	rotations *telemetry.Counter
	replayed  *telemetry.Counter
	offsetG   *telemetry.GaugeVec
	lagG      *telemetry.GaugeVec
}

// Open opens (creating if needed) the log rooted at dir and recovers it:
// the newest segment is scanned record by record and truncated at the
// first torn or corrupt record, so the log reopens to the longest valid
// prefix of what was ever appended. Sealed (non-newest) segments are
// trusted; readers still checksum every record they return.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, offsetsDir), 0o755); err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", dir, err)
	}
	reg := telemetry.Default()
	l := &Log{
		dir:     dir,
		opts:    opts,
		pending: make([]byte, 0, writeBufBytes),
		appended: reg.Counter("frappe_wal_appended_records_total",
			"Records appended to the ingestion WAL.").With(),
		bytes: reg.Counter("frappe_wal_appended_bytes_total",
			"Bytes (payload plus framing) appended to the ingestion WAL.").With(),
		writes: reg.Counter("frappe_wal_writes_total",
			"write(2) calls on ingestion WAL segments (records per write = appended / writes).").With(),
		fsyncs: reg.Counter("frappe_wal_fsync_total",
			"File fsyncs issued by the ingestion WAL.").With(),
		rotations: reg.Counter("frappe_wal_segment_rotations_total",
			"Segment rotations of the ingestion WAL.").With(),
		replayed: reg.Counter("frappe_wal_replay_records_total",
			"Records handed to WAL readers (replay and tailing).").With(),
		offsetG: reg.Gauge("frappe_wal_consumer_offset",
			"Last committed WAL offset, per named consumer.", "consumer"),
		lagG: reg.Gauge("frappe_wal_consumer_lag",
			"Records between the WAL end and the consumer's committed offset.", "consumer"),
	}
	truncCounter := reg.Counter("frappe_wal_truncated_tail_bytes_total",
		"Bytes removed by torn-tail truncation when reopening the WAL.")

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.startSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := segs[len(segs)-1]
	count, validLen, fileLen, err := scanSegment(filepath.Join(dir, last.name))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: reopening %s: %w", last.name, err)
	}
	if validLen < fileLen {
		// Torn tail: cut back to the last record whose frame checks out.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing truncated %s: %w", last.name, err)
		}
		truncCounter.With().Add(uint64(fileLen - validLen))
		l.fsyncs.Inc()
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking %s: %w", last.name, err)
	}
	l.active = f
	l.activeBase = last.base
	l.activeOff = validLen
	l.next = last.base + count
	return l, nil
}

// segment is one segment file: its name and the index of its first record.
type segment struct {
	name string
	base uint64
}

func segmentName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var base uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix),
			"%016x", &base); err != nil {
			continue
		}
		segs = append(segs, segment{name: name, base: base})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// scanSegment walks a segment validating frames, returning the number of
// valid records, the byte offset the valid prefix ends at, and the file
// length. Any anomaly — truncated header, truncated payload, absurd
// length, checksum mismatch — ends the valid prefix there.
func scanSegment(path string) (count uint64, validLen, fileLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: scanning %s: %w", path, err)
	}
	fileLen = int64(len(data))
	for {
		rest := data[validLen:]
		if len(rest) < headerSize {
			return count, validLen, fileLen, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > MaxRecordBytes || int64(len(rest)) < headerSize+int64(n) {
			return count, validLen, fileLen, nil
		}
		payload := rest[headerSize : headerSize+int64(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return count, validLen, fileLen, nil
		}
		validLen += headerSize + int64(n)
		count++
	}
}

// startSegment creates and activates the segment whose first record is
// base, fsyncing the directory so the file itself survives a crash.
func (l *Log) startSegment(base uint64) error {
	path := filepath.Join(l.dir, segmentName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := fsx.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing dir after segment create: %w", err)
	}
	l.active = f
	l.activeBase = base
	l.activeOff = 0
	l.next = base
	return nil
}

// Append adds one record and returns its index. The record is durable
// after the next Sync / rotation / SyncEvery-triggered fsync. It is
// visible at once to Readers of this Log; other processes see it once the
// append buffer is written — when it fills, or at the next Sync, rotation
// or Close.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	need := headerSize + len(payload)
	if len(l.pending) > 0 && len(l.pending)+need > writeBufBytes {
		if err := l.flushLocked(); err != nil {
			return 0, fmt.Errorf("wal: appending record %d: %w", l.next, err)
		}
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	// A record larger than the buffer grows it for this one frame;
	// flushLocked shrinks it back.
	l.pending = append(append(l.pending, hdr[:]...), payload...)
	idx := l.next
	l.next++
	l.activeOff += int64(need)
	l.unsynced++
	l.appended.Inc()
	l.bytes.Add(uint64(need))
	if l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.activeOff >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// flushLocked writes the append buffer to the active segment in one
// write. On a failed write the bytes that did not land stay buffered, so
// a later flush continues exactly where the file ends.
func (l *Log) flushLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	n, err := l.active.Write(l.pending)
	l.writes.Inc()
	if err != nil {
		l.pending = l.pending[:copy(l.pending, l.pending[n:])]
		return fmt.Errorf("wal: write: %w", err)
	}
	if cap(l.pending) > writeBufBytes {
		l.pending = make([]byte, 0, writeBufBytes)
	} else {
		l.pending = l.pending[:0]
	}
	return nil
}

// flush makes buffered appends visible in the segment file without
// fsyncing them: what a same-process Reader calls before reading.
func (l *Log) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.flushLocked()
}

// Sync makes every appended record durable — the barrier the ingester
// issues around blacklist adds, flushes and session close. It writes the
// append buffer first, so every record appended before Sync is covered.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.unsynced == 0 {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.unsynced = 0
	l.fsyncs.Inc()
	return nil
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one. A sealed segment is never written again.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return fmt.Errorf("wal: flushing before rotation: %w", err)
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync before rotation: %w", err)
	}
	l.fsyncs.Inc()
	l.unsynced = 0
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.rotations.Inc()
	return l.startSegment(l.next)
}

// Close writes the append buffer, syncs and closes the log. Further
// writes fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.closed = true
	return l.active.Close()
}

// End returns the index the next record will receive — the total number of
// records ever appended (and, after Open, recovered).
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// consumerRecord is the on-disk offset file.
type consumerRecord struct {
	Consumer string `json:"consumer"`
	Offset   uint64 `json:"offset"`
}

func validConsumer(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("wal: invalid consumer name %q", name)
	}
	return nil
}

// ConsumerOffset returns name's committed offset: every record before it
// has been fully processed by that consumer. A never-committed consumer
// reads as 0.
func (l *Log) ConsumerOffset(name string) (uint64, error) {
	if err := validConsumer(name); err != nil {
		return 0, err
	}
	raw, err := os.ReadFile(filepath.Join(l.dir, offsetsDir, name))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading consumer %s: %w", name, err)
	}
	var rec consumerRecord
	if err := json.Unmarshal(raw, &rec); err != nil || rec.Consumer != name {
		return 0, fmt.Errorf("wal: consumer file %s corrupt", name)
	}
	return rec.Offset, nil
}

// CommitConsumer durably records that name has processed every record
// before off. Offsets may not exceed End() and may not move backwards.
func (l *Log) CommitConsumer(name string, off uint64) error {
	if err := validConsumer(name); err != nil {
		return err
	}
	if end := l.End(); off > end {
		return fmt.Errorf("wal: consumer %s offset %d past end %d", name, off, end)
	}
	prev, err := l.ConsumerOffset(name)
	if err != nil {
		return err
	}
	if off < prev {
		return fmt.Errorf("wal: consumer %s offset moving backwards (%d < %d)", name, off, prev)
	}
	data, err := json.Marshal(consumerRecord{Consumer: name, Offset: off})
	if err != nil {
		return err
	}
	if err := fsx.WriteAtomic(filepath.Join(l.dir, offsetsDir, name), append(data, '\n')); err != nil {
		return fmt.Errorf("wal: committing consumer %s: %w", name, err)
	}
	l.offsetG.With(name).Set(float64(off))
	l.lagG.With(name).Set(float64(l.End() - off))
	return nil
}

// Consumers returns every committed consumer offset.
func (l *Log) Consumers() (map[string]uint64, error) {
	entries, err := os.ReadDir(filepath.Join(l.dir, offsetsDir))
	if err != nil {
		return nil, fmt.Errorf("wal: listing consumers: %w", err)
	}
	out := make(map[string]uint64, len(entries))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		off, err := l.ConsumerOffset(e.Name())
		if err != nil {
			return nil, err
		}
		out[e.Name()] = off
	}
	return out, nil
}

// Reader iterates records in index order, across segment boundaries. It
// holds its own file handles, so it is safe alongside the writer; on the
// newest segment an incomplete or checksum-failing tail reads as io.EOF
// (the writer may be mid-append), while the same anomaly in a sealed
// segment is ErrCorrupt. It reads ahead in chunks of at least 64 KiB and
// parses frames out of that buffer.
type Reader struct {
	log  *Log
	segs []segment
	si   int      // index into segs of the open segment
	f    *os.File // open segment file
	off  int64    // byte offset into f of the next frame
	next uint64   // index of the next record to return

	// buf holds the segment bytes [bufStart, bufStart+len(buf)).
	buf      []byte
	bufStart int64
}

// Reader returns an iterator positioned at record index from. Requesting
// an index past End() yields io.EOF on the first Next.
func (l *Log) Reader(from uint64) (*Reader, error) {
	if err := l.flush(); err != nil {
		return nil, err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, errors.New("wal: no segments")
	}
	// The segment containing `from` is the one with the largest base <= it.
	si := sort.Search(len(segs), func(i int) bool { return segs[i].base > from }) - 1
	if si < 0 {
		return nil, fmt.Errorf("wal: no segment covers record %d", from)
	}
	r := &Reader{log: l, segs: segs, si: si, next: segs[si].base,
		buf: make([]byte, 0, readChunkBytes)}
	if err := r.open(); err != nil {
		return nil, err
	}
	// Skip forward to `from` inside the segment.
	for r.next < from {
		if _, _, err := r.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return r, nil // `from` is past the end; first Next reports EOF
			}
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

func (r *Reader) open() error {
	f, err := os.Open(filepath.Join(r.log.dir, r.segs[r.si].name))
	if err != nil {
		return fmt.Errorf("wal: opening segment for read: %w", err)
	}
	r.f, r.off = f, 0
	r.buf, r.bufStart = r.buf[:0], 0
	return nil
}

// Next returns the next record's payload and index. io.EOF means the end
// of the log (for now — appending more and calling Next again works). The
// returned slice is reused by the following Next call.
func (r *Reader) Next() ([]byte, uint64, error) {
	flushed := false
	for {
		payload, err := r.readRecord()
		if err == nil {
			idx := r.next
			r.next++
			r.log.replayed.Inc()
			return payload, idx, nil
		}
		if !errors.Is(err, io.EOF) {
			return nil, 0, err
		}
		// End of this segment. If a later segment exists, the current one is
		// sealed and must have ended cleanly; otherwise this is the tail.
		if r.si+1 >= len(r.segs) {
			// Records this process appended may still sit in the Log's
			// append buffer: write it out and look again, once.
			if !flushed {
				flushed = true
				if err := r.log.flush(); err != nil {
					return nil, 0, err
				}
				continue
			}
			// The writer may have rotated since this Reader was created —
			// refresh the directory listing once before declaring EOF.
			segs, lerr := listSegments(r.log.dir)
			if lerr != nil {
				return nil, 0, lerr
			}
			if len(segs) > len(r.segs) {
				r.segs = segs
				continue
			}
			return nil, 0, io.EOF
		}
		if r.segs[r.si+1].base != r.next {
			return nil, 0, fmt.Errorf("%w: segment %s ends at record %d, next starts at %d",
				ErrCorrupt, r.segs[r.si].name, r.next, r.segs[r.si+1].base)
		}
		r.f.Close()
		r.si++
		if err := r.open(); err != nil {
			return nil, 0, err
		}
	}
}

// readRecord parses one frame at r.off. io.EOF means "no complete valid
// record here": a clean end-of-segment, a torn tail, or a corrupt record —
// the caller disambiguates by whether a later segment exists. Buffered
// bytes from r.off on are then dropped, so the next attempt re-reads them
// from the file (a live writer may have completed the frame since).
func (r *Reader) readRecord() ([]byte, error) {
	hdr, err := r.window(headerSize)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > MaxRecordBytes {
		return nil, r.tail()
	}
	frame, err := r.window(headerSize + int(n))
	if err != nil {
		return nil, err
	}
	payload := frame[headerSize:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, r.tail()
	}
	r.off += headerSize + int64(n)
	return payload, nil
}

// window returns the k segment bytes starting at r.off, reading ahead in
// chunks of at least readChunkBytes when the buffer runs short. Fewer than
// k bytes left in the file is io.EOF.
func (r *Reader) window(k int) ([]byte, error) {
	lo := int(r.off - r.bufStart)
	if lo+k > len(r.buf) {
		// Slide the unparsed bytes to the front, make room, read ahead.
		rest := copy(r.buf[:cap(r.buf)], r.buf[lo:])
		r.buf, r.bufStart, lo = r.buf[:rest], r.off, 0
		if want := max(k, readChunkBytes); cap(r.buf) < want {
			r.buf = append(make([]byte, 0, want), r.buf...)
		}
		m, err := r.f.ReadAt(r.buf[rest:cap(r.buf)], r.bufStart+int64(rest))
		r.buf = r.buf[:rest+m]
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("wal: reading segment: %w", err)
		}
		if k > len(r.buf) {
			return nil, r.tail()
		}
	}
	return r.buf[lo : lo+k], nil
}

// tail drops the buffered bytes from r.off on and reports io.EOF.
func (r *Reader) tail() error {
	r.buf = r.buf[:r.off-r.bufStart]
	return io.EOF
}

// Index returns the index of the record the next Next call will return.
func (r *Reader) Index() uint64 { return r.next }

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f != nil {
		return r.f.Close()
	}
	return nil
}
