package mypagekeeper

// This file is the bridge between the monitor and the ingestion WAL
// (internal/wal): a deterministic binary codec for ingestion events and
// the serial replay that rebuilds a monitor from the log.
//
// The codec is hand-rolled varint framing rather than gob/JSON on
// purpose: replay equivalence is proved byte-for-byte against the serial
// monitor, so the encoding must be a pure function of the event — no
// per-stream type headers, no map iteration order, no float formatting.
// One WAL record holds exactly one event.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"frappe/internal/fbplatform"
	"frappe/internal/wal"
)

// EventKind discriminates WAL ingestion records.
type EventKind byte

const (
	// KindPost is one post streamed through the monitor.
	KindPost EventKind = 1
	// KindBlacklistURL is a URL-granularity blacklist add. Every add call
	// is logged, including idempotent re-adds — the log is the exact call
	// stream, which is what makes resume-by-skipping deterministic.
	KindBlacklistURL EventKind = 2
	// KindBlacklistDomain is a domain-granularity blacklist add.
	KindBlacklistDomain EventKind = 3
	// KindInstall is a user installing an app (the churn dimension the
	// monitor itself does not track; consumers like the retrainer can).
	KindInstall EventKind = 4
	// KindRemoval is a user removing an app.
	KindRemoval EventKind = 5
)

// WALEvent is one decoded ingestion event.
type WALEvent struct {
	Kind EventKind
	// Post is set for KindPost.
	Post fbplatform.Post
	// Value is the URL (KindBlacklistURL) or domain (KindBlacklistDomain).
	Value string
	// AppID and UserID are set for KindInstall / KindRemoval.
	AppID  string
	UserID int
}

// ErrBadEvent wraps every event-decoding failure.
var ErrBadEvent = errors.New("mypagekeeper: undecodable WAL event")

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendEvent appends ev's encoding to dst and returns the result. The
// encoding is deterministic: equal events encode to equal bytes.
func AppendEvent(dst []byte, ev WALEvent) ([]byte, error) {
	dst = append(dst, byte(ev.Kind))
	switch ev.Kind {
	case KindPost:
		p := ev.Post
		if p.UserID < 0 || p.Month < 0 || p.Likes < 0 {
			return nil, fmt.Errorf("mypagekeeper: negative post field (user %d month %d likes %d)",
				p.UserID, p.Month, p.Likes)
		}
		dst = appendString(dst, p.AppID)
		dst = appendString(dst, p.SourceAppID)
		dst = binary.AppendUvarint(dst, uint64(p.UserID))
		dst = appendString(dst, p.Message)
		dst = appendString(dst, p.Link)
		dst = binary.AppendUvarint(dst, uint64(p.Month))
		dst = binary.AppendUvarint(dst, uint64(p.Likes))
		var mal byte
		if p.MaliciousLink {
			mal = 1
		}
		dst = append(dst, mal)
	case KindBlacklistURL, KindBlacklistDomain:
		dst = appendString(dst, ev.Value)
	case KindInstall, KindRemoval:
		if ev.UserID < 0 {
			return nil, fmt.Errorf("mypagekeeper: negative user ID %d", ev.UserID)
		}
		dst = appendString(dst, ev.AppID)
		dst = binary.AppendUvarint(dst, uint64(ev.UserID))
	default:
		return nil, fmt.Errorf("mypagekeeper: unknown event kind %d", ev.Kind)
	}
	return dst, nil
}

// eventReader decodes primitives with bounds checking. The first failure
// sticks: later reads return zero values, and err reports it once the
// whole event has been read. Only AppendEvent's canonical forms are
// accepted (minimal varints, integers that fit an int, booleans 0 or 1),
// so every decodable record re-encodes to itself.
type eventReader struct {
	rest []byte
	err  error
}

func (r *eventReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 || (n > 1 && r.rest[n-1] == 0) { // overflow, or not minimal
		r.err = ErrBadEvent
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// natural reads a uvarint that must fit a non-negative int.
func (r *eventReader) natural() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.err = ErrBadEvent
		return 0
	}
	return int(v)
}

// field reads a length-prefixed byte string, aliasing the record.
func (r *eventReader) field() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.rest)) {
		r.err = ErrBadEvent
		return nil
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

func (r *eventReader) str() string { return string(r.field()) }

func (r *eventReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.rest) == 0 {
		r.err = ErrBadEvent
		return 0
	}
	b := r.rest[0]
	r.rest = r.rest[1:]
	return b
}

func (r *eventReader) bool() bool {
	b := r.byte()
	if b > 1 {
		r.err = ErrBadEvent
	}
	return b == 1
}

// DecodeEvent decodes one event. Trailing bytes are an error: a record
// holds exactly one event.
func DecodeEvent(data []byte) (WALEvent, error) {
	r := eventReader{rest: data}
	kind := r.byte()
	if r.err != nil {
		return WALEvent{}, r.err
	}
	ev := WALEvent{Kind: EventKind(kind)}
	switch ev.Kind {
	case KindPost:
		p := &ev.Post
		p.AppID = r.str()
		// A post's source app is its app unless it was piggybacked:
		// share the string rather than copy it again.
		if src := r.field(); string(src) == p.AppID {
			p.SourceAppID = p.AppID
		} else {
			p.SourceAppID = string(src)
		}
		p.UserID = r.natural()
		p.Message = r.str()
		p.Link = r.str()
		p.Month = r.natural()
		p.Likes = r.natural()
		p.MaliciousLink = r.bool()
	case KindBlacklistURL, KindBlacklistDomain:
		ev.Value = r.str()
	case KindInstall, KindRemoval:
		ev.AppID = r.str()
		ev.UserID = r.natural()
	default:
		return WALEvent{}, fmt.Errorf("%w: kind %d", ErrBadEvent, kind)
	}
	if r.err != nil {
		return WALEvent{}, r.err
	}
	if len(r.rest) != 0 {
		return WALEvent{}, fmt.Errorf("%w: %d trailing bytes", ErrBadEvent, len(r.rest))
	}
	return ev, nil
}

// ReplayStats summarises one replay pass.
type ReplayStats struct {
	// Records is the number of WAL records applied.
	Records uint64
	// Posts, Blacklists and Installs break Records down by kind
	// (Installs counts removals too).
	Posts      uint64
	Blacklists uint64
	Installs   uint64
	// Next is the record index replay stopped at — the offset a consumer
	// commits after fully processing the replayed view.
	Next uint64
}

// Replay applies the log's events from record index `from` serially into
// the monitor, exactly as the original serial stream would have: posts via
// Observe, blacklist adds via AddBlacklisted*. The resulting monitor state
// is byte-identical to one that observed the original stream (see the
// determinism suites). Install/removal events are handed to installs when
// non-nil and skipped otherwise — the monitor keeps no per-user install
// state.
func Replay(m *Monitor, log *wal.Log, from uint64, installs func(appID string, userID int, removed bool)) (ReplayStats, error) {
	r, err := log.Reader(from)
	if err != nil {
		return ReplayStats{Next: from}, err
	}
	defer r.Close()
	stats := ReplayStats{Next: from}
	for {
		payload, idx, err := r.Next()
		if errors.Is(err, io.EOF) {
			return stats, nil
		}
		if err != nil {
			return stats, fmt.Errorf("mypagekeeper: replaying record %d: %w", stats.Next, err)
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			return stats, fmt.Errorf("mypagekeeper: replaying record %d: %w", idx, err)
		}
		switch ev.Kind {
		case KindPost:
			m.Observe(ev.Post)
			stats.Posts++
		case KindBlacklistURL:
			m.AddBlacklistedURL(ev.Value)
			stats.Blacklists++
		case KindBlacklistDomain:
			m.AddBlacklistedDomain(ev.Value)
			stats.Blacklists++
		case KindInstall, KindRemoval:
			if installs != nil {
				installs(ev.AppID, ev.UserID, ev.Kind == KindRemoval)
			}
			stats.Installs++
		}
		stats.Records++
		stats.Next = idx + 1
	}
}
