package mypagekeeper

import (
	"bytes"
	"reflect"
	"testing"

	"frappe/internal/fbplatform"
)

// FuzzDecodeEvent feeds arbitrary records to the event decoder. It must
// never panic; any record it accepts must re-encode to the same bytes and
// decode again to the same event; and an event built from the input's
// bytes must survive Append then Decode unchanged.
//
//	go test -run '^$' -fuzz '^FuzzDecodeEvent$' -fuzztime=10s ./internal/mypagekeeper
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range codecVectors {
		rec, err := AppendEvent(nil, ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
		f.Add(append(append([]byte{}, rec...), 0))
	}
	for _, e := range genStream(40) {
		if e.blackURL == "" && !e.hasDomain {
			rec, err := AppendEvent(nil, WALEvent{Kind: KindPost, Post: e.post})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec)
		}
	}
	// Non-canonical forms the decoder must refuse: an overlong varint
	// user ID, and a malicious-link flag of 2.
	f.Add([]byte{byte(KindInstall), 1, 'a', 0x80, 0x00})
	f.Add([]byte{byte(KindPost), 0, 0, 0, 0, 0, 0, 0, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		if ev, err := DecodeEvent(data); err == nil {
			re, err := AppendEvent(nil, ev)
			if err != nil {
				t.Fatalf("decoded %+v does not re-encode: %v", ev, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted %x but re-encodes to %x", data, re)
			}
			requireRoundTrip(t, ev)
		}
		// An event whose fields are cut from the input.
		s := string(data)
		half := len(s) / 2
		requireRoundTrip(t, WALEvent{Kind: KindPost, Post: fbplatform.Post{
			AppID: s[:half], SourceAppID: s[half:], UserID: len(s),
			Message: s, Link: s[:len(s)/3], Month: half, Likes: len(s) % 7,
			MaliciousLink: len(s)%2 == 1,
		}})
		requireRoundTrip(t, WALEvent{Kind: KindBlacklistDomain, Value: s})
		requireRoundTrip(t, WALEvent{Kind: KindRemoval, AppID: s, UserID: half})
	})
}

func requireRoundTrip(t *testing.T, ev WALEvent) {
	t.Helper()
	rec, err := AppendEvent(nil, ev)
	if err != nil {
		t.Fatalf("AppendEvent(%+v): %v", ev, err)
	}
	got, err := DecodeEvent(rec)
	if err != nil {
		t.Fatalf("DecodeEvent(AppendEvent(%+v)): %v", ev, err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("round trip = %+v, want %+v", got, ev)
	}
}
