package mypagekeeper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"frappe/internal/fbplatform"
)

// snapshotSHA hashes the monitor's observable state the way the
// benchmark's oracle does: every app's aggregate plus the stream counters.
func snapshotSHA(t *testing.T, m *Monitor) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Apps  map[string]AppStats
		Stats Stats
	}{m.Apps(), m.Stats()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// pinResolver expands one campaign URL to a subdomain of a blacklisted
// domain and a tenth of the bulk URLs to an exact-host blacklisted domain,
// so the pinned stream drives the resolver path as well.
func pinResolver(link string) (string, bool) {
	if strings.HasPrefix(link, "http://scam5.example/") {
		return "http://cdn.evil2.example/landing", true
	}
	if strings.HasPrefix(link, "http://bulk.example/p") && strings.HasSuffix(link, "7") {
		return "http://evil1.example/x" + link[len(link)-2:], true
	}
	return "", false
}

// TestSnapshotPinnedAcrossURLMemo pins the serial monitor's snapshot over
// genStream(20000), with and without a resolver. The digests were taken
// from the monitor before it memoized per-URL work (domain extraction,
// resolved target, clean-at-epoch stamps, one normalization per post), so
// the memo must reproduce the unmemoized classifier byte for byte.
func TestSnapshotPinnedAcrossURLMemo(t *testing.T) {
	for _, c := range []struct {
		name     string
		resolver func(string) (string, bool)
		want     string
	}{
		{"plain", nil, "cfa0266b1d30b7274278a9d3ddf52f28565c82f847f43bb31d04a952090af70c"},
		{"resolver", pinResolver, "34f4b30ad71b79d6a982b957ee6e81265f50e66c700058dff744b46129110afd"},
	} {
		m := NewSharded(DefaultClassifierConfig(), DefaultShards)
		m.SubscribeRange(0, 80)
		m.SetResolver(c.resolver)
		applySerial(m, genStream(20000))
		if got := snapshotSHA(t, m); got != c.want {
			t.Errorf("%s: snapshot sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestURLMemoInvalidation changes the answer for an already-seen clean URL
// mid-stream in each way the memo must notice; the next Observe must flag.
func TestURLMemoInvalidation(t *testing.T) {
	const link = "http://cdn.shop.example/item"
	for _, c := range []struct {
		name string
		// target is what the resolver expands link to ("" = not a short
		// link). before runs ahead of the clean observations, change
		// between them and the Observe that must flag.
		target         string
		before, change func(m *Monitor, target *string)
	}{
		{name: "blacklist its domain", change: func(m *Monitor, _ *string) {
			m.AddBlacklistedDomain("cdn.shop.example")
		}},
		{name: "blacklist a parent domain", change: func(m *Monitor, _ *string) {
			m.AddBlacklistedDomain("SHOP.example")
		}},
		{name: "blacklist the exact URL", change: func(m *Monitor, _ *string) {
			m.AddBlacklistedURL(link)
		}},
		{
			name:   "resolver moves to a blacklisted domain",
			target: "http://clean.example/landing",
			// The blacklist is settled before the URL is first seen, so
			// only the new target — not an epoch bump — can invalidate.
			before: func(m *Monitor, _ *string) { m.AddBlacklistedDomain("evil.example") },
			change: func(_ *Monitor, target *string) { *target = "http://landing.evil.example/x" },
		},
	} {
		m := New(DefaultClassifierConfig())
		m.Subscribe(1)
		target := c.target
		m.SetResolver(func(l string) (string, bool) {
			if l == link && target != "" {
				return target, true
			}
			return "", false
		})
		if c.before != nil {
			c.before(m, &target)
		}
		post := fbplatform.Post{UserID: 1, AppID: "app", Link: link, Message: "had a great day", Likes: 5}
		for i := 0; i < 4; i++ {
			if m.Observe(post) {
				t.Fatalf("%s: clean URL flagged on observation %d", c.name, i)
			}
		}
		c.change(m, &target)
		if !m.Observe(post) {
			t.Fatalf("%s: next Observe did not flag", c.name)
		}
	}
}

// TestDecodeEventAllocs bounds the allocations of decoding one typical
// (not piggybacked) post record: one string each for the app, message
// and link, with the source app sharing the app's string.
func TestDecodeEventAllocs(t *testing.T) {
	rec, err := AppendEvent(nil, WALEvent{Kind: KindPost, Post: fbplatform.Post{
		AppID: "app01", SourceAppID: "app01", UserID: 42,
		Message: "FREE ipad, hurry!", Link: "http://scam0.example/lure",
		Month: 7, Likes: 3, MaliciousLink: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeEvent(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("DecodeEvent of one post record: %.1f allocs, want <= 3", allocs)
	}
}

// TestNormalizeMsgMatchesReference checks the one-pass normalizer against
// its definition over pseudo-random text mixing case, every ASCII
// whitespace byte, Unicode spaces and case pairs, and invalid UTF-8.
func TestNormalizeMsgMatchesReference(t *testing.T) {
	ref := func(s string) string { return strings.Join(strings.Fields(strings.ToLower(s)), " ") }
	pieces := []string{"a", "Z", "free", "FREE", " ", "  ", "\t", "\n", "\v", "\f", "\r",
		"\u00a0", "\u0085", "\u212a", "\u0130", "\u00c9", "\xff", "!", "0", strings.Repeat("x", 130)}
	rng := &testLCG{s: 7}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.intn(12); n > 0; n-- {
			b.WriteString(pieces[rng.intn(len(pieces))])
		}
		if s := b.String(); normalizeMsg(s) != ref(s) {
			t.Fatalf("normalizeMsg(%q) = %q, want %q", s, normalizeMsg(s), ref(s))
		}
	}
	ascii := testing.AllocsPerRun(100, func() { normalizeMsg("WOW I just got 5000 Facebook Credits for Free") })
	canonical := testing.AllocsPerRun(100, func() { normalizeMsg("had a great day") })
	if ascii > 1 || canonical > 0 {
		t.Fatalf("allocs: ASCII text %.0f (want <= 1), canonical text %.0f (want 0)", ascii, canonical)
	}
}
