package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/calib"
)

func sampleEntries() []snapEntry {
	return []snapEntry{
		{kind: snapKindResult, key: "/api/v1/predict\x00{\"workload\":\"lr-small\",\"slaves\":3}", val: []byte(`{"total_minutes":4.2}` + "\n")},
		{kind: snapKindResult, key: "/api/v1/whatif\x00{\"workload\":\"sql\"}", val: []byte(`{"rows":[1,2,3]}` + "\n")},
		{kind: snapKindResult, key: "empty-value", val: nil},
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	in := sampleEntries()
	enc := appendSnapshot(nil, in)
	out, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].kind != in[i].kind || out[i].key != in[i].key || !bytes.Equal(out[i].val, in[i].val) {
			t.Fatalf("entry %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	// Encoding must be deterministic: same entries, same bytes.
	if again := appendSnapshot(nil, in); !bytes.Equal(again, enc) {
		t.Fatal("re-encoding the same entries produced different bytes")
	}
}

func TestSnapshotCodecEmpty(t *testing.T) {
	enc := appendSnapshot(nil, nil)
	out, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d entries from empty snapshot", len(out))
	}
}

func TestSnapshotDecodeRejectsDefects(t *testing.T) {
	valid := appendSnapshot(nil, sampleEntries())
	cases := map[string][]byte{
		"empty":         {},
		"short":         valid[:8],
		"bad magic":     append([]byte("NOTASNAP"), valid[8:]...),
		"truncated":     valid[:len(valid)-9],
		"trailing junk": append(append([]byte{}, valid...), 0xFF),
	}
	// Bit flips anywhere — magic, lengths, keys, values, checksum — must
	// be caught by the CRC (or the structure checks behind it).
	for i := 0; i < len(valid); i += 7 {
		flipped := append([]byte{}, valid...)
		flipped[i] ^= 0x40
		cases[fmt.Sprintf("bit flip at %d", i)] = flipped
	}
	// A wrong version with a RECOMPUTED valid checksum must still be
	// rejected: checksums authenticate bytes, versions gate formats.
	wrongVersion := append([]byte{}, snapshotMagic...)
	wrongVersion = append(wrongVersion, 99) // version 99
	wrongVersion = append(wrongVersion, 0)  // zero entries
	sum := crc32.ChecksumIEEE(wrongVersion)
	wrongVersion = binary.LittleEndian.AppendUint32(wrongVersion, sum)
	cases["wrong version, valid checksum"] = wrongVersion

	for name, data := range cases {
		if _, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotServerWarmStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	a := newTestServer(t, func(c *Config) { c.SnapshotPath = path })
	body := `{"workload":"lr-small","slaves":3,"cores":8}`
	first := post(t, a.Handler(), "/api/v1/predict", body)
	if first.Code != 200 {
		t.Fatalf("predict: status %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", got)
	}
	if err := a.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	if a.CacheStats().Entries < 2 {
		t.Fatalf("expected result + calibration entries, have %d", a.CacheStats().Entries)
	}

	// A fresh process (fresh Server) restores the snapshot and serves the
	// previously-computed answer as a byte-identical first-request hit,
	// calibration included: no simulator runs, no model fits.
	b := newTestServer(t, func(c *Config) { c.SnapshotPath = path })
	stats := b.CacheStats()
	if stats.Entries != a.CacheStats().Entries {
		t.Fatalf("restored %d entries, want %d", stats.Entries, a.CacheStats().Entries)
	}
	if stats.Hits != 0 || stats.Misses != 0 {
		t.Fatalf("restore polluted stats: %+v", stats)
	}
	start := time.Now()
	again := post(t, b.Handler(), "/api/v1/predict", body)
	warmLatency := time.Since(start)
	if again.Code != 200 {
		t.Fatalf("warm predict: status %d", again.Code)
	}
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("first request after warm start: X-Cache %q, want hit", got)
	}
	if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("warm-start response differs from the original bytes")
	}
	// Generous bound: a hit is a map lookup; a recompute is simulator runs.
	if warmLatency > 5*time.Second {
		t.Fatalf("warm hit took %v; looks like a recompute", warmLatency)
	}
}

func TestSnapshotMissingFileColdBoot(t *testing.T) {
	var events strings.Builder
	s := newTestServer(t, func(c *Config) {
		c.SnapshotPath = filepath.Join(t.TempDir(), "never-written.snap")
		c.EventLog = &events
	})
	if n := s.CacheStats().Entries; n != 0 {
		t.Fatalf("cold boot restored %d entries", n)
	}
	if events.Len() != 0 {
		t.Fatalf("missing snapshot logged noise: %q", events.String())
	}
	rec := post(t, s.Handler(), "/api/v1/predict", `{"workload":"lr-small","slaves":3,"cores":8}`)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold boot first request: status %d X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

func TestSnapshotCorruptFileRejectedAndLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path, []byte("DOPSNAP\ngarbage everywhere"), 0o644); err != nil {
		t.Fatal(err)
	}
	var events strings.Builder
	s := newTestServer(t, func(c *Config) {
		c.SnapshotPath = path
		c.EventLog = &events
	})
	if n := s.CacheStats().Entries; n != 0 {
		t.Fatalf("corrupt snapshot restored %d entries", n)
	}
	if !strings.Contains(events.String(), "rejected") {
		t.Fatalf("corrupt snapshot not logged: %q", events.String())
	}
	if got := s.snapRejected.Value(); got != 1 {
		t.Fatalf("snapshot_rejected_total = %d, want 1", got)
	}
}

func TestSnapshotWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	s := newTestServer(t, func(c *Config) { c.SnapshotPath = path })
	s.cache.Put("/api/v1/predict\x00{}", []byte("one"))
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put("/api/v1/predict\x00{\"slaves\":4}", []byte("two"))
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	// No temp droppings, and the file is always a complete valid snapshot.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "cache.snap" {
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = f.Name()
		}
		t.Fatalf("snapshot dir has %v, want exactly [cache.snap]", names)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cur, old) {
		t.Fatal("second snapshot did not replace the first")
	}
	if _, err := decodeSnapshot(cur); err != nil {
		t.Fatalf("replaced snapshot invalid: %v", err)
	}
	if got := s.snapWrites.Value(); got != 2 {
		t.Fatalf("snapshot_writes_total = %d, want 2", got)
	}
}

func TestSnapshotPreservesLRUOrder(t *testing.T) {
	// Restoring a snapshot into a smaller cache must keep the NEWEST
	// entries — proof the oldest→newest wire order round-trips recency.
	big := calib.NewCache(8)
	for i := 0; i < 8; i++ {
		big.Put(fmt.Sprintf("/api/k%d", i), []byte{byte(i)})
	}
	entries, err := exportEntries(big)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSnapshot(appendSnapshot(nil, entries))
	if err != nil {
		t.Fatal(err)
	}
	small := calib.NewCache(3)
	if _, _, err := restoreEntries(small, dec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := small.Peek(fmt.Sprintf("/api/k%d", i)); ok {
			t.Fatalf("old entry k%d survived a 3-entry restore", i)
		}
	}
	for i := 5; i < 8; i++ {
		if _, ok := small.Peek(fmt.Sprintf("/api/k%d", i)); !ok {
			t.Fatalf("recent entry k%d lost in restore", i)
		}
	}
}

func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DOPSNAP\n"))
	f.Add(appendSnapshot(nil, nil))
	f.Add(appendSnapshot(nil, sampleEntries()))
	f.Add(appendSnapshot(nil, []snapEntry{{kind: snapKindCalibration, key: "calibration\x00testbed\x00wc\x003", val: []byte{1, 2, 3}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes must never panic the decoder; whatever it
		// accepts must survive a re-encode/re-decode cycle unchanged.
		if entries, err := decodeSnapshot(data); err == nil {
			back, err := decodeSnapshot(appendSnapshot(nil, entries))
			if err != nil {
				t.Fatalf("re-decode of accepted snapshot failed: %v", err)
			}
			compareSnapEntries(t, entries, back)
		}
		// Encode→decode must be the identity on arbitrary entry content,
		// keys and values alike (binary, NULs, non-UTF8, empty).
		mid := len(data) / 2
		in := []snapEntry{
			{kind: byte(len(data) % 2), key: string(data[:mid]), val: data[mid:]},
			{kind: snapKindResult, key: "", val: nil},
		}
		out, err := decodeSnapshot(appendSnapshot(nil, in))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		compareSnapEntries(t, in, out)
	})
}

func compareSnapEntries(t *testing.T, want, got []snapEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].kind != want[i].kind || got[i].key != want[i].key || !bytes.Equal(got[i].val, want[i].val) {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}
