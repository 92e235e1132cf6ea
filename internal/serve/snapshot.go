package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
)

// Snapshot format, version 1 (all integers little-endian or uvarint):
//
//	magic    8 bytes   "DOPSNAP\n"
//	version  uvarint   currently 1
//	count    uvarint   number of entries
//	entries  count ×:
//	  kind   1 byte    0 = result bytes, 1 = gob-encoded *core.Calibration
//	  klen   uvarint   key length, then key bytes
//	  vlen   uvarint   value length, then value bytes
//	crc      4 bytes   IEEE CRC-32 over everything above, little-endian
//
// Entries are ordered oldest → newest so replaying them through the LRU
// reproduces the recency order the snapshot was taken with. The trailing
// checksum makes torn or bit-flipped files detectable before any entry
// is trusted; decodeSnapshot never panics on arbitrary input (fuzz-pinned
// by FuzzSnapshotRoundTrip).

const (
	snapshotMagic   = "DOPSNAP\n"
	snapshotVersion = 1

	snapKindResult      = 0
	snapKindCalibration = 1
)

// snapEntry is one cache entry in wire form. For result entries val is
// the response bytes themselves; for calibration entries it is a gob
// encoding of the *core.Calibration.
type snapEntry struct {
	kind byte
	key  string
	val  []byte
}

// appendSnapshot appends the encoded snapshot to dst and returns the
// extended slice. It allocates nothing beyond dst's growth, so a caller
// reusing dst across snapshots encodes with zero allocations
// (BenchmarkSnapshotEncode pins this).
func appendSnapshot(dst []byte, entries []snapEntry) []byte {
	start := len(dst)
	dst = append(dst, snapshotMagic...)
	dst = binary.AppendUvarint(dst, snapshotVersion)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = append(dst, e.kind)
		dst = binary.AppendUvarint(dst, uint64(len(e.key)))
		dst = append(dst, e.key...)
		dst = binary.AppendUvarint(dst, uint64(len(e.val)))
		dst = append(dst, e.val...)
	}
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// decodeSnapshot parses and fully validates a snapshot. Any defect —
// bad magic, unsupported version, truncation, trailing garbage, length
// overflow, checksum mismatch — returns an error; no partially-decoded
// entries are ever returned. The returned entries alias data.
func decodeSnapshot(data []byte) ([]snapEntry, error) {
	if len(data) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad snapshot magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snapshot checksum mismatch: file says %08x, contents hash to %08x", want, got)
	}
	rest := body[len(snapshotMagic):]
	version, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("unreadable snapshot version")
	}
	rest = rest[n:]
	if version != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (want %d)", version, snapshotVersion)
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("unreadable entry count")
	}
	rest = rest[n:]
	if count > uint64(len(rest)) { // each entry needs >= 3 bytes; cheap overflow guard
		return nil, fmt.Errorf("entry count %d exceeds snapshot size", count)
	}
	entries := make([]snapEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("entry %d: truncated before kind", i)
		}
		kind := rest[0]
		rest = rest[1:]
		if kind != snapKindResult && kind != snapKindCalibration {
			return nil, fmt.Errorf("entry %d: unknown kind %d", i, kind)
		}
		key, rem, err := snapField(rest)
		if err != nil {
			return nil, fmt.Errorf("entry %d key: %v", i, err)
		}
		val, rem, err := snapField(rem)
		if err != nil {
			return nil, fmt.Errorf("entry %d value: %v", i, err)
		}
		rest = rem
		entries = append(entries, snapEntry{kind: kind, key: string(key), val: val})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last entry", len(rest))
	}
	return entries, nil
}

// snapField reads one uvarint-length-prefixed field.
func snapField(b []byte) (field, rest []byte, err error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("unreadable length")
	}
	b = b[n:]
	if l > uint64(len(b)) {
		return nil, nil, fmt.Errorf("length %d exceeds remaining %d bytes", l, len(b))
	}
	return b[:l], b[l:], nil
}

// exportEntries freezes c into wire entries, oldest → newest. Result
// entries are aliased, not copied (cached bodies are immutable);
// calibrations are gob-encoded. Values of any other type (none exist
// today) are skipped rather than failing the snapshot.
func exportEntries(c *calib.Cache) ([]snapEntry, error) {
	entries := make([]snapEntry, 0, c.Stats().Entries)
	err := c.Range(func(key string, val any) error {
		switch v := val.(type) {
		case []byte:
			entries = append(entries, snapEntry{kind: snapKindResult, key: key, val: v})
		case *core.Calibration:
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				return fmt.Errorf("encoding calibration %q: %w", key, err)
			}
			entries = append(entries, snapEntry{kind: snapKindCalibration, key: key, val: buf.Bytes()})
		}
		return nil
	})
	return entries, err
}

// restoreEntries replays decoded entries into c in order, so the newest
// snapshot entry ends up most recent. It validates every entry before
// touching c: a snapshot either restores whole or not at all. It runs
// in New, before any request can reach c. Hit/miss counters are
// untouched — restored entries answer their first lookup as an
// ordinary hit.
func restoreEntries(c *calib.Cache, entries []snapEntry) (results, calibrations int, err error) {
	vals := make([]any, len(entries))
	for i, e := range entries {
		switch e.kind {
		case snapKindResult:
			vals[i] = e.val
		case snapKindCalibration:
			cal := new(core.Calibration)
			if err := gob.NewDecoder(bytes.NewReader(e.val)).Decode(cal); err != nil {
				return 0, 0, fmt.Errorf("decoding calibration %q: %v", e.key, err)
			}
			vals[i] = cal
		default:
			return 0, 0, fmt.Errorf("entry %q: unknown kind %d", e.key, e.kind)
		}
	}
	for i, e := range entries {
		c.Put(e.key, vals[i])
		if e.kind == snapKindResult {
			results++
		} else {
			calibrations++
		}
	}
	return results, calibrations, nil
}

// writeSnapshot encodes the current cache state and atomically replaces
// the snapshot file: write to a temp file in the same directory, fsync,
// rename over the target, fsync the directory. A crash at any point
// leaves either the old complete snapshot or the new complete snapshot,
// never a torn file.
func (s *Server) writeSnapshot() error {
	entries, err := exportEntries(s.cache)
	if err != nil {
		return err
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.snapBuf = appendSnapshot(s.snapBuf[:0], entries)
	path := s.cfg.SnapshotPath
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(s.snapBuf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	s.snapWrites.Inc()
	s.snapLastBytes.Set(int64(len(s.snapBuf)))
	return nil
}

// loadSnapshot warm-starts the cache from Config.SnapshotPath. A missing
// file is a normal cold boot. Anything else that stops the restore —
// unreadable file, failed validation, undecodable entry — is logged and
// counted, and the server boots cold: a snapshot is an optimization,
// never an authority.
func (s *Server) loadSnapshot() {
	path := s.cfg.SnapshotPath
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.snapRejected.Inc()
			s.eventf("serve: snapshot %s unreadable, booting cold: %v", path, err)
		}
		return
	}
	entries, err := decodeSnapshot(data)
	if err != nil {
		s.snapRejected.Inc()
		s.eventf("serve: snapshot %s rejected, booting cold: %v", path, err)
		return
	}
	results, calibrations, err := restoreEntries(s.cache, entries)
	if err != nil {
		s.snapRejected.Inc()
		s.eventf("serve: snapshot %s rejected, booting cold: %v", path, err)
		return
	}
	s.snapRestored.Set(int64(results + calibrations))
	s.eventf("serve: warm start from %s: %d result + %d calibration entries", path, results, calibrations)
}

// snapshotLoop writes a snapshot every interval until ctx is done. Run
// takes one final snapshot after the drain completes, so a SIGTERM'd
// replica hands its successor a cache that includes everything it served.
func (s *Server) snapshotLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.writeSnapshot(); err != nil {
				s.snapWriteErrors.Inc()
				s.eventf("serve: snapshot write failed: %v", err)
			}
		}
	}
}
