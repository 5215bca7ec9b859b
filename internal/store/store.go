// Package store is the coordinator's segmented on-disk trace store:
// every capture frame the coordinator stages in RAM is also appended
// to checksummed, size-rotated segment files, so the run outlives its
// process as a capture bundle. The store is write-only while the run
// goes on; it is read once sealed. The unit of storage is one capture
// frame body (the same version|kind|seq|payload bytes the wire carried)
// wrapped in a wire.SegmentRecord tagging origin and epoch — replay is
// the very decode path live ingest uses, so a trace assembled from the
// bundle is byte-identical to one assembled from the in-RAM staging.
//
// Segment file layout:
//
//	[8-byte magic "PCSEG1\x00\x00"]
//	record*: [u32 big-endian length][u32 big-endian CRC-32 (IEEE) of body][body]
//	body = wire frame body of a SegmentRecord
//
// A bundle is read one way: a sequential scan of its segments, which
// readers filter to the sealed epoch. §8 controlled re-execution voids
// a partial execution by moving the cluster to a later epoch, so the
// voided records stay in their segments, never read again, and the
// write path stays append-only. Seal writes a MANIFEST.json over the
// segments — name, size, CRC — turning the directory into a
// self-contained capture bundle that `pctl bundle verify` can check and
// `pctl bundle trace` can reassemble air-gapped.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// magic opens every segment file; a file without it is not a segment.
var magic = []byte("PCSEG1\x00\x00")

// ManifestName is the bundle manifest's file name.
const ManifestName = "MANIFEST.json"

// DefaultSegmentBytes is the rotation threshold when Config leaves it 0.
const DefaultSegmentBytes = 4 << 20

// recordOverhead is the per-record framing cost (length + checksum).
const recordOverhead = 8

// Config configures a Store.
type Config struct {
	// Dir is the segment directory; created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it grows past this
	// size (DefaultSegmentBytes when 0).
	SegmentBytes int64
	// Reg, when non-nil, receives the predctl_store_segment_bytes and
	// predctl_store_segments_total gauges.
	Reg *obs.Registry
}

// segment is one on-disk segment file's write-side state.
type segment struct {
	name    string
	f       *os.File
	w       *bufio.Writer
	size    int64
	records int
}

// Store is a segmented append-only record log. Safe for concurrent use.
type Store struct {
	dir      string
	segBytes int64

	mu     sync.Mutex
	segs   []*segment
	cur    *segment
	recSeq uint64 // monotonic record counter (the SegmentRecord frame seq)
	sealed bool

	gBytes *obs.Gauge
	gSegs  *obs.Gauge
}

// Open creates (or reuses) the segment directory and starts the first
// segment. A manifest an earlier run left in a reused directory is
// removed first: the directory only ever holds one its own run sealed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.Remove(filepath.Join(cfg.Dir, ManifestName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	segBytes := cfg.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	s := &Store{dir: cfg.Dir, segBytes: segBytes}
	if cfg.Reg != nil {
		s.gBytes = cfg.Reg.Gauge("predctl_store_segment_bytes")
		s.gSegs = cfg.Reg.Gauge("predctl_store_segments_total")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

func segName(i int) string { return fmt.Sprintf("seg-%06d.pcseg", i) }

// rotateLocked closes the active segment (if any) and opens the next.
func (s *Store) rotateLocked() error {
	if s.cur != nil {
		if err := s.cur.w.Flush(); err != nil {
			return fmt.Errorf("store: flush %s: %w", s.cur.name, err)
		}
	}
	name := segName(len(s.segs))
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{name: name, f: f, w: bufio.NewWriterSize(f, 64<<10)}
	if _, err := seg.w.Write(magic); err != nil {
		f.Close()
		return fmt.Errorf("store: %s: %w", name, err)
	}
	seg.size = int64(len(magic))
	s.segs = append(s.segs, seg)
	s.cur = seg
	if s.gSegs != nil {
		s.gSegs.Set(int64(len(s.segs)))
	}
	return nil
}

// Append writes one capture frame body for origin at epoch. The body is
// wrapped in a wire.SegmentRecord, checksummed and appended to the
// active segment. A full segment is rotated before the write, not after
// it, so an Append whose rotation fails has written nothing.
func (s *Store) Append(origin int32, epoch uint32, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return fmt.Errorf("store: append after seal")
	}
	if s.cur.records > 0 && s.cur.size >= s.segBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	s.recSeq++
	rec := wire.AppendBody(nil, s.recSeq, wire.SegmentRecord{Origin: origin, Epoch: epoch, Body: body})
	var hdr [recordOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
	seg := s.cur
	if _, err := seg.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: %s: %w", seg.name, err)
	}
	if _, err := seg.w.Write(rec); err != nil {
		return fmt.Errorf("store: %s: %w", seg.name, err)
	}
	seg.size += recordOverhead + int64(len(rec))
	seg.records++
	if s.gBytes != nil {
		s.gBytes.Set(s.totalBytesLocked())
	}
	return nil
}

func (s *Store) totalBytesLocked() int64 {
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	return total
}

// Stats reports segment count and total on-disk bytes.
func (s *Store) Stats() (segments int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs), s.totalBytesLocked()
}

// Manifest is the bundle's index document: the segments that make up
// one sealed capture, each pinned by size and checksum.
type Manifest struct {
	Schema   int           `json:"schema"`
	N        int           `json:"n"`
	Epoch    uint32        `json:"epoch"`
	Segments []SegmentMeta `json:"segments"`
}

// SegmentMeta pins one segment file in the manifest.
type SegmentMeta struct {
	Name    string `json:"name"`
	Bytes   int64  `json:"bytes"`
	CRC32   uint32 `json:"crc32"` // IEEE, whole file
	Records int    `json:"records"`
}

// Seal flushes and closes every segment and writes the bundle manifest:
// the directory is now a self-contained, verifiable capture bundle.
// Further appends fail.
func (s *Store) Seal(n int, epoch uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	s.sealed = true
	man := Manifest{Schema: 1, N: n, Epoch: epoch}
	for _, seg := range s.segs {
		if err := seg.w.Flush(); err != nil {
			return fmt.Errorf("store: seal %s: %w", seg.name, err)
		}
		if err := seg.f.Close(); err != nil {
			return fmt.Errorf("store: seal %s: %w", seg.name, err)
		}
		crc, err := fileCRC(filepath.Join(s.dir, seg.name))
		if err != nil {
			return err
		}
		man.Segments = append(man.Segments, SegmentMeta{
			Name: seg.name, Bytes: seg.size, CRC32: crc, Records: seg.records,
		})
	}
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.dir, ManifestName), append(buf, '\n'), 0o644)
}

// Close flushes and closes the segments without sealing (no manifest):
// the abort path. Idempotent with Seal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	s.sealed = true
	for _, seg := range s.segs {
		seg.w.Flush()
		seg.f.Close()
	}
	return nil
}

func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	return h.Sum32(), nil
}

// Verify checks a sealed bundle: the manifest parses, every listed
// segment exists with the recorded size and whole-file checksum, every
// record inside checksums and decodes, and the cluster size is one the
// records can hold — every node of a sealed run appends at least its
// TraceInit, so a manifest claiming more nodes than records is forged,
// and a reader sizing its tables by it would be the one to pay. Each
// segment is read once: the record scan feeds the whole-file checksum.
// It returns the manifest on success.
func Verify(dir string) (*Manifest, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, sm := range man.Segments {
		path := filepath.Join(dir, sm.Name)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("store: bundle: %w", err)
		}
		if fi.Size() != sm.Bytes {
			return nil, fmt.Errorf("store: bundle: %s is %d bytes, manifest says %d",
				sm.Name, fi.Size(), sm.Bytes)
		}
		records := 0
		crc, err := replaySegment(path, sm.Bytes, func(wire.SegmentRecord, uint64, wire.Msg) error {
			records++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if crc != sm.CRC32 {
			return nil, fmt.Errorf("store: bundle: %s checksum %08x, manifest says %08x: segment corrupt",
				sm.Name, crc, sm.CRC32)
		}
		if records != sm.Records {
			return nil, fmt.Errorf("store: bundle: %s holds %d records, manifest says %d",
				sm.Name, records, sm.Records)
		}
		total += records
	}
	if man.N > total {
		return nil, fmt.Errorf("store: bundle: manifest n=%d exceeds the %d records it holds", man.N, total)
	}
	return man, nil
}

// readManifest parses a bundle's manifest and refuses a schema this
// code does not read, a cluster of no nodes, and a segment named
// anywhere but in the bundle's own directory.
func readManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("store: bundle: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("store: bundle manifest: %w", err)
	}
	if man.Schema != 1 {
		return nil, fmt.Errorf("store: bundle manifest schema %d unsupported", man.Schema)
	}
	if man.N < 1 {
		return nil, fmt.Errorf("store: bundle manifest: n=%d, want at least 1", man.N)
	}
	for _, sm := range man.Segments {
		if name := sm.Name; name == "." || name == ".." || filepath.Base(name) != name || strings.ContainsRune(name, '/') {
			return nil, fmt.Errorf("store: bundle manifest: segment %q is not a file name in the bundle", name)
		}
	}
	return &man, nil
}

// ReplayBundle streams every record of a sealed bundle, segment by
// segment in manifest order, with each record's checksum verified. It
// yields every epoch's records — callers filter by SegmentRecord.Epoch
// (the manifest's Epoch is the final one).
func ReplayBundle(dir string, fn func(rec wire.SegmentRecord, seq uint64, m wire.Msg) error) (*Manifest, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, sm := range man.Segments {
		if _, err := replaySegment(filepath.Join(dir, sm.Name), sm.Bytes, fn); err != nil {
			return nil, err
		}
	}
	return man, nil
}

// replaySegment scans the first size bytes of one segment file
// sequentially, verifying and decoding every record, and returns the
// CRC-32 of the bytes it scanned. A record running past size (or past
// the frame limit) is refused before its buffer is allocated.
func replaySegment(path string, size int64, fn func(rec wire.SegmentRecord, seq uint64, m wire.Msg) error) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	h := crc32.NewIEEE()
	br := bufio.NewReaderSize(io.TeeReader(io.LimitReader(f, size), h), 64<<10)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil || string(got) != string(magic) {
		return 0, fmt.Errorf("store: %s: not a segment file", path)
	}
	off := int64(len(magic))
	for {
		var hdr [recordOverhead]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return h.Sum32(), nil
			}
			return 0, fmt.Errorf("store: %s@%d: %w", path, off, err)
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n > wire.MaxFrame+64 || int64(n) > size-off-recordOverhead {
			return 0, fmt.Errorf("store: %s@%d: record length %d exceeds the frame limit or the segment", path, off, n)
		}
		rec := make([]byte, n)
		if _, err := io.ReadFull(br, rec); err != nil {
			return 0, fmt.Errorf("store: %s@%d: %w", path, off, err)
		}
		if got, want := crc32.ChecksumIEEE(rec), binary.BigEndian.Uint32(hdr[4:8]); got != want {
			return 0, fmt.Errorf("store: %s@%d: checksum mismatch (got %08x, want %08x): segment corrupt",
				path, off, got, want)
		}
		_, m, err := wire.DecodeBody(rec)
		if err != nil {
			return 0, fmt.Errorf("store: %s@%d: %w", path, off, err)
		}
		sr, ok := m.(wire.SegmentRecord)
		if !ok {
			return 0, fmt.Errorf("store: %s@%d: record is %T, want SegmentRecord", path, off, m)
		}
		seq, inner, err := wire.DecodeBody(sr.Body)
		if err != nil {
			return 0, fmt.Errorf("store: %s@%d: inner frame: %w", path, off, err)
		}
		if err := fn(sr, seq, inner); err != nil {
			return 0, err
		}
		off += recordOverhead + int64(n)
	}
}
