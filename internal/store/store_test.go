package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"

	"predctl/internal/wire"
)

func body(t testing.TB, seq uint64, m wire.Msg) []byte {
	t.Helper()
	return wire.AppendBody(nil, seq, m)
}

// replayEpoch streams the records of one epoch out of the sealed bundle
// in dir, filtered as the bundle's readers filter them.
func replayEpoch(t testing.TB, dir string, epoch uint32, fn func(rec wire.SegmentRecord, seq uint64, m wire.Msg)) {
	t.Helper()
	if _, err := ReplayBundle(dir, func(rec wire.SegmentRecord, seq uint64, m wire.Msg) error {
		if rec.Epoch == epoch {
			fn(rec, seq, m)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.Msg{
		wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceStep, Proc: 0}, {Op: wire.TraceSend, Proc: 0, MsgID: 7}}},
		wire.JournalEvent{At: 5, Proc: 0, Kind: 6, Name: "cs", A: 1},
		wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceRecv, Proc: 4, MsgID: 7}}},
	}
	for i, m := range want {
		if err := s.Append(0, 0, body(t, uint64(i+1), m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(3, 1, body(t, 1, wire.JournalEvent{At: 9, Proc: 3, Kind: 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(1, 1); err != nil {
		t.Fatal(err)
	}
	var got []wire.Msg
	var seqs []uint64
	replayEpoch(t, dir, 0, func(rec wire.SegmentRecord, seq uint64, m wire.Msg) {
		if rec.Origin != 0 {
			t.Errorf("epoch 0 replays a record of origin %d", rec.Origin)
		}
		got = append(got, m)
		seqs = append(seqs, seq)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %#v, want %#v", got, want)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("inner seqs %v, want [1 2 3]", seqs)
	}
	var origins []int32
	replayEpoch(t, dir, 1, func(rec wire.SegmentRecord, _ uint64, _ wire.Msg) {
		origins = append(origins, rec.Origin)
	})
	if !reflect.DeepEqual(origins, []int32{3}) {
		t.Fatalf("epoch 1 replays origins %v, want [3]", origins)
	}
}

// An epoch discard voids a node's records by moving on to a later
// epoch: the voided records stay on disk, and a replay of the new epoch
// does not yield them.
func TestDiscardDropsLiveRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 0, body(t, 1, wire.JournalEvent{At: 1, Proc: 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 1, body(t, 1, wire.JournalEvent{At: 2, Proc: 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(1, 1); err != nil {
		t.Fatal(err)
	}
	var got []wire.Msg
	replayEpoch(t, dir, 1, func(_ wire.SegmentRecord, _ uint64, m wire.Msg) { got = append(got, m) })
	if len(got) != 1 || got[0].(wire.JournalEvent).At != 2 {
		t.Fatalf("after discard, replay yields %#v; want only the post-discard record", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Append(0, 0, body(t, uint64(i+1), wire.JournalEvent{At: int64(i), Proc: 0, Name: "rotate-me"})); err != nil {
			t.Fatal(err)
		}
	}
	segs, bytes := s.Stats()
	if segs < 2 {
		t.Fatalf("expected rotation past 256 bytes, got %d segments (%d bytes)", segs, bytes)
	}
	if err := s.Seal(1, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	replayEpoch(t, dir, 0, func(wire.SegmentRecord, uint64, wire.Msg) { n++ })
	if n != 50 {
		t.Fatalf("replayed %d records across segments, want 50", n)
	}
	// A segment is rotated when the next record arrives, so none is
	// left empty behind the last.
	man, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range man.Segments {
		if sm.Records == 0 {
			t.Errorf("segment %s holds no records", sm.Name)
		}
	}
}

// An Append that errs has written nothing. With the next segment's name
// taken by a directory, every rotation fails; only the appends that
// returned nil may replay from the sealed bundle.
func TestFailedAppendLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, segName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 4; i++ {
		if s.Append(0, 0, body(t, uint64(i+1), wire.JournalEvent{At: int64(i)})) == nil {
			ok++
		}
	}
	if ok == 4 {
		t.Fatal("every append succeeded; the blocked rotation never failed")
	}
	if err := s.Seal(1, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	replayEpoch(t, dir, 0, func(wire.SegmentRecord, uint64, wire.Msg) { n++ })
	if n != ok {
		t.Fatalf("%d of 4 appends succeeded, yet %d records replay", ok, n)
	}
}

func sealSample(t testing.TB) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Append(int32(i%3), 0, body(t, uint64(i+1), wire.JournalEvent{At: int64(i), Proc: int32(i % 3), Name: "seal"})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(3, 0); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

func TestSealVerifyBundle(t *testing.T) {
	dir, s := sealSample(t)
	man, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.N != 3 || len(man.Segments) == 0 {
		t.Fatalf("manifest %+v", man)
	}
	if err := s.Append(0, 0, body(t, 99, wire.JournalEvent{})); err == nil {
		t.Fatal("append after seal must fail")
	}
	n := 0
	if _, err := ReplayBundle(dir, func(rec wire.SegmentRecord, _ uint64, _ wire.Msg) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("bundle replay yields %d records, want 40", n)
	}
}

// TestReopenDropsOldManifest: a directory reused by a run that never
// seals must not keep the manifest of the run before — it would bless
// segments the new run has overwritten.
func TestReopenDropsOldManifest(t *testing.T) {
	dir, _ := sealSample(t)
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("an unsealed reopen left the earlier run's manifest (stat: %v)", err)
	}
}

// A single flipped byte inside a segment must surface as a checksum
// rejection with a clear error — never as a silently garbled deposet.
func TestCorruptionRejected(t *testing.T) {
	dir, _ := sealSample(t)
	man, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.Segments[0].Name)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify accepted a corrupted segment")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption error should name the cause, got: %v", err)
	}
	_, err = ReplayBundle(dir, func(wire.SegmentRecord, uint64, wire.Msg) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bundle replay must reject the flipped byte, got: %v", err)
	}
}

func TestVerifyMissingSegment(t *testing.T) {
	dir, _ := sealSample(t)
	man, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, man.Segments[0].Name)); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify accepted a bundle with a missing segment")
	}
}

// A bundle whose manifest declares a later schema is refused by both
// readers, not replayed on the assumption it is schema 1.
func TestFutureSchemaRejected(t *testing.T) {
	dir, _ := sealSample(t)
	editManifest(t, dir, func(man *Manifest) { man.Schema = 2 })
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "schema 2") {
		t.Errorf("Verify on a schema-2 bundle: %v", err)
	}
	replayed := 0
	_, err := ReplayBundle(dir, func(wire.SegmentRecord, uint64, wire.Msg) error { replayed++; return nil })
	if err == nil || !strings.Contains(err.Error(), "schema 2") || replayed > 0 {
		t.Errorf("ReplayBundle on a schema-2 bundle replayed %d records: %v", replayed, err)
	}
}

// editManifest rewrites a sealed bundle's manifest through edit.
func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	edit(&man)
	if buf, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A manifest claiming more nodes than the bundle holds records is
// forged — every node spills at least its TraceInit — and Verify
// refuses it, naming n, before a reader sizes a table by it.
func TestVerifyRefusesForgedN(t *testing.T) {
	for _, n := range []int{41, 1 << 40} {
		dir, _ := sealSample(t) // 40 records
		editManifest(t, dir, func(man *Manifest) { man.N = n })
		want := fmt.Sprintf("n=%d", n)
		if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Verify with manifest n=%d: %v, want an error naming %s", n, err, want)
		}
	}
	dir, _ := sealSample(t)
	editManifest(t, dir, func(man *Manifest) { man.N = 40 })
	if _, err := Verify(dir); err != nil {
		t.Errorf("Verify with one record per node: %v", err)
	}
}

// FuzzReplaySegment holds the segment reader to its contract on bytes
// from disk: it never panics, and a record header's claimed length
// never costs more than the file holds — what it allocates stays a
// small multiple of the input, however large the claim.
func FuzzReplaySegment(f *testing.F) {
	dir, _ := sealSample(f)
	man, err := Verify(dir)
	if err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, man.Segments[0].Name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(append(slices.Clone(magic), 0x00, 0x10, 0x00, 0x00, 0, 0, 0, 0)) // claims a 1 MiB record
	f.Add(append(slices.Clone(magic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "seg") // one file per worker process
	heap := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The heap counter is process-wide: take the lesser of two runs,
		// so first-call set-up and the fuzz worker's own traffic do not
		// count against the reader.
		grew := uint64(math.MaxUint64)
		for range 2 {
			metrics.Read(heap)
			before := heap[0].Value.Uint64()
			replaySegment(path, int64(len(data)), func(wire.SegmentRecord, uint64, wire.Msg) error { return nil })
			metrics.Read(heap)
			grew = min(grew, heap[0].Value.Uint64()-before)
		}
		if limit := uint64(256<<10 + 64*len(data)); grew > limit {
			t.Fatalf("replaying %d bytes allocated %d, over %d", len(data), grew, limit)
		}
	})
}
