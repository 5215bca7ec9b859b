package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"predctl/internal/wire"
)

func body(t *testing.T, seq uint64, m wire.Msg) []byte {
	t.Helper()
	return wire.AppendBody(nil, seq, m)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
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
	var got []wire.Msg
	var seqs []uint64
	err = s.Replay(0, func(seq uint64, m wire.Msg) error {
		got = append(got, m)
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %#v, want %#v", got, want)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("inner seqs %v, want [1 2 3]", seqs)
	}
	if origins := s.Origins(); !reflect.DeepEqual(origins, []int32{0, 3}) {
		t.Fatalf("origins %v, want [0 3]", origins)
	}
}

func TestDiscardDropsLiveRecords(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 0, body(t, 1, wire.JournalEvent{At: 1, Proc: 1})); err != nil {
		t.Fatal(err)
	}
	s.Discard(1)
	if err := s.Append(1, 1, body(t, 1, wire.JournalEvent{At: 2, Proc: 1})); err != nil {
		t.Fatal(err)
	}
	var got []wire.Msg
	if err := s.Replay(1, func(_ uint64, m wire.Msg) error { got = append(got, m); return nil }); err != nil {
		t.Fatal(err)
	}
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
	n := 0
	if err := s.Replay(0, func(uint64, wire.Msg) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("replayed %d records across segments, want 50", n)
	}
}

func sealSample(t *testing.T) (string, *Store) {
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
	path := filepath.Join(dir, ManifestName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	man.Schema = 2
	if buf, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "schema 2") {
		t.Errorf("Verify on a schema-2 bundle: %v", err)
	}
	replayed := 0
	_, err = ReplayBundle(dir, func(wire.SegmentRecord, uint64, wire.Msg) error { replayed++; return nil })
	if err == nil || !strings.Contains(err.Error(), "schema 2") || replayed > 0 {
		t.Errorf("ReplayBundle on a schema-2 bundle replayed %d records: %v", replayed, err)
	}
}
