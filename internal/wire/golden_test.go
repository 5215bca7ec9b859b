package wire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// golden_test.go is the v1 wire-format compatibility corpus (ROADMAP
// "Wire-format evolution"): one committed binary fixture per frame
// kind, each a complete frame as v1 puts it on a TCP stream. The test
// holds the current codec to byte-for-byte compatibility in both
// directions — every fixture must decode to exactly the recorded
// message, and re-encoding that message must reproduce the fixture
// bit-identically. A future v2 codec keeps this test (and the fixtures)
// unchanged to prove it still reads v1 captures; only deliberate,
// version-bumped format changes may regenerate the corpus with
// `go test ./internal/wire -run TestGoldenFrames -update-golden`.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden frame fixtures from the current encoder")

// goldenFrames enumerates one representative frame per kind, with
// non-trivial field values (negative varints, the vclock.None sentinel,
// multi-group op batches) so the fixtures pin the interesting encoder
// behavior, not just the happy path.
var goldenFrames = []struct {
	name string
	seq  uint64
	msg  Msg
}{
	{"01_hello", 0, Hello{From: -1, N: 64}},
	{"02_linkack", 0, LinkAck{Cum: 300}},
	{"03_ctl", 7, Ctl{Kind: CtlConfirm, From: 2, To: 61, Gen: 9, TraceID: 66<<40 | 41, VC: []int32{3, -1, 0, 12}}},
	{"04_app", 8, App{From: 1, To: 2, TraceID: 99, VC: []int32{5, -1}, Payload: []byte("payload")}},
	{"05_candidate", 9, Candidate{Proc: 3, LoIdx: 4, HiIdx: 9, Lo: []int32{1, 2}, Hi: []int32{4, 5}}},
	{"06_journalevent", 10, JournalEvent{At: 123456789, Proc: 67, Kind: 7, Name: "scapegoat.acquire", A: 3, B: 2, C: 5, VC: []int32{7, 0, -1}}},
	{"07_trace", 11, Trace{Ops: []TraceOp{
		{Op: TraceInit, Proc: 0, Name: "cs", Value: 0},
		{Op: TraceSend, Proc: 64, MsgID: 64<<40 | 1},
		{Op: TraceRecv, Proc: 0, MsgID: 64<<40 | 1},
		{Op: TraceSet, Proc: 0, Name: "cs", Value: 1},
	}}},
	{"08_done", 12, Done{Proc: 5, Requests: 2, Handoffs: 1, CtlMessages: 6, Responses: []int64{0, 1500000}}},
	{"09_shutdown", 0, Shutdown{}},
	{"10_journalbatch", 13, JournalBatch{Events: []JournalEvent{
		{At: 5, Proc: 66, Kind: 7, Name: "ctl.req", A: 3, C: 4, VC: []int32{1, 1, 0}},
		{At: 9, Proc: 2, Kind: 6, Name: "cs", A: 1},
	}}},
	{"11_traceopbatch", 14, TraceOpBatch{Ops: []TraceOp{
		{Op: TraceSend, Proc: 66, MsgID: 66<<40 | 3},
		{Op: TraceRecv, Proc: 66, MsgID: 66<<40 | 2},
		{Op: TraceSet, Proc: 2, Name: "cs", Value: 0},
	}}},
	{"12_candidatebatch", 15, CandidateBatch{Cands: []Candidate{
		{Proc: 2, LoIdx: 4, HiIdx: 6, Lo: []int32{2, 1, 0}, Hi: []int32{4, 2, 1}},
		{Proc: 0, LoIdx: 1, HiIdx: 1, Lo: []int32{1, 0, 0}, Hi: []int32{1, 0, 0}},
	}}},
	{"13_resume", 16, Resume{From: 5, N: 64, Epoch: 3}},
	{"14_resumeack", 0, ResumeAck{Cum: 1 << 33, Epoch: 7}},
	{"15_restart", 0, Restart{Epoch: 4}},
	{"16_epochmark", 17, EpochMark{Epoch: 4}},
	{"17_commit", 0, Commit{}},
	{"18_metricssnapshot", 18, MetricsSnapshot{Proc: 3, Epoch: 2, AtNs: 1_500_000_000, Points: []MetricPoint{
		{Kind: 1, Key: `predctl_requests_total`, Value: 42},
		{Kind: 1, Key: `predctl_wire_frames_total{stream="coord"}`, Value: 317},
		{Kind: 2, Key: `predctl_epoch`, Value: 2},
		{Kind: 5, Key: `predctl_response_ns`, Value: -1},
	}}},
	{"19_detection", 19, Detection{Epoch: 1, Node: 2, AtNs: 7_250_000, Cut: []int64{3, -1, 4, 0, 2, 1}}},
	{"20_reexec", 0, ReExec{Epoch: 2, Edges: 5}},
	{"21_relayhello", 0, RelayHello{Relay: 2, Relays: 8, N: 256, Resume: true, Epoch: 3}},
	{"22_relaybatch", 20, RelayBatch{Frames: []RelayFrame{
		{Origin: 66, Body: AppendBody(nil, 9, TraceOpBatch{Ops: []TraceOp{
			{Op: TraceSend, Proc: 66, MsgID: 66<<40 | 7},
			{Op: TraceRecv, Proc: 66, MsgID: 66<<40 | 5},
		}})},
		{Origin: 2, Body: AppendBody(nil, 4, EpochMark{Epoch: 3})},
	}}},
	{"23_segmentrecord", 21, SegmentRecord{Origin: 66, Epoch: 3,
		Body: AppendBody(nil, 9, JournalEvent{At: 77, Proc: 66, Kind: 6, Name: "cs", A: 1, VC: []int32{2, -1}})}},
	// An optional trailing field gets its own fixture beside its kind's.
	{"24_restart_answer", 0, Restart{Epoch: 4, Inc: 1<<62 | 9}},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".bin")
}

func TestGoldenFrames(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			path := goldenPath(g.name)
			if *updateGolden {
				if err := os.WriteFile(path, Marshal(g.seq, g.msg), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden after a deliberate format change): %v", err)
			}
			seq, m, err := ReadFrame(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("v1 fixture no longer decodes: %v", err)
			}
			if seq != g.seq || !reflect.DeepEqual(m, g.msg) {
				t.Fatalf("v1 fixture decoded to\n %d %#v\nwant\n %d %#v", seq, m, g.seq, g.msg)
			}
			if got := Marshal(g.seq, g.msg); !bytes.Equal(got, want) {
				t.Fatalf("re-encoding drifted from the committed v1 bytes\n got %x\nwant %x", got, want)
			}
		})
	}
	// The corpus must stay exhaustive: a new frame kind without a
	// fixture would silently escape the compatibility guarantee.
	kinds := map[byte]bool{}
	for _, g := range goldenFrames {
		kinds[g.msg.wireKind()] = true
	}
	for k := kindHello; k <= kindSegmentRecord; k++ {
		if !kinds[k] {
			t.Errorf("frame kind %d has no golden fixture", k)
		}
	}
	_ = fmt.Sprint() // keep fmt imported if the table shrinks
}
