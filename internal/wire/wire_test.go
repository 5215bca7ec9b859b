package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// every message kind, with both zero and populated fields.
func sampleMsgs() []Msg {
	return []Msg{
		Hello{From: 3, N: 5},
		Hello{From: -1, N: 8},              // coordinator handshake
		Hello{From: 2, N: 4, Inc: 1 << 40}, // a coordinator stream's frame 1
		LinkAck{Cum: 0},
		LinkAck{Cum: 1<<63 + 17},
		Ctl{Kind: CtlReq, From: 0, To: 4, Gen: 7, TraceID: 1 << 40, VC: []int32{-1, 0, 12}},
		Ctl{Kind: CtlCancel, From: 2, To: 0},
		App{From: 1, To: 2, TraceID: 99, VC: []int32{5, -1, 3}, Payload: []byte("hi")},
		App{From: 0, To: 1},
		Candidate{Proc: 2, LoIdx: 4, HiIdx: 9, Lo: []int32{1, 2, 3}, Hi: []int32{4, 5, 6}},
		JournalEvent{At: 123456789, Proc: 7, Kind: 7, Name: "scapegoat.acquire", A: 2, B: 1, C: 3},
		JournalEvent{At: -5, Proc: 0, Kind: 1, A: -1, B: -2, C: -3, VC: []int32{-1}},
		Trace{},
		Trace{Ops: []TraceOp{
			{Op: TraceInit, Proc: 0, Name: "cs", Value: 0},
			{Op: TraceSend, Proc: 3, MsgID: 1<<48 | 42},
			{Op: TraceRecv, Proc: 1, MsgID: 1<<48 | 42},
			{Op: TraceSet, Proc: 0, Name: "cs", Value: 1},
			{Op: TraceStep, Proc: 2},
		}},
		Done{Proc: 4, Requests: 10, Handoffs: 3, CtlMessages: 6, Responses: []int64{0, 1500, 2_000_000}},
		Done{Proc: 0},
		Shutdown{},
		Shutdown{Epoch: 9},
		Commit{},
		JournalBatch{},
		JournalBatch{Events: []JournalEvent{
			{At: 1, Proc: 2, Kind: 7, Name: "ctl.req", A: 3, C: 9, VC: []int32{1, 0}},
			{At: 2, Proc: 0, Kind: 6, Name: "cs", A: 1},
			{At: -7, Proc: 5, Kind: 1, B: -2},
		}},
		TraceOpBatch{},
		TraceOpBatch{Ops: []TraceOp{ // runs of equal Proc plus singletons
			{Op: TraceInit, Proc: 0, Name: "cs", Value: 0},
			{Op: TraceSend, Proc: 0, MsgID: 7},
			{Op: TraceRecv, Proc: 3, MsgID: 7},
			{Op: TraceSend, Proc: 3, MsgID: 1 << 44},
			{Op: TraceSet, Proc: 0, Name: "cs", Value: 1},
		}},
		CandidateBatch{},
		CandidateBatch{Cands: []Candidate{
			{Proc: 1, LoIdx: 2, HiIdx: 4, Lo: []int32{1, 0}, Hi: []int32{3, 2}},
			{Proc: 0, LoIdx: 0, HiIdx: 0},
		}},
		Resume{From: 2, N: 8, Epoch: 0},
		Resume{From: 0, N: 128, Epoch: 41},
		ResumeAck{},
		ResumeAck{Cum: 1<<50 + 3, Epoch: 9},
		Restart{Epoch: 1},
		Restart{Epoch: 2, Inc: 1<<40 | 1}, // the root's answer to one incarnation's Hello
		EpochMark{Epoch: 12},
		MetricsSnapshot{},
		MetricsSnapshot{Proc: 7, Epoch: 3, AtNs: -12345, Points: []MetricPoint{
			{Kind: 1, Key: `a_total{node="7"}`, Value: 1 << 40},
			{Kind: 4, Key: "lat_ns", Value: -9},
		}},
		Detection{},
		Detection{Epoch: 3, Node: -1, AtNs: 9_000_000, Cut: []int64{1, 0, -1, 7}},
		ReExec{Epoch: 1},
		ReExec{Epoch: 6, Edges: 12},
		RelayHello{Relay: 0, Relays: 4, N: 64},
		RelayHello{Relay: 3, Relays: 4, N: 64, Resume: true, Epoch: 2},
		RelayBatch{},
		RelayBatch{Frames: []RelayFrame{
			{Origin: 5, Body: AppendBody(nil, 12, EpochMark{Epoch: 2})},
			{Origin: 0, Body: AppendBody(nil, 3, Candidate{Proc: 0, LoIdx: 1, HiIdx: 2})},
		}},
		SegmentRecord{},
		SegmentRecord{Origin: 7, Epoch: 3,
			Body: AppendBody(nil, 41, JournalEvent{At: 5, Proc: 7, Kind: 6, Name: "cs", A: 1})},
	}
}

func TestRoundTrip(t *testing.T) {
	for i, m := range sampleMsgs() {
		seq := uint64(i * 13)
		frame := Marshal(seq, m)
		gotSeq, got, err := DecodeBody(frame[4:])
		if err != nil {
			t.Fatalf("msg %d (%T): decode: %v", i, m, err)
		}
		if gotSeq != seq {
			t.Errorf("msg %d: seq %d, want %d", i, gotSeq, seq)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("msg %d (%T): round trip\n got %#v\nwant %#v", i, m, got, m)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for i, m := range msgs {
		if err := WriteFrame(&buf, uint64(i), m); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range msgs {
		seq, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != uint64(i) || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got seq=%d %#v", i, seq, got)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Marshal(1, Ctl{Kind: CtlAck, From: 1, To: 0, Gen: 2, VC: []int32{0, 1}})[4:]

	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad version", append([]byte{Version + 1}, good[1:]...), ErrVersion},
		{"unknown kind", []byte{Version, 0xEE, 0}, nil},
		{"truncated payload", good[:len(good)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte{}, good...), 0), ErrTrailing},
	}
	for _, tc := range cases {
		_, _, err := DecodeBody(tc.body)
		if err == nil {
			t.Errorf("%s: decode accepted", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestHelloInc pins Hello's optional trailing incarnation: absent when
// zero, so a mesh Hello is the bytes it always was, and a body cut off
// inside it is truncated, not a Hello with a smaller Inc.
func TestHelloInc(t *testing.T) {
	// Version, kind, seq 5, zigzag From 3, zigzag N 5.
	if got, want := AppendBody(nil, 5, Hello{From: 3, N: 5}), []byte{Version, kindHello, 5, 6, 10}; !bytes.Equal(got, want) {
		t.Fatalf("Hello{Inc: 0} encodes as %x, want %x", got, want)
	}
	body := AppendBody(nil, 1, Hello{From: 1, N: 4, Inc: 1 << 40})
	if _, m, err := DecodeBody(body); err != nil || m != (Hello{From: 1, N: 4, Inc: 1 << 40}) {
		t.Fatalf("round trip: %#v, %v", m, err)
	}
	if _, _, err := DecodeBody(body[:len(body)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Hello cut inside Inc: got %v, want ErrTruncated", err)
	}
}

func TestDecodeHostileLengths(t *testing.T) {
	// A vector-clock count far beyond the frame must fail cleanly, not
	// allocate gigabytes.
	body := []byte{Version, kindCtl, 0 /* seq */, byte(CtlReq), 0, 0, 0, 0}
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // huge VC count
	if _, _, err := DecodeBody(body); err == nil {
		t.Fatal("hostile VC count accepted")
	}

	// A length prefix beyond MaxFrame must be rejected before reading.
	var hdr [4]byte
	hdr[0] = 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversized frame: got %v, want ErrFrameSize", err)
	}
}

// TestAppendFrame pins the allocation-free path to Marshal: same bytes,
// correct appending onto a non-empty prefix, and a pooled round trip.
func TestAppendFrame(t *testing.T) {
	for i, m := range sampleMsgs() {
		want := Marshal(uint64(i), m)
		got := AppendFrame(nil, uint64(i), m)
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d (%T): AppendFrame differs from Marshal", i, m)
		}
		pre := []byte{0xAA, 0xBB}
		app := AppendFrame(append([]byte(nil), pre...), uint64(i), m)
		if !bytes.Equal(app[:2], pre) || !bytes.Equal(app[2:], want) {
			t.Fatalf("msg %d (%T): AppendFrame clobbered its prefix", i, m)
		}
	}
	buf := GetBuffer()
	buf.B = AppendFrame(buf.B[:0], 9, Hello{From: 1, N: 4})
	if _, _, err := ReadFrame(bytes.NewReader(buf.B)); err != nil {
		t.Fatalf("pooled frame did not decode: %v", err)
	}
	PutBuffer(buf)
	// Oversized buffers must be dropped, not pinned in the pool.
	big := &Buffer{B: make([]byte, 0, bufferKeepCap+1)}
	PutBuffer(big)
	PutBuffer(nil) // must not panic
}

// TestTraceOpBatchGrouping pins the grouped encoding's compactness win:
// a proc-alternating op stream costs no more than the flat Trace form,
// and a long single-proc run costs strictly less.
func TestTraceOpBatchGrouping(t *testing.T) {
	run := make([]TraceOp, 64)
	for i := range run {
		run[i] = TraceOp{Op: TraceStep, Proc: 5, MsgID: uint64(i)}
	}
	grouped := len(Marshal(0, TraceOpBatch{Ops: run}))
	flat := len(Marshal(0, Trace{Ops: run}))
	if grouped >= flat {
		t.Fatalf("grouped encoding (%dB) not smaller than flat (%dB) on a single-proc run", grouped, flat)
	}
}

func TestReadFrameShortBody(t *testing.T) {
	frame := Marshal(3, Hello{From: 1, N: 4})
	_, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("short body: got %v, want ErrUnexpectedEOF", err)
	}
}
