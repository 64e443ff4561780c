package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"structix/internal/graph"
)

// TestReplayRawFramesMatchDisk checks that ReplayRaw hands back frames
// that re-validate and decode to the exact records Replay produces, and
// that the [from, to] window is honored.
func TestReplayRawFramesMatchDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 12; i++ {
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(graph.NodeID(i), graph.NodeID(i+1), graph.Tree)}); err != nil {
			t.Fatal(err)
		}
	}
	want := collect(t, l, 3)[:6] // seqs 3..8
	var got []*Record
	var reused *byte // same-sized frames: the buffer never needs to grow
	err = l.ReplayRaw(3, 8, func(seq uint64, frame []byte) error {
		payload, _, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("frame %d does not read back: %v", seq, err)
		}
		if reused != nil && &frame[0] != reused {
			t.Fatalf("frame %d arrived in a fresh buffer; ReplayRaw reuses one", seq)
		}
		reused = &frame[0]
		rec, err := DecodePayload(payload)
		if err != nil {
			return err
		}
		if rec.Seq != seq {
			t.Fatalf("payload seq %d, header said %d", rec.Seq, seq)
		}
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ReplayRaw streamed %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestReplayRawGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 8; i++ {
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(1, 2, graph.Tree)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.RemoveBelow(6); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestSeq()
	if oldest <= 1 {
		t.Fatalf("compaction did not advance the oldest seq (still %d)", oldest)
	}
	err = l.ReplayRaw(1, 8, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrGap) {
		t.Fatalf("ReplayRaw below the retained tail: %v, want ErrGap", err)
	}
	if err := l.ReplayRaw(oldest, 8, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("ReplayRaw from oldest retained: %v", err)
	}
}

// TestAppendRecordMirrorsJournal re-appends a leader journal record by
// record into a second log and checks the two directories ship the same
// frames — the follower invariant.
func TestAppendRecordMirrorsJournal(t *testing.T) {
	leader := t.TempDir()
	l, err := Open(leader, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(1, 2, graph.Tree), graph.DeleteOp(3, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Kind: RecSubgraph, Sub: &SubgraphPayload{Labels: []string{"a"}, Values: []string{"v"}}}); err != nil {
		t.Fatal(err)
	}

	follower := t.TempDir()
	f, err := Open(follower, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := l.Replay(1, func(rec *Record) error {
		seq, err := f.Append(rec)
		if err == nil && seq != rec.Seq {
			t.Fatalf("follower assigned seq %d to record %d", seq, rec.Seq)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	var leaderFrames, followerFrames [][]byte
	grab := func(frames *[][]byte) func(uint64, []byte) error {
		return func(_ uint64, frame []byte) error {
			*frames = append(*frames, append([]byte(nil), frame...))
			return nil
		}
	}
	if err := l.ReplayRaw(1, l.ShipSeq(), grab(&leaderFrames)); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplayRaw(1, f.ShipSeq(), grab(&followerFrames)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(leaderFrames, followerFrames) {
		t.Fatal("follower journal frames differ from the leader's")
	}

	// Out-of-order and replayed records are refused.
	rec := &Record{Seq: 99, Kind: RecEdges}
	if _, err := f.Append(rec); err == nil {
		t.Fatal("Append accepted a gap")
	}
	rec.Seq = 1
	if _, err := f.Append(rec); err == nil {
		t.Fatal("Append accepted a duplicate")
	}
}

func TestWatchWakesOnAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := l.Watch()
	select {
	case <-ch:
		t.Fatal("watch channel closed before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(1, 2, graph.Tree)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the watcher")
	}
	if got := l.ShipSeq(); got != 1 {
		t.Fatalf("ShipSeq = %d, want 1 (SyncAlways)", got)
	}
}

// TestShipSeqPolicyBound pins the ship-safety rule: acked-but-unsynced
// records are shippable only under the policies whose clients already
// accepted that loss window.
func TestShipSeqPolicyBound(t *testing.T) {
	for _, tc := range []struct {
		policy     SyncPolicy
		wantSynced bool // ship bound advances only on sync
	}{
		{SyncWindow, true},
		{SyncAlways, false}, // append itself syncs
		{SyncNone, false},
	} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(1, 2, graph.Tree)}); err != nil {
			t.Fatal(err)
		}
		got := l.ShipSeq()
		if tc.wantSynced {
			if got != 0 {
				t.Fatalf("%v: ShipSeq = %d before sync, want 0", tc.policy, got)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			got = l.ShipSeq()
		}
		if got != 1 {
			t.Fatalf("%v: ShipSeq = %d, want 1", tc.policy, got)
		}
		l.Close()
	}
}
