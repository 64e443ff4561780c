package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"structix/internal/graph"
	"structix/internal/wal"
)

// logSource is a Source over a bare journal, with a canned snapshot.
type logSource struct {
	log      *wal.Log
	snapSeq  uint64
	snapBody []byte
}

func (s *logSource) Journal() *wal.Log { return s.log }
func (s *logSource) PinSnapshot() (uint64, func(io.Writer) error) {
	return s.snapSeq, func(w io.Writer) error {
		_, err := w.Write(s.snapBody)
		return err
	}
}

// memApplier records applied records in memory, enforcing the Applier
// ordering contract.
type memApplier struct {
	mu      sync.Mutex
	seq     uint64
	recs    []*wal.Record
	windows int
}

func (a *memApplier) ApplyRecord(rec *wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec.Seq <= a.seq {
		return nil
	}
	if rec.Seq != a.seq+1 {
		return fmt.Errorf("record %d does not follow %d", rec.Seq, a.seq)
	}
	a.seq = rec.Seq
	a.recs = append(a.recs, rec)
	return nil
}

func (a *memApplier) Seq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

func (a *memApplier) EndWindow() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.windows++
	return nil
}

func (a *memApplier) windowCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.windows
}

func openLog(t *testing.T, segBytes int64) *wal.Log {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *wal.Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.AppendEdges([]graph.EdgeOp{graph.InsertOp(graph.NodeID(i), graph.NodeID(i+1), graph.Tree)}); err != nil {
			t.Fatal(err)
		}
	}
}

func serve(t *testing.T, ld *Leader, src *logSource) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(PathStream, ld.ServeStream)
	mux.HandleFunc(PathSnapshot, ld.ServeSnapshot)
	mux.HandleFunc(PathState, func(w http.ResponseWriter, r *http.Request) {
		ld.ServeState(w, r, src.snapSeq)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHeartbeatFrameRoundTrip(t *testing.T) {
	now := time.Unix(1700000000, 123456789)
	frame := heartbeatFrame(42, now)
	seq, kind, payload, err := wal.NewFrameReader(bytes.NewReader(frame), 1).Next()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || kind != ctrlHeartbeat {
		t.Fatalf("control header = (%d, %d), want (0, %d)", seq, kind, ctrlHeartbeat)
	}
	ship, at, err := decodeHeartbeat(payload[2:])
	if err != nil {
		t.Fatal(err)
	}
	if ship != 42 || !at.Equal(now) {
		t.Fatalf("heartbeat decoded to (%d, %v), want (42, %v)", ship, at, now)
	}
}

func TestServeStreamStatusCodes(t *testing.T) {
	l := openLog(t, 1) // one record per segment, so truncation bites
	appendN(t, l, 6)
	if err := l.RemoveBelow(4); err != nil {
		t.Fatal(err)
	}
	src := &logSource{log: l, snapSeq: 5, snapBody: []byte("snap")}
	ld := NewLeader(src)
	srv := serve(t, ld, src)

	get := func(q string) *http.Response {
		resp, err := http.Get(srv.URL + PathStream + q)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get(""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing from: %d", resp.StatusCode)
	}
	// Below the retained tail: 410 + typed mapping.
	resp := get("?from=2")
	if !IsGapStatus(resp.StatusCode) {
		t.Fatalf("compacted from: %d, want 410", resp.StatusCode)
	}
	if err := streamError(resp); !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("410 mapped to %v, want ErrSnapshotRequired", err)
	}
	if ld.Stats().GapRejects != 1 {
		t.Fatalf("gap rejects = %d, want 1", ld.Stats().GapRejects)
	}
	// Ahead of everything the leader shipped: 409 + typed mapping.
	resp = get("?from=100")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("future from: %d, want 409", resp.StatusCode)
	}
	if err := streamError(resp); !errors.Is(err, ErrDiverged) {
		t.Fatalf("409 mapped to %v, want ErrDiverged", err)
	}
}

func TestFetchStateAndSnapshot(t *testing.T) {
	l := openLog(t, 0)
	appendN(t, l, 3)
	src := &logSource{log: l, snapSeq: 2, snapBody: []byte("snapshot-bytes")}
	ld := NewLeader(src)
	srv := serve(t, ld, src)

	st, err := FetchState(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.OldestSeq != 1 || st.ShipSeq != 3 || st.SnapshotSeq != 2 {
		t.Fatalf("state = %+v", st)
	}

	seq, body, err := FetchSnapshot(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	got, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || string(got) != "snapshot-bytes" {
		t.Fatalf("snapshot = (%d, %q)", seq, got)
	}
	if ld.Stats().SnapshotsServed != 1 {
		t.Fatalf("snapshots served = %d", ld.Stats().SnapshotsServed)
	}
}

func TestRunnerTailsLiveAppends(t *testing.T) {
	l := openLog(t, 0)
	appendN(t, l, 5)
	src := &logSource{log: l}
	ld := NewLeader(src)
	ld.Heartbeat = 20 * time.Millisecond
	srv := serve(t, ld, src)

	ap := &memApplier{}
	r := Start(Config{Leader: srv.URL, MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}, ap)
	defer r.Stop()

	waitFor(t, "backlog catch-up", func() bool { return ap.Seq() == 5 })
	appendN(t, l, 4) // live tail while the stream is parked
	waitFor(t, "live tail", func() bool { return ap.Seq() == 9 })

	if got := ap.windowCount(); got == 0 {
		t.Fatal("no commit windows closed at burst boundaries")
	}
	st := r.Stats()
	if st.AppliedSeq != 9 || st.FramesApplied != 9 {
		t.Fatalf("stats = %+v", st)
	}
	waitFor(t, "caught-up lag", func() bool { return r.Stats().LagSeq == 0 })
}

func TestRunnerReconnectsAfterStreamDrop(t *testing.T) {
	l := openLog(t, 0)
	appendN(t, l, 3)
	src := &logSource{log: l}
	ld := NewLeader(src)
	ld.Heartbeat = 10 * time.Millisecond

	// A gate that kills the first stream connection mid-flight.
	var mu sync.Mutex
	dropped := false
	mux := http.NewServeMux()
	mux.HandleFunc(PathStream, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !dropped
		dropped = true
		mu.Unlock()
		if first {
			// Write a torn frame prefix, then hang up.
			w.WriteHeader(http.StatusOK)
			w.Write(heartbeatFrame(3, time.Now())[:5])
			return
		}
		ld.ServeStream(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ap := &memApplier{}
	r := Start(Config{Leader: srv.URL, MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}, ap)
	defer r.Stop()

	waitFor(t, "recovery after torn stream", func() bool { return ap.Seq() == 3 })
	if r.Stats().Reconnects == 0 {
		t.Fatal("no reconnect counted after the stream drop")
	}
}

func TestRunnerTerminalOnGap(t *testing.T) {
	l := openLog(t, 1)
	appendN(t, l, 6)
	if err := l.RemoveBelow(4); err != nil {
		t.Fatal(err)
	}
	src := &logSource{log: l}
	srv := serve(t, NewLeader(src), src)

	ap := &memApplier{} // resume point seq+1 = 1, below the retained tail
	r := Start(Config{Leader: srv.URL, MinBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}, ap)
	defer r.Stop()

	waitFor(t, "resync_required", func() bool { return r.Stats().ResyncRequired })
	st := r.Stats()
	if st.State != "resync_required" || st.LastError == "" {
		t.Fatalf("terminal stats = %+v", st)
	}
	if ap.Seq() != 0 {
		t.Fatalf("applier advanced to %d across a gap", ap.Seq())
	}
}

func TestRunnerOnApplyHook(t *testing.T) {
	l := openLog(t, 0)
	appendN(t, l, 2)
	src := &logSource{log: l}
	srv := serve(t, NewLeader(src), src)

	var mu sync.Mutex
	var seqs []uint64
	ap := &memApplier{}
	r := Start(Config{Leader: srv.URL, MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}, ap)
	defer r.Stop()
	r.SetOnApply(func(seq uint64) {
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
	})
	appendN(t, l, 3)
	waitFor(t, "hook-observed applies", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) > 0 && seqs[len(seqs)-1] == 5
	})
}
