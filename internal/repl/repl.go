// Package repl is the leader/follower replication subsystem: log
// shipping over HTTP, built directly on the write-ahead journal.
//
// The wire format IS the journal format. A leader streams the exact
// on-disk frame bytes ([4-byte length][4-byte CRC-32C][payload]) off
// its WAL over a chunked HTTP response; a follower reads them back with
// the journal's own reader (wal.FrameReader: length bounds, CRC and seq
// continuity — torn-stream tolerance for free), decodes the record,
// applies it through the store's normal apply→append→publish pipeline
// into its *own* journal — preserving sequence numbers — and so ends up
// with a frame-identical journal and a bit-identical index. Recovery on
// a follower is therefore plain local recovery: load the newest
// snapshot, replay the local tail, resume the stream from the last
// applied seq.
//
// Endpoints a leader mounts (see Leader):
//
//	GET /v1/repl/stream?from=<seq>   chunked WAL frames, heartbeats while idle;
//	                                 410 Gone when <seq> predates the retained tail
//	GET /v1/repl/snapshot            compressed snapshot bootstrap; the covered
//	                                 journal seq rides in X-Structix-Snapshot-Seq
//	GET /v1/repl/state               JSON: oldest retained / ship / snapshot seq
//
// In-band control frames use record seq 0 with kind 0 — a (seq, kind)
// pair no journal record can carry — and are never written to the
// follower's journal. The only control frame today is the heartbeat:
// the leader's ship seq plus its wall clock, which keeps lag metrics
// honest while the stream is idle.
package repl

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"structix/internal/wal"
)

// Endpoint paths, relative to a leader's base URL.
const (
	PathStream   = "/v1/repl/stream"
	PathSnapshot = "/v1/repl/snapshot"
	PathState    = "/v1/repl/state"
)

// HeaderSnapshotSeq carries the journal seq a snapshot response covers.
const HeaderSnapshotSeq = "X-Structix-Snapshot-Seq"

// ErrSnapshotRequired reports that the leader has compacted its journal
// past the requested resume point (the HTTP face of wal.ErrGap): the
// follower cannot catch up by streaming and must bootstrap from a
// leader snapshot instead.
var ErrSnapshotRequired = errors.New("repl: leader journal no longer reaches the resume point; snapshot bootstrap required")

// ErrDiverged reports that the follower's journal runs ahead of the
// leader's ship horizon — the fork a leader crash can leave behind under
// the relaxed fsync policies. A diverged follower must be re-seeded.
var ErrDiverged = errors.New("repl: follower journal is ahead of the leader")

// State is the leader-side stream position report served at PathState.
type State struct {
	// OldestSeq is the oldest journal record the leader can still
	// stream; a follower whose next record is older needs a snapshot.
	OldestSeq uint64 `json:"oldest_seq"`
	// ShipSeq is the newest record the leader will ship (see
	// wal.Log.ShipSeq for the durability bound).
	ShipSeq uint64 `json:"ship_seq"`
	// SnapshotSeq is the coverage of the leader's newest on-disk
	// snapshot.
	SnapshotSeq uint64 `json:"snapshot_seq"`
}

// control-frame kinds (record kind byte under seq 0).
const ctrlHeartbeat = 0

// heartbeatFrame encodes a control frame carrying the leader's ship seq
// and wall clock, sealed by the journal's own frame writer.
func heartbeatFrame(ship uint64, now time.Time) []byte {
	b := wal.StartFrame(nil, 0, ctrlHeartbeat) // seq 0: control
	b = binary.AppendUvarint(b, ship)
	b = binary.AppendUvarint(b, uint64(now.UnixNano()))
	return wal.SealFrame(b)
}

// decodeHeartbeat reads the body of a control frame (after the seq-0
// header and kind byte were consumed by the caller).
func decodeHeartbeat(body []byte) (ship uint64, at time.Time, err error) {
	ship, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, time.Time{}, fmt.Errorf("repl: bad heartbeat frame")
	}
	nanos, m := binary.Uvarint(body[n:])
	if m <= 0 || n+m != len(body) {
		return 0, time.Time{}, fmt.Errorf("repl: bad heartbeat frame")
	}
	return ship, time.Unix(0, int64(nanos)), nil
}

// FetchState asks a leader for its stream position.
func FetchState(ctx context.Context, hc *http.Client, leader string) (State, error) {
	var st State
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+PathState, nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("repl: leader state: %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st); err != nil {
		return st, fmt.Errorf("repl: leader state: %w", err)
	}
	return st, nil
}

// FetchSnapshot opens a snapshot-bootstrap download from a leader. The
// caller owns the returned body and must Close it; seq is the journal
// coverage of the snapshot bytes.
func FetchSnapshot(ctx context.Context, hc *http.Client, leader string) (seq uint64, body io.ReadCloser, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+PathSnapshot, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("repl: leader snapshot: %s", resp.Status)
	}
	seq, err = strconv.ParseUint(resp.Header.Get(HeaderSnapshotSeq), 10, 64)
	if err != nil {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("repl: leader snapshot carries no %s header", HeaderSnapshotSeq)
	}
	return seq, resp.Body, nil
}
